package fed

import (
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/transport"
)

// RegisterMetrics installs live views of the simulation's counters
// into reg: the transport's transport_* traffic counters, the
// resilience_* fault accounting (one view per Resilience field), the
// parameter pool's hit/miss counts and —
// when the simulation is traced — the tracer's span volume. The
// registry only ever reads; the simulation stays the owner of every
// counter. No-op on a nil registry.
func (s *Simulation) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	transport.RegisterStats(reg, s.tr)
	res := func(get func(Resilience) int64) func() float64 {
		return func() float64 { return float64(get(s.Resilience())) }
	}
	reg.RegisterFunc("resilience_blackouts", res(func(r Resilience) int64 { return r.BlackoutRounds }))
	reg.RegisterFunc("resilience_deliver_failures", res(func(r Resilience) int64 { return r.DeliverFailures }))
	reg.RegisterFunc("resilience_upload_failures", res(func(r Resilience) int64 { return r.UploadFailures }))
	reg.RegisterFunc("resilience_stragglers", res(func(r Resilience) int64 { return r.Stragglers }))
	reg.RegisterFunc("resilience_quorum_misses", res(func(r Resilience) int64 { return r.QuorumMisses }))
	reg.RegisterFunc("resilience_joins", res(func(r Resilience) int64 { return r.Joins }))
	reg.RegisterFunc("resilience_leaves", res(func(r Resilience) int64 { return r.Leaves }))
	reg.RegisterFunc("resilience_rejoins", res(func(r Resilience) int64 { return r.Rejoins }))
	reg.RegisterFunc("resilience_byzantine_uploads", res(func(r Resilience) int64 { return r.ByzantineUploads }))
	reg.RegisterFunc("resilience_clipped_uploads", res(func(r Resilience) int64 { return r.ClippedUploads }))
	reg.RegisterFunc("param_pool_hits_total", func() float64 {
		h, _ := s.pool.Stats()
		return float64(h)
	})
	reg.RegisterFunc("param_pool_misses_total", func() float64 {
		_, m := s.pool.Stats()
		return float64(m)
	})
	reg.RegisterTracer(s.cfg.Tracer)
}
