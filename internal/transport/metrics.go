package transport

import "github.com/collablearn/ciarec/internal/obs"

// statsMetrics maps registry metric names to Stats field readers, in
// the registration (and exposition) order the traffic tables use.
var statsMetrics = []struct {
	name string
	get  func(Stats) int64
}{
	{"transport_messages_total", func(s Stats) int64 { return s.Messages }},
	{"transport_bytes_total", func(s Stats) int64 { return s.Bytes }},
	{"transport_broadcast_messages_total", func(s Stats) int64 { return s.BroadcastMessages }},
	{"transport_broadcast_bytes_total", func(s Stats) int64 { return s.BroadcastBytes }},
	{"transport_raw_bytes_total", func(s Stats) int64 { return s.RawBytes }},
	{"transport_raw_broadcast_bytes_total", func(s Stats) int64 { return s.RawBroadcastBytes }},
	{"transport_round_trips_total", func(s Stats) int64 { return s.RoundTrips }},
	{"transport_reconnects_total", func(s Stats) int64 { return s.Reconnects }},
	{"transport_retries_total", func(s Stats) int64 { return s.Retries }},
	{"transport_timeouts_total", func(s Stats) int64 { return s.Timeouts }},
	{"transport_gave_up_total", func(s Stats) int64 { return s.GaveUp }},
	{"transport_injected_faults_total", func(s Stats) int64 { return s.InjectedFaults }},
}

// RegisterStats installs live views of tr's traffic counters into reg
// under the transport_* metric names (see OBSERVABILITY.md). The
// registry gathers tr.Stats() on demand, so the transport stays the
// owner of the counters and the registry is a read-only surface over
// them. No-op when either argument is nil.
func RegisterStats(reg *obs.Registry, tr Transport) {
	if reg == nil || tr == nil {
		return
	}
	for _, m := range statsMetrics {
		get := m.get
		reg.RegisterFunc(m.name, func() float64 { return float64(get(tr.Stats())) })
	}
}

// StatsSnapshot renders st under the same transport_* metric names
// RegisterStats uses, so a plain Stats value can be compared sample for
// sample with a registry snapshot.
func StatsSnapshot(st Stats) obs.Snapshot {
	out := make(obs.Snapshot, len(statsMetrics))
	for _, m := range statsMetrics {
		out[m.name] = float64(m.get(st))
	}
	return out
}
