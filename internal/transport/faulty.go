package transport

import (
	"errors"
	"flag"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/planspec"
)

// ErrInjected tags transfer failures manufactured by the Faulty
// wrapper, so tests and simulators can distinguish injected chaos from
// a genuinely unreachable backend.
var ErrInjected = errors.New("transport: injected fault")

// Fault-decision stream tags. Each fault family draws from its own
// counter-based stream so enabling one probability never shifts
// another family's decisions.
const (
	faultTagDrop uint64 = iota + 1
	faultTagSendLoss
	faultTagDeliverLoss
	faultTagBcast
	faultTagSlow
)

// FaultPlan is a declarative, seed-driven failure scenario. Every
// decision — is participant p unreachable in round r, is this send
// lost, how slow is this client — is a pure function of (Seed, fault
// family, round, participant), computed with the same counter-based
// stream derivation (mathx.StreamSeeds) the simulators use for their
// own randomness. A plan therefore injects the identical fault
// schedule regardless of backend, worker count, or scheduling, and a
// (seed, plan) pair reproduces a chaos run exactly.
//
// Latencies are virtual by default: Latency reports how slow a
// participant is this round, and the simulators compare it against
// their straggler deadline as a logical quantity — no wall-clock
// sleeping, so chaos suites run at full speed and stay deterministic.
// RealSleep additionally burns the latency as wall time inside the
// wrapper, for exercising real deadline expiry.
type FaultPlan struct {
	// Seed drives every fault decision stream (0 is a valid seed).
	Seed uint64
	// DropProb is the per-(round, participant) probability of a full
	// blackout: every send from and every broadcast delivery to the
	// participant fails that round.
	DropProb float64
	// SendLossProb and DeliverLossProb independently lose individual
	// point-to-point sends (keyed by sender) and broadcast deliveries
	// (keyed by receiver) on top of blackouts.
	SendLossProb    float64
	DeliverLossProb float64
	// BroadcastFailProb fails OpenBroadcast for a whole round — on fed,
	// a blackout round where no client receives the global model.
	BroadcastFailProb float64
	// SlowProb marks a (round, participant) as a straggler; its Latency
	// is BaseLatency + SlowLatency instead of BaseLatency.
	SlowProb    float64
	BaseLatency time.Duration
	SlowLatency time.Duration
	// FromRound and ToRound bound the active window: faults inject only
	// in rounds r with FromRound <= r and (ToRound == 0 or r < ToRound).
	FromRound int
	ToRound   int
	// RealSleep burns Latency as wall-clock sleep inside the wrapper's
	// Send/Deliver, in addition to reporting it virtually.
	RealSleep bool
}

// DefaultFaultPlan is the scenario behind the bare "faulty:" prefix:
// moderate blackout, loss and straggler rates from seed 1, active in
// every round, virtual latency only.
func DefaultFaultPlan() FaultPlan {
	return FaultPlan{
		Seed:            1,
		DropProb:        0.05,
		SendLossProb:    0.05,
		DeliverLossProb: 0.05,
		SlowProb:        0.1,
		SlowLatency:     500 * time.Millisecond,
	}
}

// active reports whether the plan injects faults in the given round.
func (p FaultPlan) active(round int) bool {
	return round >= p.FromRound && (p.ToRound == 0 || round < p.ToRound)
}

// draw is the shared Bernoulli decision: a pure function of (Seed,
// tag, round, id) with probability prob.
func (p FaultPlan) draw(tag uint64, round, id int, prob float64) bool {
	if prob <= 0 || !p.active(round) {
		return false
	}
	return mathx.StreamUniform(p.Seed, tag, uint64(round), uint64(id)) < prob
}

// Unreachable reports whether the participant is blacked out for the
// whole round (sends from it and deliveries to it all fail).
func (p FaultPlan) Unreachable(round, id int) bool {
	return p.draw(faultTagDrop, round, id, p.DropProb)
}

// SendLost reports whether the sender's point-to-point message in this
// round is lost (independently of blackouts).
func (p FaultPlan) SendLost(round, from int) bool {
	return p.draw(faultTagSendLoss, round, from, p.SendLossProb)
}

// DeliverLost reports whether the receiver's broadcast download in
// this round is lost (independently of blackouts).
func (p FaultPlan) DeliverLost(round, to int) bool {
	return p.draw(faultTagDeliverLoss, round, to, p.DeliverLossProb)
}

// BroadcastFails reports whether the round's broadcast open fails
// outright.
func (p FaultPlan) BroadcastFails(round int) bool {
	return p.draw(faultTagBcast, round, 0, p.BroadcastFailProb)
}

// Slow reports whether the participant is a straggler this round.
func (p FaultPlan) Slow(round, id int) bool {
	return p.draw(faultTagSlow, round, id, p.SlowProb)
}

// Latency returns the participant's virtual latency for the round:
// BaseLatency, plus SlowLatency when Slow. Simulators compare it
// against their straggler deadline as a logical quantity.
func (p FaultPlan) Latency(round, id int) time.Duration {
	d := p.BaseLatency
	if p.Slow(round, id) {
		d += p.SlowLatency
	}
	return d
}

// Enabled reports whether the plan can inject anything at all.
func (p FaultPlan) Enabled() bool {
	return p.DropProb > 0 || p.SendLossProb > 0 || p.DeliverLossProb > 0 ||
		p.BroadcastFailProb > 0 || p.SlowProb > 0 || p.BaseLatency > 0
}

// faultSpec declares the fault-spec keys: "real-sleep" is boolean,
// "default" is DefaultFaultPlan and "" the zero (inactive) plan.
var faultSpec = planspec.Grammar[FaultPlan]{
	Name:    "transport: fault",
	Default: DefaultFaultPlan(),
	Bind: func(fs *flag.FlagSet, p *FaultPlan) {
		fs.Uint64Var(&p.Seed, "seed", p.Seed, "")
		fs.Float64Var(&p.DropProb, "drop", p.DropProb, "")
		fs.Float64Var(&p.SendLossProb, "send-loss", p.SendLossProb, "")
		fs.Float64Var(&p.DeliverLossProb, "deliver-loss", p.DeliverLossProb, "")
		fs.Float64Var(&p.BroadcastFailProb, "bcast-fail", p.BroadcastFailProb, "")
		fs.Float64Var(&p.SlowProb, "slow", p.SlowProb, "")
		fs.DurationVar(&p.BaseLatency, "base-latency", p.BaseLatency, "")
		fs.DurationVar(&p.SlowLatency, "slow-latency", p.SlowLatency, "")
		fs.IntVar(&p.FromRound, "from", p.FromRound, "")
		fs.IntVar(&p.ToRound, "to", p.ToRound, "")
		fs.BoolVar(&p.RealSleep, "real-sleep", p.RealSleep, "")
	},
}

// Validate checks that the probabilities lie in [0, 1] and that the
// latencies and the round window are non-negative.
func (p FaultPlan) Validate() error {
	return planspec.Check("transport: fault plan",
		planspec.Prob("drop", p.DropProb),
		planspec.Prob("send-loss", p.SendLossProb),
		planspec.Prob("deliver-loss", p.DeliverLossProb),
		planspec.Prob("bcast-fail", p.BroadcastFailProb),
		planspec.Prob("slow", p.SlowProb),
		planspec.NonNegative("base-latency", p.BaseLatency),
		planspec.NonNegative("slow-latency", p.SlowLatency),
		planspec.NonNegative("from", p.FromRound),
		planspec.NonNegative("to", p.ToRound))
}

// String renders the plan in the form ParseFaultPlan accepts.
func (p FaultPlan) String() string { return faultSpec.String(p) }

// ParseFaultPlan parses a comma-separated key=value fault spec, e.g.
// "seed=7,drop=0.1,slow=0.2,slow-latency=1s,from=2,to=8" (the keys are
// declared in faultSpec, the grammar is package planspec's). The bare
// flag "real-sleep" takes no value; "default" selects DefaultFaultPlan
// verbatim. An empty string is the zero (inactive) plan. The result
// passes Validate.
func ParseFaultPlan(spec string) (FaultPlan, error) { return faultSpec.Parse(spec) }

// Faulty injects a FaultPlan's failures in front of any inner
// transport: lost sends and deliveries surface as transfer errors
// (wrapping ErrInjected) before the inner backend is touched, so the
// same chaos schedule applies identically over inproc, wire and
// socket. Successful transfers delegate unchanged — a faulty run's
// surviving traffic is still byte-identical across backends.
type Faulty struct {
	inner    Transport
	plan     FaultPlan
	injected atomic.Int64
}

var _ Transport = (*Faulty)(nil)

// NewFaulty wraps inner with plan-driven fault injection.
func NewFaulty(inner Transport, plan FaultPlan) *Faulty {
	return &Faulty{inner: inner, plan: plan}
}

// Plan returns the wrapper's fault plan.
func (t *Faulty) Plan() FaultPlan { return t.plan }

// Inner returns the wrapped transport.
func (t *Faulty) Inner() Transport { return t.inner }

// Name implements Transport.
func (t *Faulty) Name() string { return FaultyPrefix + t.inner.Name() }

// Compression implements Transport, reporting the inner backend's
// payload codec (the wrapper injects losses, not bytes).
func (t *Faulty) Compression() param.Compression { return t.inner.Compression() }

// Stats implements Transport: the inner backend's traffic plus the
// injected-fault count (lost transfers are not counted as traffic —
// they never reached the inner backend).
func (t *Faulty) Stats() Stats {
	st := t.inner.Stats()
	st.InjectedFaults = t.injected.Load()
	return st
}

// Close implements Transport, closing the inner backend.
func (t *Faulty) Close() error { return t.inner.Close() }

// inject counts one manufactured failure and builds its error.
func (t *Faulty) inject(what string, round, id int) error {
	t.injected.Add(1)
	return fmt.Errorf("transport: %w: %s round %d participant %d", ErrInjected, what, round, id)
}

// Send implements Transport: the message is lost when the sender is
// blacked out or the plan loses this send; otherwise it delegates.
// Either way the payload is consumed.
func (t *Faulty) Send(round, from int, payload *param.Set, pool *param.Buffers) (*param.Set, error) {
	if t.plan.RealSleep {
		if d := t.plan.Latency(round, from); d > 0 {
			time.Sleep(d)
		}
	}
	if t.plan.Unreachable(round, from) {
		pool.Put(payload)
		return nil, t.inject("send from unreachable participant", round, from)
	}
	if t.plan.SendLost(round, from) {
		pool.Put(payload)
		return nil, t.inject("send lost", round, from)
	}
	return t.inner.Send(round, from, payload, pool)
}

// OpenBroadcast implements Transport: a failed round opens nothing;
// otherwise deliveries are filtered per receiver.
func (t *Faulty) OpenBroadcast(round int, src *param.Set) (Broadcast, error) {
	if t.plan.BroadcastFails(round) {
		return nil, t.inject("broadcast open failed", round, 0)
	}
	inner, err := t.inner.OpenBroadcast(round, src)
	if err != nil {
		return nil, err
	}
	return &faultyBroadcast{t: t, round: round, inner: inner}, nil
}

type faultyBroadcast struct {
	t     *Faulty
	round int
	inner Broadcast
}

// Deliver fails when the receiver is blacked out or the plan loses
// this delivery; otherwise it delegates.
func (b *faultyBroadcast) Deliver(to int, dst *param.Set) error {
	if b.t.plan.RealSleep {
		if d := b.t.plan.Latency(b.round, to); d > 0 {
			time.Sleep(d)
		}
	}
	if b.t.plan.Unreachable(b.round, to) {
		return b.t.inject("delivery to unreachable participant", b.round, to)
	}
	if b.t.plan.DeliverLost(b.round, to) {
		return b.t.inject("delivery lost", b.round, to)
	}
	return b.inner.Deliver(to, dst)
}

func (b *faultyBroadcast) Close() { b.inner.Close() }
