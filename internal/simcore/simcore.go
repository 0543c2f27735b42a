// Package simcore is the deployment frame that the FedAvg simulator
// (internal/fed, §III-B) and the gossip simulator (internal/gossip,
// §III-C) share around their protocols: the shared Config fields with
// their checks and defaults, worker resolution, the churn membership
// fold, the utility-evaluation engine and its sweep, the Byzantine
// wiring, and the one table of resilience counters (Counters).
//
// Order of checks and defaults: a simulator's New calls New here
// first, which checks the shared fields in the order Dataset, Factory,
// Rounds, FaultPlan, ChurnPlan, Byzantine and then defaults Policy and
// Transport. The simulator then defaults its own fields and checks
// them on the defaulted values. Every error carries the simulator's
// prefix ("fed:" or "gossip:") and names the field it rejects.
package simcore

import (
	"fmt"
	"sync/atomic"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/parx"
	"github.com/collablearn/ciarec/internal/transport"
)

// Protocol names a simulator. Counters uses it as an ownership mask.
type Protocol uint8

const (
	Fed Protocol = 1 << iota
	Gossip
)

// String is the simulator's package name, the prefix of its errors.
func (p Protocol) String() string {
	if p == Fed {
		return "fed"
	}
	return "gossip"
}

// Counter indexes Counters.
type Counter int

const (
	Blackouts Counter = iota
	DeliverFailures
	UploadFailures
	Stragglers
	QuorumMisses
	LostPushes
	SkippedPeers
	AbsentSkips
	Joins
	Leaves
	Rejoins
	StaleResets
	ByzantineUploads
	ByzantinePushes
	ClippedUploads
	NumCounters
)

// Counters declares every resilience counter once: its registry metric
// name and the simulators that count it. A simulator registers its
// counters in table order, and its Resilience struct has one field per
// counter in the same order.
var Counters = [NumCounters]struct {
	Metric string
	Owners Protocol
}{
	Blackouts:        {"resilience_blackouts", Fed},           // broadcast failed: nobody trained
	DeliverFailures:  {"resilience_deliver_failures", Fed},    // client never got the model: skipped
	UploadFailures:   {"resilience_upload_failures", Fed},     // upload lost in transit: never seen
	Stragglers:       {"resilience_stragglers", Fed},          // late upload: observed, not aggregated
	QuorumMisses:     {"resilience_quorum_misses", Fed},       // too few timely uploads: model kept
	LostPushes:       {"resilience_lost_pushes", Gossip},      // push lost in transit
	SkippedPeers:     {"resilience_skipped_peers", Gossip},    // receiver unreachable under the FaultPlan
	AbsentSkips:      {"resilience_absent_skips", Gossip},     // receiver absent under the ChurnPlan
	Joins:            {"resilience_joins", Fed | Gossip},      // ChurnPlan joins, rejoins included
	Leaves:           {"resilience_leaves", Fed | Gossip},     // ChurnPlan leaves
	Rejoins:          {"resilience_rejoins", Fed | Gossip},    // returns after participating before
	StaleResets:      {"resilience_stale_resets", Gossip},     // rejoiner past StaleBound: inbox replaced it
	ByzantineUploads: {"resilience_byzantine_uploads", Fed},   // corrupted before sending
	ByzantinePushes:  {"resilience_byzantine_pushes", Gossip}, // corrupted before sending
	ClippedUploads:   {"resilience_clipped_uploads", Fed},     // delta scaled down to ClipNorm
}

// Owned lists p's counters in table order.
func (p Protocol) Owned() []Counter {
	var owned []Counter
	for k, c := range Counters {
		if c.Owners&p != 0 {
			owned = append(owned, Counter(k))
		}
	}
	return owned
}

// Counts is a snapshot of every counter, indexed by Counter. Counters
// the simulator does not own stay zero.
type Counts [NumCounters]int64

// Config holds the fields fed.Config and gossip.Config share; the
// simulators copy them in.
type Config struct {
	Dataset *dataset.Dataset // required
	Factory model.Factory    // required; its models must match Dataset's shape
	// Policy is the defense every outgoing payload goes through
	// (default defense.FullSharing).
	Policy defense.Policy
	Rounds int // required, > 0
	// Workers bounds the goroutines running per-participant work and
	// the UtilityHR/UtilityF1 sweeps; never more than the users. 0
	// defaults to runtime.NumCPU(); negative forces serial execution.
	// Results are byte-identical whatever the worker count: every
	// participant owns its RNG stream and state, and utility evaluation
	// derives one counter-based stream per (seed, round, user).
	Workers int
	// Transport carries all parameter traffic through its payload codec
	// (dense by default; transport.Options.Compression selects CPQ1).
	// nil defaults to a fresh dense transport.Inproc. Every backend
	// (inproc, wire, socket) gives byte-identical results, which each
	// simulator's TestReplay enforces. The caller keeps ownership, and
	// since a transport accumulates traffic stats, one serves one
	// simulation.
	Transport transport.Transport
	// FaultPlan is the declarative failure scenario the simulator
	// consults for the protocol decisions the transport cannot make.
	// Transit loss flows through the transport: wrap it in
	// transport.NewFaulty with the same plan (or use the "faulty:"
	// backend prefix). nil disables the simulator's checks.
	FaultPlan *transport.FaultPlan
	// ChurnPlan drives deterministic churn: each round, present
	// participants leave and absent ones (re)join as pure functions of
	// (plan seed, round, participant), consuming no simulator RNG. nil
	// (or a disabled plan) is byte-identical to no churn at all.
	ChurnPlan *transport.ChurnPlan
	// Byzantine, when non-nil with Fraction > 0, makes a deterministic
	// subset of participants corrupt what they send (see
	// attack.Byzantine): after the policy builds the payload and before
	// the transport, so an observer sees the traffic as sent.
	Byzantine *attack.Byzantine
	// Tracer optionally records phase spans. Results are byte-identical
	// either way: the tracer is write-only from the simulation's point
	// of view (the obsleak analyzer enforces it).
	Tracer *obs.Tracer
	Seed   uint64
}

// validate checks the shared fields in the package doc's order.
func (c *Config) validate(p Protocol) error {
	if c.Dataset == nil {
		return fmt.Errorf("%s: Config.Dataset is required", p)
	}
	if c.Factory == nil {
		return fmt.Errorf("%s: Config.Factory is required", p)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("%s: Config.Rounds must be positive, got %d", p, c.Rounds)
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.Validate(); err != nil {
			return fmt.Errorf("%s: Config.FaultPlan: %w", p, err)
		}
	}
	if c.ChurnPlan != nil {
		if err := c.ChurnPlan.Validate(); err != nil {
			return fmt.Errorf("%s: Config.ChurnPlan: %w", p, err)
		}
	}
	if c.Byzantine != nil {
		if err := c.Byzantine.Validate(); err != nil {
			return fmt.Errorf("%s: Config.Byzantine: %w", p, err)
		}
	}
	return nil
}

// Core is one simulation's shared frame: the checked Config with
// Policy and Transport defaulted and Workers resolved (the simulators
// record their sequential phases on tracer ring Workers). Its counters
// are atomic: any goroutine may Add, and a registry view may read them
// mid-round.
type Core struct {
	Config
	proto Protocol
	Eval  *model.Eval
	// Membership is the churn membership fold, nil unless the ChurnPlan
	// is enabled. It consumes no simulator RNG, so building it (or not)
	// leaves every other stream untouched.
	Membership *transport.Membership
	Pool       param.Buffers // payload free-list

	counts [NumCounters]atomic.Int64
}

// New checks cfg's shared fields, applies the shared defaults and
// builds the frame of a p simulation.
func New(p Protocol, cfg Config) (*Core, error) {
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	c := &Core{Config: cfg, proto: p}
	c.Workers = min(parx.Workers(cfg.Workers), cfg.Dataset.NumUsers)
	if c.Policy == nil {
		c.Policy = defense.FullSharing{}
	}
	if c.Transport == nil {
		c.Transport = transport.NewInproc()
	}
	// The historical shared evalRng's seed, now feeding per-(round, user)
	// counter-derived streams.
	c.Eval = model.NewEval(cfg.Dataset, c.Workers, cfg.Seed^0xabcdef)
	if cfg.ChurnPlan != nil && cfg.ChurnPlan.Enabled() {
		c.Membership = transport.NewMembership(*cfg.ChurnPlan, cfg.Dataset.NumUsers)
	}
	return c, nil
}

// Advance applies round's churn transitions (pure plan functions: no
// simulator RNG is consumed) and copies the membership's tallies into
// the Joins, Leaves and Rejoins counters.
func (c *Core) Advance(round int) {
	if m := c.Membership; m != nil {
		m.Advance(round)
		c.counts[Joins].Store(m.Joins())
		c.counts[Leaves].Store(m.Leaves())
		c.counts[Rejoins].Store(m.Rejoins())
	}
}

// Present reports whether participant u takes part in the current
// round (always, without churn).
func (c *Core) Present(u int) bool {
	return c.Membership == nil || c.Membership.Present(u)
}

// NeedsSnapshot reports whether anything reads participant u's
// pre-training snapshot: the policy (Share-less drift, DP delta
// baselines) or, for an adversary, its echo reference. The simulators
// copy the snapshot only then.
func (c *Core) NeedsSnapshot(u int) bool {
	return c.Policy.ReadsSnapshot() || c.Byzantine != nil && c.Byzantine.IsAdversary(u)
}

// Corrupt corrupts adversary u's outgoing payload in place, against the
// reference ref, and counts it (ByzantineUploads under fed,
// ByzantinePushes under gossip). No-op for an honest participant. The
// corruption draws only counter-based streams, so it consumes no
// simulator RNG.
func (c *Core) Corrupt(round, u int, payload, ref *param.Set) {
	if c.Byzantine == nil || !c.Byzantine.IsAdversary(u) {
		return
	}
	c.Byzantine.Corrupt(round, u, payload, ref)
	if c.proto == Fed {
		c.Add(ByzantineUploads)
	} else {
		c.Add(ByzantinePushes)
	}
}

// Add counts one event of k.
func (c *Core) Add(k Counter) { c.counts[k].Add(1) }

// Counts returns every counter's current value.
func (c *Core) Counts() Counts {
	var out Counts
	for k := range out {
		out[k] = c.counts[k].Load()
	}
	return out
}

// UtilityHR runs the engine's hit-ratio sweep at round under an eval
// span. pick(w, u) is the model worker w evaluates user u with.
func (c *Core) UtilityHR(round int, pick func(w, u int) model.Recommender, k, numNeg int) float64 {
	start := c.Tracer.Start()
	hr := c.Eval.HR(round, pick, k, numNeg)
	c.Tracer.Span(c.Workers, obs.PhaseEval, round, obs.RoundLevel, start)
	return hr
}

// UtilityF1 runs the engine's top-k F1 sweep under an eval span.
func (c *Core) UtilityF1(round int, pick func(w, u int) model.Recommender, k int) float64 {
	start := c.Tracer.Start()
	f1 := c.Eval.F1(pick, k)
	c.Tracer.Span(c.Workers, obs.PhaseEval, round, obs.RoundLevel, start)
	return f1
}

// RegisterMetrics installs live views of the simulation's counters
// into reg: the transport's transport_* traffic counters, the
// simulator's resilience_* counters in table order, the parameter
// pool's hit/miss counts and — when the simulation is traced — the
// tracer's span volume. The registry only ever reads; the simulation
// stays the owner of every counter. No-op on a nil registry.
func (c *Core) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	transport.RegisterStats(reg, c.Transport)
	for _, k := range c.proto.Owned() {
		reg.RegisterFunc(Counters[k].Metric, func() float64 { return float64(c.counts[k].Load()) })
	}
	reg.RegisterFunc("param_pool_hits_total", func() float64 {
		h, _ := c.Pool.Stats()
		return float64(h)
	})
	reg.RegisterFunc("param_pool_misses_total", func() float64 {
		_, m := c.Pool.Stats()
		return float64(m)
	})
	reg.RegisterTracer(c.Tracer)
}
