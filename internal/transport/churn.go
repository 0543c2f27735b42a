package transport

import (
	"flag"
	"fmt"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/planspec"
)

// Churn-decision stream tags. Disjoint from the fault tags so a
// combined (FaultPlan, ChurnPlan) scenario sharing a seed still draws
// every family from its own stream.
const (
	churnTagInitial uint64 = iota + 0x10
	churnTagLeave
	churnTagJoin
)

// ChurnPlan is the participant-dynamics sibling of FaultPlan: a
// declarative, seed-driven membership scenario. Every join, leave and
// rejoin decision is a pure function of (Seed, churn family, round,
// participant) via the same counter-based stream derivation
// (mathx.StreamSeeds) the simulators use — so a plan produces the
// identical membership trajectory regardless of backend, worker count
// or scheduling, and consumes no simulator RNG: a nil (or disabled)
// plan is byte-identical to no churn at all.
//
// Semantics are defined by Membership (the per-run fold of these
// decisions): a present participant leaves round r with LeaveProb, an
// absent one joins with JoinProb, and a joiner that has participated
// before is a rejoin — it resumes from whatever stale local state it
// held when it left (the simulators freeze absent participants'
// state). StaleBound governs the async-gossip merge rule for such
// rejoins; see gossip.Config.ChurnPlan.
type ChurnPlan struct {
	// Seed drives every churn decision stream (0 is a valid seed).
	Seed uint64
	// InitialFraction is the fraction of participants present at round
	// 0 (decided per participant from the initial-membership stream).
	// 0 means the default: everybody starts present.
	InitialFraction float64
	// LeaveProb is the per-(round, participant) probability that a
	// present participant leaves before the round runs.
	LeaveProb float64
	// JoinProb is the per-(round, participant) probability that an
	// absent participant (re)joins before the round runs.
	JoinProb float64
	// StaleBound bounds the staleness (rounds missed) a rejoining
	// gossip node may merge its own model through: a node that rejoins
	// staler than this discards its own model in favour of its
	// neighbours' (counted as a stale reset). 0 disables the bound.
	StaleBound int
	// FromRound and ToRound bound the window in which membership can
	// change: leaves/joins happen only in rounds r with FromRound <= r
	// and (ToRound == 0 or r < ToRound). Initial presence is decided
	// outside the window (it shapes round 0 regardless).
	FromRound int
	ToRound   int
}

// DefaultChurnPlan is the scenario behind the bare "default" spec:
// everyone starts present, 10% of present participants leave and 30%
// of absent ones rejoin each round, rejoins staler than 10 rounds
// reset, seed 1.
func DefaultChurnPlan() ChurnPlan {
	return ChurnPlan{
		Seed:       1,
		LeaveProb:  0.1,
		JoinProb:   0.3,
		StaleBound: 10,
	}
}

// active reports whether membership can change in the given round.
func (p ChurnPlan) active(round int) bool {
	return round >= p.FromRound && (p.ToRound == 0 || round < p.ToRound)
}

// initialFraction resolves the "0 means everybody" default.
func (p ChurnPlan) initialFraction() float64 {
	if p.InitialFraction <= 0 {
		return 1
	}
	return p.InitialFraction
}

// InitiallyPresent reports whether the participant is a member at
// round 0. Decided outside the FromRound/ToRound window: the window
// bounds membership *changes*, not the starting set.
func (p ChurnPlan) InitiallyPresent(id int) bool {
	frac := p.initialFraction()
	if frac >= 1 {
		return true
	}
	return mathx.StreamUniform(p.Seed, churnTagInitial, 0, uint64(id)) < frac
}

// Leaves reports whether a participant present entering round r leaves
// before it runs. Pure function of (Seed, round, id).
func (p ChurnPlan) Leaves(round, id int) bool {
	if p.LeaveProb <= 0 || !p.active(round) {
		return false
	}
	return mathx.StreamUniform(p.Seed, churnTagLeave, uint64(round), uint64(id)) < p.LeaveProb
}

// Joins reports whether a participant absent entering round r joins
// before it runs. Pure function of (Seed, round, id).
func (p ChurnPlan) Joins(round, id int) bool {
	if p.JoinProb <= 0 || !p.active(round) {
		return false
	}
	return mathx.StreamUniform(p.Seed, churnTagJoin, uint64(round), uint64(id)) < p.JoinProb
}

// Enabled reports whether the plan can change membership at all.
func (p ChurnPlan) Enabled() bool {
	return p.LeaveProb > 0 || p.JoinProb > 0 || p.initialFraction() < 1
}

// churnSpec declares the churn-spec keys: "default" is
// DefaultChurnPlan and "" the zero (disabled) plan.
var churnSpec = planspec.Grammar[ChurnPlan]{
	Name:    "transport: churn",
	Default: DefaultChurnPlan(),
	Bind: func(fs *flag.FlagSet, p *ChurnPlan) {
		fs.Uint64Var(&p.Seed, "seed", p.Seed, "")
		fs.Float64Var(&p.InitialFraction, "initial", p.InitialFraction, "")
		fs.Float64Var(&p.LeaveProb, "leave", p.LeaveProb, "")
		fs.Float64Var(&p.JoinProb, "join", p.JoinProb, "")
		fs.IntVar(&p.StaleBound, "stale-bound", p.StaleBound, "")
		fs.IntVar(&p.FromRound, "from", p.FromRound, "")
		fs.IntVar(&p.ToRound, "to", p.ToRound, "")
	},
}

// Validate checks the plan's probabilities and bounds.
func (p ChurnPlan) Validate() error {
	return planspec.Check("transport: churn plan",
		planspec.Prob("initial", p.InitialFraction),
		planspec.Prob("leave", p.LeaveProb),
		planspec.Prob("join", p.JoinProb),
		planspec.NonNegative("stale-bound", p.StaleBound),
		planspec.NonNegative("from", p.FromRound),
		planspec.NonNegative("to", p.ToRound))
}

// String renders the plan in the form ParseChurnPlan accepts.
func (p ChurnPlan) String() string { return churnSpec.String(p) }

// ParseChurnPlan parses a comma-separated key=value churn spec, e.g.
// "seed=5,initial=0.8,leave=0.25,join=0.5,stale-bound=2" (the keys are
// declared in churnSpec, the grammar is package planspec's). "default"
// selects DefaultChurnPlan verbatim; an empty string is the zero
// (disabled) plan. The result passes Validate.
func ParseChurnPlan(spec string) (ChurnPlan, error) { return churnSpec.Parse(spec) }

// Membership is the replayable fold of a ChurnPlan's per-round
// decisions over a fixed participant set: who is present each round,
// how stale a rejoiner's frozen state is, and the join/leave/rejoin
// accounting. The fold is pure — Advance(0..r) always yields the same
// state for the same (plan, n) — so tests can replay it to predict a
// simulator's churn counters exactly, and it draws from no RNG shared
// with the simulation.
//
// Advance must be called once per round, in round order, before the
// round's participant set is consulted.
type Membership struct {
	plan    ChurnPlan
	next    int // the next round Advance expects
	present []bool
	ever    []bool // has the participant ever been present?
	last    []int  // last round the participant was present (-1 never)
	rejoin  []int  // staleness of a rejoin in the round just advanced (0 = none/fresh)
	nAlive  int

	joins, leaves, rejoins int64
}

// NewMembership folds the plan's initial-presence decisions over n
// participants. Advance(0) applies round 0's leave/join transitions on
// top of it.
func NewMembership(plan ChurnPlan, n int) *Membership {
	m := &Membership{
		plan:    plan,
		present: make([]bool, n),
		ever:    make([]bool, n),
		last:    make([]int, n),
		rejoin:  make([]int, n),
	}
	for id := range m.present {
		m.last[id] = -1
		if plan.InitiallyPresent(id) {
			m.present[id] = true
			m.ever[id] = true
			m.nAlive++
		}
	}
	return m
}

// Advance applies round r's leave/join transitions. Rounds must be
// advanced consecutively from 0; a skipped or repeated round is a
// programming error.
func (m *Membership) Advance(round int) {
	if round != m.next {
		panic(fmt.Sprintf("transport: Membership.Advance(%d) out of order (want %d)", round, m.next))
	}
	m.next++
	for id := range m.present {
		m.rejoin[id] = 0
		if m.present[id] {
			if m.plan.Leaves(round, id) {
				m.present[id] = false
				m.nAlive--
				m.leaves++
			}
		} else if m.plan.Joins(round, id) {
			m.present[id] = true
			m.nAlive++
			m.joins++
			if m.ever[id] {
				m.rejoins++
				if m.last[id] >= 0 {
					m.rejoin[id] = round - m.last[id]
				}
			}
			m.ever[id] = true
		}
		if m.present[id] {
			m.last[id] = round
		}
	}
}

// Present reports whether the participant is a member of the round
// most recently advanced to.
func (m *Membership) Present(id int) bool { return m.present[id] }

// RejoinStaleness returns, for the round most recently advanced to,
// the number of rounds participant id missed if it rejoined this round
// after participating before — and 0 otherwise (still present, still
// absent, or a first-time joiner with no stale state).
func (m *Membership) RejoinStaleness(id int) int { return m.rejoin[id] }

// NumPresent returns the size of the current membership.
func (m *Membership) NumPresent() int { return m.nAlive }

// AppendPresent appends the current members in ascending id order.
func (m *Membership) AppendPresent(dst []int) []int {
	for id := range m.present {
		if m.present[id] {
			dst = append(dst, id)
		}
	}
	return dst
}

// Joins, Leaves and Rejoins return the accumulated transition counts
// (a rejoin is also counted as a join).
func (m *Membership) Joins() int64   { return m.joins }
func (m *Membership) Leaves() int64  { return m.leaves }
func (m *Membership) Rejoins() int64 { return m.rejoins }
