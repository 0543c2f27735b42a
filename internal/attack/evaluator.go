package attack

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// RecommenderEval is the Evaluator used against recommendation models.
// It installs observed parameter payloads into a scratch model and
// computes the relevance score Ŷ(Θ_u, V_target).
//
// Two modes:
//
//   - full-model mode (the default): the sender's own user-embedding
//     row inside the observed model is used, matching §IV-B;
//   - fictive-user mode (Share-less adaptation, §IV-C): observed
//     payloads carry no user embeddings, so relevance is computed with
//     the adversary's fictive user embedding e_A fitted per target on
//     a fabricated interaction matrix R_A.
//
// Fork makes a worker evaluator: CIA scores senders in parallel on an
// evaluator and its forks, and a fictive-user refit spreads its fits
// over the same group.
type RecommenderEval struct {
	scratch model.Recommender
	// batch is scratch's batched relevance, nil when scratch does not
	// implement model.TargetRelevancer.
	batch   model.TargetRelevancer
	targets [][]int
	// fictive[t] is e_A for target t; nil selects full-model mode. An
	// evaluator and its forks share the table's backing array.
	fictive [][]float64
	group   *evalGroup

	// Full-model mode loads lazily: src[i] is the loaded state's data
	// for scratch entry i (nil when the state lacks the entry). Score
	// copies only the rows Relevance reads, as scopes says, and
	// ScoreTargets copies everything.
	src    [][]float64
	scopes []rowScope
}

// rowScope is the part of one scratch entry that Relevance(sender,
// target) reads.
type rowScope uint8

const (
	// scopeWhole: the entry is read whole (shared weights, biases).
	scopeWhole rowScope = iota
	// scopeSender: only the sender's row (a PrivateEntries entry).
	scopeSender
	// scopeTarget: only the target's item rows (an ItemEntries entry).
	scopeTarget
)

// entryScopes classifies every entry of m's parameter set.
func entryScopes(m model.Recommender) []rowScope {
	ps := m.Params()
	scopes := make([]rowScope, ps.Len())
	for i := range scopes {
		name := ps.At(i).Name
		switch {
		case slices.Contains(m.PrivateEntries(), name):
			scopes[i] = scopeSender
		case slices.Contains(m.ItemEntries(), name):
			scopes[i] = scopeTarget
		}
	}
	return scopes
}

// evalGroup is an evaluator and its forks: the evaluators a fictive
// refit loads and fits on.
type evalGroup struct {
	// members holds the original evaluator, then its forks in creation
	// order.
	members []*RecommenderEval
	// plans[t] is target t's fictive-fit plan, reused by every refit
	// (nil in full-model mode).
	plans []model.FictivePlan
	// ready carries a refit's targets to its fitters, each once its plan
	// is drawn, then one -1 per fitter; see queue. fitting waits for the
	// fitters on other goroutines.
	ready   chan int
	fitting sync.WaitGroup
}

// queue returns ready, grown to buffer n sends: every send of a refit,
// so that planning never waits for a fitter.
func (g *evalGroup) queue(n int) chan int {
	if cap(g.ready) < n {
		g.ready = make(chan int, n)
	}
	return g.ready
}

var (
	_ Evaluator    = (*RecommenderEval)(nil)
	_ targetScorer = (*RecommenderEval)(nil)
	_ forker       = (*RecommenderEval)(nil)
)

// NewRecommenderEval builds a full-model evaluator. scratch must be a
// dedicated model instance (its parameters are overwritten on Load).
func NewRecommenderEval(scratch model.Recommender, targets [][]int) *RecommenderEval {
	if len(targets) == 0 {
		panic("attack: NewRecommenderEval requires at least one target")
	}
	ev := &RecommenderEval{scratch: scratch, targets: targets, group: &evalGroup{}, scopes: entryScopes(scratch)}
	ev.batch, _ = scratch.(model.TargetRelevancer)
	ev.group.members = []*RecommenderEval{ev}
	return ev
}

// NewShareLessEval builds a fictive-user evaluator for the Share-less
// setting. Call RefreshFictive before the first Score (and whenever
// the adversary wants to re-fit e_A against fresher item embeddings).
func NewShareLessEval(scratch model.Recommender, targets [][]int) *RecommenderEval {
	ev := NewRecommenderEval(scratch, targets)
	ev.fictive = make([][]float64, len(targets))
	ev.group.plans = make([]model.FictivePlan, len(targets))
	return ev
}

// Fork returns a worker evaluator for e's group: a clone of the scratch
// model, the same targets and the same fictive table, so a refit
// through any member is seen by all of them. A fork has its own scratch
// and may be used concurrently with e; creating forks may not.
func (e *RecommenderEval) Fork() Evaluator {
	f := &RecommenderEval{scratch: e.scratch.Clone(), targets: e.targets, fictive: e.fictive, group: e.group, scopes: e.scopes}
	f.batch, _ = f.scratch.(model.TargetRelevancer)
	e.group.members = append(e.group.members, f)
	return f
}

// ShareLess reports whether the evaluator is in fictive-user mode.
func (e *RecommenderEval) ShareLess() bool { return e.fictive != nil }

// NumTargets implements Evaluator.
func (e *RecommenderEval) NumTargets() int { return len(e.targets) }

// Target returns the item set of target t.
func (e *RecommenderEval) Target(t int) []int { return e.targets[t] }

// Load implements Evaluator: installs the payload into the scratch
// model. Partial payloads (Share-less) overwrite only the entries they
// carry; the remaining scratch entries keep their previous values,
// which is irrelevant for scoring because fictive-user mode never
// reads them.
//
// In full-model mode Load only records state: each Score copies in the
// rows its Relevance call reads (the sender's row of every private
// entry, the target's rows of every item entry, every other entry
// whole), and ScoreTargets copies the whole state. state must
// therefore not change until the last Score or ScoreTargets call that
// follows the Load.
func (e *RecommenderEval) Load(state *param.Set) {
	sp := e.scratch.Params()
	if e.fictive != nil {
		if sp.CopyShared(state) == 0 {
			panic("attack: payload shares no entries with the scratch model")
		}
		return
	}
	e.src = slices.Grow(e.src[:0], sp.Len())[:sp.Len()]
	shared := 0
	for i := range e.src {
		dst := sp.At(i)
		e.src[i] = nil
		if !state.Has(dst.Name) {
			continue
		}
		src := state.Entry(dst.Name)
		if src.Rows != dst.Rows || src.Cols != dst.Cols {
			panic(fmt.Sprintf("attack: payload entry %q is %dx%d, scratch %dx%d", dst.Name, src.Rows, src.Cols, dst.Rows, dst.Cols))
		}
		e.src[i] = src.Data
		shared++
	}
	if shared == 0 {
		panic("attack: payload shares no entries with the scratch model")
	}
}

// loadRows copies into the scratch model the rows of the loaded state
// that Relevance(sender, e.targets[t]) reads.
func (e *RecommenderEval) loadRows(sender, t int) {
	sp := e.scratch.Params()
	for i, src := range e.src {
		if src == nil {
			continue
		}
		dst := sp.At(i)
		switch e.scopes[i] {
		case scopeSender:
			lo := sender * dst.Cols
			copy(dst.Data[lo:lo+dst.Cols], src[lo:lo+dst.Cols])
		case scopeTarget:
			for _, it := range e.targets[t] {
				lo := it * dst.Cols
				copy(dst.Data[lo:lo+dst.Cols], src[lo:lo+dst.Cols])
			}
		default:
			copy(dst.Data, src)
		}
	}
}

// loadAll copies the whole loaded state into the scratch model.
func (e *RecommenderEval) loadAll() {
	sp := e.scratch.Params()
	for i, src := range e.src {
		if src != nil {
			copy(sp.At(i).Data, src)
		}
	}
}

// Score implements Evaluator.
func (e *RecommenderEval) Score(sender, t int) float64 {
	if e.fictive == nil {
		e.loadRows(sender, t)
		return e.scratch.Relevance(sender, e.targets[t])
	}
	vec := e.fictive[t]
	if vec == nil {
		panic(fmt.Sprintf("attack: fictive user for target %d not fitted; call RefreshFictive", t))
	}
	return e.scratch.RelevanceWithUserVec(vec, e.targets[t])
}

// ScoreTargets writes Score(sender, t) for every registered target into
// dst (len(dst) == NumTargets()), bit for bit — the batched path CIA
// prefers. In full-model mode on a model.TargetRelevancer scratch it
// is one RelevanceTargets call, a single catalogue sweep when the
// targets cover the catalogue. Otherwise targets are scored one by one:
// in fictive-user mode every target has its own e_A, and a scratch
// without the batched method (a decorated model) is scored through its
// own Relevance. Full-model mode copies the whole loaded state first.
func (e *RecommenderEval) ScoreTargets(sender int, dst []float64) {
	if e.fictive != nil {
		for t := range e.targets {
			dst[t] = e.Score(sender, t)
		}
		return
	}
	e.loadAll()
	if e.batch != nil {
		e.batch.RelevanceTargets(sender, e.targets, dst)
		return
	}
	for t, target := range e.targets {
		dst[t] = e.scratch.Relevance(sender, target)
	}
}

// RefreshFictive fits the fictive user embedding e_A for every target
// against the item embeddings in state (§IV-C): the adversary builds a
// fabricated interaction matrix R_A containing exactly the target
// items and trains a user embedding on it, holding everything else
// fixed. epochs controls the fit length (the paper's adversary is
// cheap; a handful of epochs suffices).
//
// Every target's draws are planned from r in target order on the
// caller's goroutine, so the result does not depend on the group size.
// Meanwhile the group's other members fit, each on its own goroutine
// and scratch model loaded with state, taking each target as soon as
// its plan is drawn. e joins them once the last plan is drawn.
func (e *RecommenderEval) RefreshFictive(state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictive on a full-model evaluator")
	}
	g := e.group
	ready := g.queue(len(e.targets) + len(g.members))
	e.Load(state)
	helpers := 0
	for _, m := range g.members {
		if helpers+1 >= len(e.targets) {
			break
		}
		if m == e {
			continue
		}
		helpers++
		m.Load(state)
		g.fitting.Add(1)
		go func() {
			defer g.fitting.Done()
			m.scratch.FitFictiveUsers(g.plans, e.fictive, ready)
		}()
	}
	drawn := false
	defer func() {
		if !drawn {
			// Planning panicked: stop the helpers before it unwinds.
			for range helpers {
				ready <- -1
			}
			g.fitting.Wait()
		}
	}()
	opt := model.TrainOptions{Epochs: epochs, Rand: r}
	for t, target := range e.targets {
		e.scratch.PlanFictiveUser(target, opt, &g.plans[t])
		ready <- t
	}
	drawn = true
	for range helpers + 1 {
		ready <- -1
	}
	e.scratch.FitFictiveUsers(g.plans, e.fictive, ready)
	g.fitting.Wait()
}

// RefreshFictiveOne re-fits the fictive user for a single target
// against the item embeddings in state, on this evaluator alone, as a
// batch of one. Gossip adversaries use this: each adversary placement
// refreshes only its own target against its own node's parameters.
func (e *RecommenderEval) RefreshFictiveOne(t int, state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictiveOne on a full-model evaluator")
	}
	e.Load(state)
	g := e.group
	ready := g.queue(2)
	e.scratch.PlanFictiveUser(e.targets[t], model.TrainOptions{Epochs: epochs, Rand: r}, &g.plans[t])
	ready <- t
	ready <- -1
	e.scratch.FitFictiveUsers(g.plans, e.fictive, ready)
}

// Fictive returns target t's fictive user e_A: nil in full-model mode
// and before the first refit. Callers must not mutate it.
func (e *RecommenderEval) Fictive(t int) []float64 {
	if e.fictive == nil {
		return nil
	}
	return e.fictive[t]
}

// SetFictive installs the same explicit user vector as every target's
// fictive embedding (ablation baselines use a zero vector here). The
// slice is copied.
func (e *RecommenderEval) SetFictive(vec []float64) {
	if e.fictive == nil {
		panic("attack: SetFictive on a full-model evaluator")
	}
	for t := range e.fictive {
		e.fictive[t] = append([]float64(nil), vec...)
	}
}
