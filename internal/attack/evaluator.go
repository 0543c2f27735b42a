package attack

import (
	"fmt"
	"math/rand/v2"

	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/parx"
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
	ev := &RecommenderEval{scratch: scratch, targets: targets, group: &evalGroup{}}
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
	f := &RecommenderEval{scratch: e.scratch.Clone(), targets: e.targets, fictive: e.fictive, group: e.group}
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
func (e *RecommenderEval) Load(state *param.Set) {
	if e.scratch.Params().CopyShared(state) == 0 {
		panic("attack: payload shares no entries with the scratch model")
	}
}

// Score implements Evaluator.
func (e *RecommenderEval) Score(sender, t int) float64 {
	if e.fictive == nil {
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
// own Relevance.
func (e *RecommenderEval) ScoreTargets(sender int, dst []float64) {
	if e.fictive == nil && e.batch != nil {
		e.batch.RelevanceTargets(sender, e.targets, dst)
		return
	}
	for t := range e.targets {
		dst[t] = e.Score(sender, t)
	}
}

// RefreshFictive fits the fictive user embedding e_A for every target
// against the item embeddings in state (§IV-C): the adversary builds a
// fabricated interaction matrix R_A containing exactly the target
// items and trains a user embedding on it, holding everything else
// fixed. epochs controls the fit length (the paper's adversary is
// cheap; a handful of epochs suffices).
//
// Every target's draws are planned from r in target order, so the
// result does not depend on the group size; the fits then run in
// parallel, one group member per worker, each on its own scratch model
// loaded with state.
func (e *RecommenderEval) RefreshFictive(state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictive on a full-model evaluator")
	}
	plans := e.group.plans
	opt := model.TrainOptions{Epochs: epochs, Rand: r}
	for t, target := range e.targets {
		e.scratch.PlanFictiveUser(target, opt, &plans[t])
	}
	members := e.group.members[:min(len(e.group.members), len(e.targets))]
	for _, m := range members {
		m.Load(state)
	}
	opt.Rand = nil
	parx.ForEach(len(members), len(e.targets), func(w, t int) {
		e.fictive[t] = members[w].scratch.FitFictiveUser(e.targets[t], &plans[t], opt)
	})
}

// RefreshFictiveOne re-fits the fictive user for a single target
// against the item embeddings in state, on this evaluator alone.
// Gossip adversaries use this: each adversary placement refreshes only
// its own target against its own node's parameters.
func (e *RecommenderEval) RefreshFictiveOne(t int, state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictiveOne on a full-model evaluator")
	}
	e.Load(state)
	plan := &e.group.plans[t]
	e.scratch.PlanFictiveUser(e.targets[t], model.TrainOptions{Epochs: epochs, Rand: r}, plan)
	e.fictive[t] = e.scratch.FitFictiveUser(e.targets[t], plan, model.TrainOptions{Epochs: epochs})
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
