package attack

import (
	"fmt"
	"math/rand/v2"

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
type RecommenderEval struct {
	scratch model.Recommender
	// batch is scratch's batched relevance, nil when scratch does not
	// implement model.TargetRelevancer.
	batch   model.TargetRelevancer
	targets [][]int
	// fictive[t] is e_A for target t; nil selects full-model mode.
	fictive [][]float64
}

var (
	_ Evaluator    = (*RecommenderEval)(nil)
	_ targetScorer = (*RecommenderEval)(nil)
)

// NewRecommenderEval builds a full-model evaluator. scratch must be a
// dedicated model instance (its parameters are overwritten on Load).
func NewRecommenderEval(scratch model.Recommender, targets [][]int) *RecommenderEval {
	if len(targets) == 0 {
		panic("attack: NewRecommenderEval requires at least one target")
	}
	batch, _ := scratch.(model.TargetRelevancer)
	return &RecommenderEval{scratch: scratch, batch: batch, targets: targets}
}

// NewShareLessEval builds a fictive-user evaluator for the Share-less
// setting. Call RefreshFictive before the first Score (and whenever
// the adversary wants to re-fit e_A against fresher item embeddings).
func NewShareLessEval(scratch model.Recommender, targets [][]int) *RecommenderEval {
	ev := NewRecommenderEval(scratch, targets)
	ev.fictive = make([][]float64, len(targets))
	return ev
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
func (e *RecommenderEval) RefreshFictive(state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictive on a full-model evaluator")
	}
	e.Load(state)
	for t, target := range e.targets {
		e.fictive[t] = e.scratch.FitFictiveUser(target, model.TrainOptions{
			Epochs: epochs,
			Rand:   r,
		})
	}
}

// RefreshFictiveOne re-fits the fictive user for a single target
// against the item embeddings in state. Gossip adversaries use this:
// each adversary placement refreshes only its own target against its
// own node's parameters.
func (e *RecommenderEval) RefreshFictiveOne(t int, state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictiveOne on a full-model evaluator")
	}
	e.Load(state)
	e.fictive[t] = e.scratch.FitFictiveUser(e.targets[t], model.TrainOptions{
		Epochs: epochs,
		Rand:   r,
	})
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

// CloneFictive copies fitted fictive vectors from src (used to share
// one fit across parallel evaluators).
func (e *RecommenderEval) CloneFictive(src *RecommenderEval) {
	if e.fictive == nil || src.fictive == nil {
		panic("attack: CloneFictive requires share-less evaluators")
	}
	for t, v := range src.fictive {
		e.fictive[t] = append([]float64(nil), v...)
	}
}
