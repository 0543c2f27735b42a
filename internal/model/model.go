// Package model implements the recommendation models evaluated in the
// paper — Generalized Matrix Factorization (GMF, He et al. 2017) and
// Personalized Ranking Metric Embedding (PRME, Feng et al. 2015) — plus
// the small MLPs used by the universality experiment (§VIII-E) and the
// AIA gradient classifier (§VIII-C2). Gradients are hand-derived and
// exact; there is no autograd substrate.
package model

import (
	"math/rand/v2"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/param"
)

// Recommender is the contract the collaborative-learning protocols,
// defenses and attacks require from a recommendation model.
//
// Identity convention: models carry the full user-embedding table (the
// paper's "full model sharing" baseline), and a model received from
// user u is scored with u's own embedding row.
type Recommender interface {
	// Name identifies the model family ("gmf", "prme").
	Name() string
	// Params returns a live view of the model's parameters: mutating
	// the returned set mutates the model. Clone it to snapshot.
	Params() *param.Set
	// Clone returns a deep copy.
	Clone() Recommender
	NumUsers() int
	NumItems() int

	// TrainLocal runs local SGD on user u's training data, exactly as
	// a protocol client would between model exchanges.
	TrainLocal(d *dataset.Dataset, u int, opt TrainOptions)

	// Relevance returns the mean relevance score the model assigns to
	// items when asked on behalf of owner — the quantity
	// Ŷ(Θ_u, V_target) from Eq. 3. Higher means "owner likes these
	// items more". Scores are comparable across models of one family.
	// TargetRelevancer is its batched form over many item sets.
	Relevance(owner int, items []int) float64

	// RelevanceWithUserVec scores items against an explicit user
	// vector instead of a stored row. The Share-less adaptation of CIA
	// (§IV-C) passes the adversary's fictive-user embedding here.
	RelevanceWithUserVec(vec []float64, items []int) float64

	// PlanFictiveUser and FitFictiveUsers train fresh user vectors
	// representing "a user who likes items", holding every other
	// parameter fixed (§IV-C), in two phases. PlanFictiveUser is the
	// only one that consumes opt.Rand: it writes the whole fit into
	// plan (the starting vector, then every step with its sampled
	// negatives, in the order an interleaved fit would draw them).
	//
	// FitFictiveUsers runs planned fits without any RNG. ready delivers
	// the index into plans of each plan to fit, once that plan is
	// drawn, then a negative value, after which the method receives
	// nothing more from it. The fit of plans[t] is stored in dst[t] as
	// fresh storage. The SGD-fitted families keep several fits in
	// flight at once (see fictiveLaneCount). Fitting reads the
	// parameters and writes only model-owned scratch, so fits on
	// distinct model copies may run concurrently.
	PlanFictiveUser(items []int, opt TrainOptions, plan *FictivePlan)
	FitFictiveUsers(plans []FictivePlan, dst [][]float64, ready <-chan int)

	// Predict returns the model's probability-like confidence in
	// owner liking item, in (0,1). The entropy-based MIA thresholds
	// the binary entropy of this value.
	Predict(owner, item int) float64

	// ScoreItems writes a ranking score for each candidate item into
	// dst (len(dst) == len(items)). prev is the id of the user's most
	// recent item for sequence-aware models, or -1; GMF ignores it.
	// Implementations route through the batched mathx scoring kernels;
	// scoring a candidate in a batch is bit-identical to scoring it in
	// a singleton call.
	ScoreItems(owner, prev int, items []int, dst []float64)

	// ScoreAll writes a ranking score for every catalogue item into dst
	// (len(dst) == NumItems()): the full-catalogue batched form of
	// ScoreItems the top-K utility sweeps run on. dst[i] is
	// bit-identical to the score ScoreItems produces for item i.
	ScoreAll(owner, prev int, dst []float64)

	// PredictItems writes the probability-like confidence for each
	// candidate item into dst (len(dst) == len(items)) — the batched
	// form of Predict used by the membership-inference evaluator.
	PredictItems(owner int, items []int, dst []float64)

	// PrivateEntries lists the parameter entries the Share-less policy
	// withholds from messages (the user-embedding tables).
	PrivateEntries() []string

	// ItemEntries lists the item-embedding entries subject to the
	// Share-less drift regularizer (Eq. 2).
	ItemEntries() []string
}

// TargetRelevancer is the batched form of Relevance, implemented by
// every model family in this package: RelevanceTargets writes
// Relevance(owner, targets[t]) into dst[t] for every target
// (len(dst) == len(targets)), bit for bit. CIA re-scores each observed
// model with one such call. When the targets together name at least
// NumItems() items it scores the whole catalogue once with the batched
// kernels and reduces every target from that sweep (mathx.GatherMean,
// Relevance's own addition order); smaller batches fall back to
// per-target Relevance (see sweepPays).
//
// It is an optional interface rather than a Recommender method so that
// a decorator embedding a Recommender, which forwards only
// Recommender's methods, is scored through its own Relevance: callers
// type-assert for it and fall back to one Relevance call per target.
type TargetRelevancer interface {
	RelevanceTargets(owner int, targets [][]int, dst []float64)
}

var (
	_ TargetRelevancer = (*GMF)(nil)
	_ TargetRelevancer = (*PRME)(nil)
	_ TargetRelevancer = (*BPRMF)(nil)
	_ TargetRelevancer = (*NeuMF)(nil)
)

// TrainOptions configures one local-training call. The zero value asks
// the model for its defaults (per-family learning rate, one epoch,
// NCF-style 4 negatives per positive).
type TrainOptions struct {
	// Epochs is the number of passes over the user's items (default 1).
	Epochs int
	// LR overrides the model's default learning rate when > 0.
	LR float64
	// NegPerPos is the number of sampled negatives per positive
	// (default 4, as in the NCF evaluation protocol).
	NegPerPos int
	// L2 is the weight-decay coefficient on touched embeddings
	// (default: model-specific).
	L2 float64

	// DriftTau enables the Share-less item-drift regularizer (Eq. 2)
	// when > 0: touched item embeddings are pulled towards their value
	// in DriftRef with strength tau.
	DriftTau float64
	// DriftRef holds the reference (received) parameters for the drift
	// regularizer. Required when DriftTau > 0.
	DriftRef *param.Set

	// PerExampleClip > 0 clips each example's gradient to this L2 norm
	// before applying it (the clipping half of DP-SGD; the calibrated
	// noise is added to the shared update by internal/defense).
	PerExampleClip float64

	// Rand is the client's RNG; required (training is stochastic).
	Rand *rand.Rand
}

// driftRows returns DriftRef's values of entry, or nil when the drift
// regularizer is off. TrainLocal resolves them once and passes them to
// every SGD step, which drifts the rows it touched only when they are
// non-nil.
func (o *TrainOptions) driftRows(entry string) []float64 {
	if o.DriftTau <= 0 {
		return nil
	}
	return o.DriftRef.Get(entry)
}

// withDefaults fills the zero-valued knobs and checks the required
// ones.
func (o TrainOptions) withDefaults(lr, l2 float64) TrainOptions {
	if o.Rand == nil {
		panic("model: TrainOptions.Rand is required")
	}
	if o.DriftTau > 0 && o.DriftRef == nil {
		panic("model: DriftTau requires DriftRef")
	}
	if o.Epochs <= 0 {
		o.Epochs = 1
	}
	if o.LR <= 0 {
		o.LR = lr
	}
	if o.NegPerPos <= 0 {
		o.NegPerPos = 4
	}
	if o.L2 < 0 {
		o.L2 = 0
	} else if o.L2 == 0 {
		o.L2 = l2
	}
	return o
}

// Factory builds a fresh, randomly-initialized model. Protocols use it
// to give every gossip node its own starting point and the FL server
// its global model.
type Factory func(seed uint64) Recommender
