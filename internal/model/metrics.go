package model

import (
	"math/rand/v2"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
)

// HitForUser evaluates the NCF leave-one-out protocol for a single
// user: rank the held-out item against numNeg sampled negatives and
// report 1 when it lands in the top k. ok is false when the user has
// no held-out item.
func HitForUser(m Recommender, d *dataset.Dataset, u, k, numNeg int, r *rand.Rand) (hit float64, ok bool) {
	if k <= 0 || numNeg <= 0 {
		panic("model: HitForUser requires positive k and numNeg")
	}
	if len(d.Test[u]) == 0 {
		return 0, false
	}
	return hitForUserInto(m, d, u, k, numNeg, r,
		make([]int, numNeg+1), make([]float64, numNeg+1))
}

// hitForUserInto is the allocation-free core of HitForUser: candidates
// and scores are caller-owned buffers of length numNeg+1. The caller
// has already validated k/numNeg and that the user is evaluable.
func hitForUserInto(m Recommender, d *dataset.Dataset, u, k, numNeg int, r *rand.Rand, candidates []int, scores []float64) (hit float64, ok bool) {
	candidates[0] = d.Test[u][0]
	for i := 1; i <= numNeg; i++ {
		candidates[i] = d.SampleNegative(r, u)
	}
	prev := -1
	if n := len(d.Train[u]); n > 0 {
		prev = d.Train[u][n-1]
	}
	m.ScoreItems(u, prev, candidates, scores)
	rank := 0
	for i := 1; i <= numNeg; i++ {
		if scores[i] > scores[0] {
			rank++
		}
	}
	if rank < k {
		return 1, true
	}
	return 0, true
}

// HitRatioAtK implements the NCF evaluation protocol used for GMF in
// the paper: the mean of HitForUser over evaluable users (0 when there
// are none). The sweep runs on the deterministic parallel engine — the
// result is byte-identical for every opt.Workers setting and depends
// only on (opt.Seed, opt.Round, model parameters), never on prior RNG
// consumption. Long-lived callers (the protocol simulators) hold a
// model.Eval instead of paying the per-call engine construction.
func HitRatioAtK(m Recommender, d *dataset.Dataset, k, numNeg int, opt EvalOptions) float64 {
	e := NewEval(d, opt.Workers, opt.Seed)
	return e.HR(opt.Round, e.ClonePick(m), k, numNeg)
}

// F1ForUser computes the F1 score of the model's top-k unseen-item
// slate against user u's held-out set. ok is false when the user has
// no held-out items.
func F1ForUser(m Recommender, d *dataset.Dataset, u, k int) (f1 float64, ok bool) {
	if k <= 0 {
		panic("model: F1ForUser requires positive k")
	}
	if len(d.Test[u]) == 0 {
		return 0, false
	}
	kTop := k
	if kTop > d.NumItems {
		kTop = d.NumItems
	}
	return f1ForUserInto(m, d, u, k, make([]float64, d.NumItems), make([]int, kTop))
}

// f1ForUserInto is the allocation-free core of F1ForUser. scores is a
// NumItems-length buffer (consumed: training items are overwritten with
// -Inf before selection) and top has capacity for min(k, NumItems)
// indices. The caller has already validated k and that the user is
// evaluable. The full-catalogue sweep runs on the model's batched
// ScoreAll kernel.
func f1ForUserInto(m Recommender, d *dataset.Dataset, u, k int, scores []float64, top []int) (f1 float64, ok bool) {
	prev := -1
	if n := len(d.Train[u]); n > 0 {
		prev = d.Train[u][n-1]
	}
	m.ScoreAll(u, prev, scores)
	// Exclude training items from the recommendation slate (Train[u] is
	// duplicate-free per dataset.Validate, so the slice walk masks the
	// same set the historical TrainSet map iteration did).
	for _, it := range d.Train[u] {
		scores[it] = negInf
	}
	top = mathx.TopKSelect(scores, nil, k, top)
	var hits int
	for _, it := range top {
		for _, h := range d.Test[u] {
			if h == it {
				hits++
				break
			}
		}
	}
	if hits == 0 {
		return 0, true
	}
	// Test[u] is duplicate-free (dataset.Validate), so its length is the
	// held-out set size.
	precision := float64(hits) / float64(len(top))
	recall := float64(hits) / float64(len(d.Test[u]))
	return 2 * precision * recall / (precision + recall), true
}

// F1AtK evaluates PRME-style held-out recovery: the mean of F1ForUser
// over evaluable users (0 when there are none), on the deterministic
// parallel engine. Only opt.Workers is consulted — the metric draws no
// randomness.
func F1AtK(m Recommender, d *dataset.Dataset, k int, opt EvalOptions) float64 {
	e := NewEval(d, opt.Workers, opt.Seed)
	return e.F1(e.ClonePick(m), k)
}

const negInf = -1e300
