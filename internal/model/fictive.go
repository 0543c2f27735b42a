package model

import (
	"slices"

	"github.com/collablearn/ciarec/internal/mathx"
)

// FictivePlan holds one fictive-user fit as Recommender.PlanFictiveUser
// drew it, for FitFictiveUsers to replay without an RNG. Its storage is
// reused from plan to plan, so one plan per target serves every refit
// of a run.
type FictivePlan struct {
	// init is the fit's starting vector.
	init []float64
	// steps is the fit's item sequence in fit order: epoch-major, then
	// by position in the target, each positive marked (stored as
	// ^item) and followed by its NegPerPos sampled negatives.
	steps []int32
	// lr and l2 are the learning rate and weight decay of every step.
	lr, l2 float64
}

// start returns a fresh copy of the planned starting vector, which must
// have n entries.
func (p *FictivePlan) start(n int) []float64 {
	if len(p.init) != n {
		panic("model: fictive plan was drawn for another model")
	}
	return append([]float64(nil), p.init...)
}

// planFictive is the draw phase the SGD-fitted families (GMF, BPRMF,
// NeuMF) share: initLen N(0, initStd) draws for the starting vector,
// then, for a non-empty target, opt.Epochs × len(items) × opt.NegPerPos
// negatives from V ∖ items. That is the negative-sampling rule of the
// fictive interaction matrix R_A (§IV-C): sampling negatives from the
// full catalogue would let them collide with the target items and
// cancel the positive updates. mask is the planning model's
// catalogue-sized membership scratch, grown on first use and left
// all-false. opt has its defaults applied.
func planFictive(plan *FictivePlan, mask *[]bool, numItems, initLen int, initStd float64, items []int, opt TrainOptions) {
	plan.lr, plan.l2 = opt.LR, opt.L2
	plan.init = growFloats(plan.init, initLen)
	mathx.FillNormal(opt.Rand, plan.init, 0, initStd)
	plan.steps = plan.steps[:0]
	if len(items) == 0 {
		return
	}
	if len(*mask) < numItems {
		*mask = make([]bool, numItems)
	}
	member := *mask
	distinct := 0
	for _, it := range items {
		if !member[it] {
			member[it] = true
			distinct++
		}
	}
	defer func() {
		for _, it := range items {
			member[it] = false
		}
	}()
	if distinct >= numItems {
		panic("model: no negatives outside the positive set")
	}
	steps := slices.Grow(plan.steps, opt.Epochs*len(items)*(1+opt.NegPerPos))
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			steps = append(steps, ^int32(pos))
			for n := 0; n < opt.NegPerPos; n++ {
				it := opt.Rand.IntN(numItems)
				for member[it] {
					it = opt.Rand.IntN(numItems)
				}
				steps = append(steps, int32(it))
			}
		}
	}
	plan.steps = steps
}

// fictiveLaneCount is how many fits the lane driver keeps in flight.
// One fit is a dependent chain (logit, sigmoid, then the update the
// next step reads), so a lone fit waits out the sigmoid's latency at
// every step. Independent fits side by side hide that latency, and one
// mathx.SigmoidInto call per tick runs all their sigmoids on the
// batched kernel. Every fit still runs exactly its own scalar
// operations, so the count does not change any result.
const fictiveLaneCount = 16

// fictiveLanes is a model's lane driver state: the fits in flight, one
// lane each, held field by field so that a batched kernel takes one
// field of every lane as one slice. Every field has one entry per lane
// in flight. It is allocated on first use.
type fictiveLanes struct {
	// vec[i] is the fictive user lane i is fitting.
	vec [][]float64
	// steps[i] are the steps of lane i's plan not yet applied;
	// steps[i][0] is the current one.
	steps [][]int32
	// pos[i] is the positive of a pairwise lane's current step.
	pos []int
	// lr[i] and l2[i] are the rates of lane i's plan.
	lr, l2 []float64
	// t[i] indexes lane i's plan, and its fitted vector's slot.
	t []int
	// x holds one tick's logits, then their sigmoids (fictiveLaneCount
	// entries, lane i at x[i]).
	x []float64
	// rows is the families' per-lane row scratch (fictiveLaneCount
	// entries).
	rows [][]float64
}

// item returns the item of lane i's current step and its label: 1 for
// the positive's own step (a mark), 0 for a sampled negative. It
// decodes the mark without a branch, which the lanes' mixed phases
// would mispredict.
func (w *fictiveLanes) item(i int) (int, float64) {
	it := w.steps[i][0]
	return int(it ^ it>>31), float64(uint32(it) >> 31)
}

// seek reports whether lane i has a step left, after passing the marks
// that are not steps: a pairwise (BPR) step pairs a positive with each
// negative after its mark, so a pairwise lane records the positive and
// passes the mark. To the other families the mark is the positive's
// own step.
func (w *fictiveLanes) seek(i int, pairwise bool) bool {
	for pairwise && len(w.steps[i]) > 0 && w.steps[i][0] < 0 {
		w.pos[i] = int(^w.steps[i][0])
		w.steps[i] = w.steps[i][1:]
	}
	return len(w.steps[i]) > 0
}

// add starts a lane on plan p, which is plans[t], from vec.
func (w *fictiveLanes) add(p *FictivePlan, t int, vec []float64) {
	w.vec = append(w.vec, vec)
	w.steps = append(w.steps, p.steps)
	w.pos = append(w.pos, 0)
	w.lr = append(w.lr, p.lr)
	w.l2 = append(w.l2, p.l2)
	w.t = append(w.t, t)
}

// finish stores lane i's fit in its slot of dst and frees the lane:
// the last lane takes its place.
func (w *fictiveLanes) finish(i int, dst [][]float64) {
	dst[w.t[i]] = w.vec[i]
	n := len(w.vec) - 1
	w.vec[i], w.steps[i], w.pos[i], w.lr[i], w.l2[i], w.t[i] = w.vec[n], w.steps[n], w.pos[n], w.lr[n], w.l2[n], w.t[n]
	w.vec, w.steps, w.pos, w.lr, w.l2, w.t = w.vec[:n], w.steps[:n], w.pos[:n], w.lr[:n], w.l2[:n], w.t[:n]
}

// laneFitter is what an SGD-fitted family supplies to the lane driver:
// the logit and the update of one step, for every lane in flight.
type laneFitter interface {
	// fictiveLogits writes into w.x[i] the sigmoid argument of lane i's
	// current step.
	fictiveLogits(w *fictiveLanes)
	// fictiveUpdates applies every lane's current step to its vector,
	// given w.x[i], the sigmoid of lane i's logit.
	fictiveUpdates(w *fictiveLanes)
}

// fit is the lane driver behind FitFictiveUsers (see Recommender) for
// the SGD-fitted families: it keeps up to fictiveLaneCount fits of
// vecLen-sized vectors in flight and starts the next plan as soon as a
// lane's fit finishes and the plan is drawn. Each tick computes every
// lane's logit, runs one SigmoidInto over them, then applies every
// lane's update.
func (w *fictiveLanes) fit(f laneFitter, pairwise bool, vecLen int, plans []FictivePlan, dst [][]float64, ready <-chan int) {
	if w.x == nil {
		const n = fictiveLaneCount
		w.vec, w.steps, w.pos = make([][]float64, 0, n), make([][]int32, 0, n), make([]int, 0, n)
		w.lr, w.l2, w.t = make([]float64, 0, n), make([]float64, 0, n), make([]int, 0, n)
		w.x, w.rows = make([]float64, n), make([][]float64, n)
	}
	for more := true; ; {
	fill:
		for more && len(w.vec) < fictiveLaneCount {
			// Wait for a plan only when no lane is in flight.
			var t int
			if len(w.vec) == 0 {
				t = <-ready
			} else {
				select {
				case t = <-ready:
				default:
					break fill
				}
			}
			if t < 0 {
				more = false
				break
			}
			w.add(&plans[t], t, plans[t].start(vecLen))
			if i := len(w.vec) - 1; !w.seek(i, pairwise) {
				w.finish(i, dst)
			}
		}
		n := len(w.vec)
		if n == 0 {
			return
		}
		f.fictiveLogits(w)
		mathx.SigmoidInto(w.x[:n], w.x[:n])
		f.fictiveUpdates(w)
		for i := 0; i < len(w.vec); {
			w.steps[i] = w.steps[i][1:]
			if w.seek(i, pairwise) {
				i++
				continue
			}
			w.finish(i, dst)
		}
	}
}
