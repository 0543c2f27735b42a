package model

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
)

// fitFictive plans and fits a fictive user in one call, as a caller
// without a reusable plan would: a batch of one.
func fitFictive(m Recommender, items []int, opt TrainOptions) []float64 {
	plans, dst := make([]FictivePlan, 1), make([][]float64, 1)
	m.PlanFictiveUser(items, opt, &plans[0])
	m.FitFictiveUsers(plans, dst, inOrder([]int{0}))
	return dst[0]
}

// inOrder returns a FitFictiveUsers channel that delivers order's
// indices, then -1.
func inOrder(order []int) <-chan int {
	ready := make(chan int, len(order)+1)
	for _, t := range order {
		ready <- t
	}
	ready <- -1
	return ready
}

// The legacy* functions below are the fictive-user fits as they were
// before the plan/fit split and the lane driver: one routine per fit
// that interleaves its RNG draws with scalar SGD steps and rejects
// negatives through a map. They stay here, steps included, as the
// reference the planned, interleaved fits must reproduce bit for bit,
// RNG stream included. Never edit them to follow the fits.

func legacyNegativeOutside(r *rand.Rand, numItems int, positives map[int]struct{}) int {
	if len(positives) >= numItems {
		panic("model: no negatives outside the positive set")
	}
	for {
		it := r.IntN(numItems)
		if _, ok := positives[it]; !ok {
			return it
		}
	}
}

func legacySet(items []int) map[int]struct{} {
	s := make(map[int]struct{}, len(items))
	for _, it := range items {
		s[it] = struct{}{}
	}
	return s
}

func legacyFitGMF(m *GMF, items []int, opt TrainOptions) []float64 {
	opt = opt.withDefaults(gmfDefaultLR, gmfDefaultL2)
	vec := make([]float64, m.dim)
	mathx.FillNormal(opt.Rand, vec, 0, gmfInitStd)
	if len(items) == 0 {
		return vec
	}
	positives := legacySet(items)
	step := func(item int, label float64) {
		q := m.itemEmb.Row(item)
		g := mathx.Sigmoid(m.logit(vec, item)) - label
		for k := 0; k < m.dim; k++ {
			vec[k] -= opt.LR * (g*m.h[k]*q[k] + opt.L2*vec[k])
		}
	}
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			step(pos, 1)
			for n := 0; n < opt.NegPerPos; n++ {
				step(legacyNegativeOutside(opt.Rand, m.items, positives), 0)
			}
		}
	}
	return vec
}

func legacyFitBPRMF(m *BPRMF, items []int, opt TrainOptions) []float64 {
	opt = opt.withDefaults(bprmfDefaultLR, bprmfDefaultL2)
	vec := make([]float64, m.dim)
	mathx.FillNormal(opt.Rand, vec, 0, bprmfInitStd)
	if len(items) == 0 {
		return vec
	}
	positives := legacySet(items)
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			for n := 0; n < opt.NegPerPos; n++ {
				neg := legacyNegativeOutside(opt.Rand, m.items, positives)
				z := m.score(vec, pos) - m.score(vec, neg)
				g := -mathx.Sigmoid(-z)
				qp, qn := m.itemEmb.Row(pos), m.itemEmb.Row(neg)
				for k := 0; k < m.dim; k++ {
					vec[k] -= opt.LR * (g*(qp[k]-qn[k]) + opt.L2*vec[k])
				}
			}
		}
	}
	return vec
}

func legacyFitNeuMF(m *NeuMF, items []int, opt TrainOptions) []float64 {
	opt = opt.withDefaults(neumfDefaultLR, neumfDefaultL2)
	vec := make([]float64, 2*m.dim)
	mathx.FillNormal(opt.Rand, vec, 0, neumfInitStd)
	if len(items) == 0 {
		return vec
	}
	ug, um := vec[:m.dim], vec[m.dim:]
	positives := legacySet(items)
	step := func(it int, label float64) {
		qg := m.itemG.Row(it)
		g := mathx.Sigmoid(m.forward(ug, um, it, m.a1, m.a2)) - label
		dim := m.dim
		delta2, delta1, dIn := m.gradViews()
		for j := 0; j < m.h2; j++ {
			if m.a2[j] > 0 {
				delta2[j] = g * m.h[dim+j]
			}
		}
		m.w2.MulVecT(delta2, delta1)
		for j := 0; j < m.h1; j++ {
			if m.a1[j] <= 0 {
				delta1[j] = 0
			}
		}
		m.w1.MulVecT(delta1, dIn)
		for k := 0; k < dim; k++ {
			ug[k] -= opt.LR * (g*m.h[k]*qg[k] + opt.L2*ug[k])
			um[k] -= opt.LR * (dIn[k] + opt.L2*um[k])
		}
	}
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			step(pos, 1)
			for n := 0; n < opt.NegPerPos; n++ {
				step(legacyNegativeOutside(opt.Rand, m.items, positives), 0)
			}
		}
	}
	return vec
}

func legacyFitPRME(m *PRME, items []int, opt TrainOptions) []float64 {
	opt = opt.withDefaults(prmeDefaultLR, prmeDefaultL2)
	vec := make([]float64, m.dim)
	if len(items) == 0 {
		mathx.FillNormal(opt.Rand, vec, 0, prmeInitStd)
		return vec
	}
	for _, it := range items {
		mathx.Axpy(1, m.itemPref.Row(it), vec)
	}
	mathx.Scale(1/float64(len(items)), vec)
	mathx.ClipL2(vec, prmeMaxNorm)
	return vec
}

// TestFictivePlanFitMatchesLegacy holds PlanFictiveUser+FitFictiveUsers
// to the interleaved legacy fit for every family: the same vectors bit
// for bit and the same RNG position afterwards (the next Uint64 of
// both streams agrees), for NegPerPos 1 and 4 and Epochs 1 and 5. Each
// batch is larger than fictiveLaneCount, so lanes refill, and mixes
// empty, single-item and duplicate-item targets with every user's
// training set; the planned fits run in a scrambled order. One set of
// plans is reused across all cases, as a refit reuses it round after
// round.
func TestFictivePlanFitMatchesLegacy(t *testing.T) {
	d := tinyDataset(t)
	const dim = 8
	gmf := NewGMF(d.NumUsers, d.NumItems, dim, 2)
	bpr := NewBPRMF(d.NumUsers, d.NumItems, dim, 2)
	neu := NewNeuMF(d.NumUsers, d.NumItems, dim, 2)
	prme := NewPRME(d.NumUsers, d.NumItems, dim, 2)
	type legacyFit func(items []int, opt TrainOptions) []float64
	families := []struct {
		name   string
		m      Recommender
		legacy legacyFit
	}{
		{"gmf", gmf, func(it []int, o TrainOptions) []float64 { return legacyFitGMF(gmf, it, o) }},
		{"bprmf", bpr, func(it []int, o TrainOptions) []float64 { return legacyFitBPRMF(bpr, it, o) }},
		{"neumf", neu, func(it []int, o TrainOptions) []float64 { return legacyFitNeuMF(neu, it, o) }},
		{"prme", prme, func(it []int, o TrainOptions) []float64 { return legacyFitPRME(prme, it, o) }},
	}
	// Train a few users so item embeddings carry signal.
	r := mathx.NewRand(5)
	for _, f := range families {
		for u := 0; u < 6; u++ {
			f.m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	targets := [][]int{nil, {d.NumItems - 1}, {d.Train[1][0], d.Train[1][0], d.Train[1][1], d.Train[1][0]}}
	for u, items := range d.Train {
		targets = append(targets, items)
		if u%5 == 0 {
			targets = append(targets, nil, items[:1])
		}
	}
	if len(targets) <= 2*fictiveLaneCount {
		t.Fatalf("%d targets do not refill the lanes", len(targets))
	}
	order := mathx.NewRand(3).Perm(len(targets))
	for _, f := range families {
		plans := make([]FictivePlan, len(targets))
		for _, negPerPos := range []int{1, 4} {
			for _, epochs := range []int{1, 5} {
				label := fmt.Sprintf("%s/neg=%d/epochs=%d", f.name, negPerPos, epochs)
				seed := uint64(17*negPerPos + epochs)
				opt := TrainOptions{Epochs: epochs, NegPerPos: negPerPos}
				rl, rn := mathx.NewRand(seed), mathx.NewRand(seed)
				want := make([][]float64, len(targets))
				opt.Rand = rl
				for ti, items := range targets {
					want[ti] = f.legacy(items, opt)
				}
				opt.Rand = rn
				for ti, items := range targets {
					f.m.PlanFictiveUser(items, opt, &plans[ti])
				}
				if a, b := rn.Uint64(), rl.Uint64(); a != b {
					t.Fatalf("%s: RNG streams diverged after planning", label)
				}
				got := make([][]float64, len(targets))
				f.m.FitFictiveUsers(plans, got, inOrder(order))
				for ti, w := range want {
					if !slices.Equal(got[ti], w) {
						t.Fatalf("%s target %d (%d items): planned fit %v != legacy %v", label, ti, len(targets[ti]), got[ti], w)
					}
				}
			}
		}
	}
}

// TestPlanFictiveUserAllPositivePanics keeps the legacy guard: a target
// covering the whole catalogue leaves no negative to draw.
func TestPlanFictiveUserAllPositivePanics(t *testing.T) {
	m := NewGMF(2, 3, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.PlanFictiveUser([]int{0, 1, 2}, TrainOptions{Rand: mathx.NewRand(1)}, &FictivePlan{})
}

// TestFitFictiveUserRejectsForeignPlan checks that a plan drawn by a
// model of another width cannot silently drive a fit.
func TestFitFictiveUserRejectsForeignPlan(t *testing.T) {
	m := NewGMF(2, 10, 2, 1)
	plans := make([]FictivePlan, 1)
	NewGMF(2, 10, 3, 1).PlanFictiveUser([]int{0, 1}, TrainOptions{Rand: mathx.NewRand(1)}, &plans[0])
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.FitFictiveUsers(plans, make([][]float64, 1), inOrder([]int{0}))
}
