package model

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
)

// fitFictive plans and fits a fictive user in one call, as a caller
// without a reusable plan would.
func fitFictive(m Recommender, items []int, opt TrainOptions) []float64 {
	var plan FictivePlan
	m.PlanFictiveUser(items, opt, &plan)
	opt.Rand = nil
	return m.FitFictiveUser(items, &plan, opt)
}

// The legacy* functions below are the fictive-user fits as they were
// before the plan/fit split: one routine that interleaves its RNG
// draws with the SGD steps and rejects negatives through a map. They
// stay here as the reference the split must reproduce bit for bit,
// RNG stream included.

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
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			m.fictiveStep(vec, pos, 1, opt)
			for n := 0; n < opt.NegPerPos; n++ {
				m.fictiveStep(vec, legacyNegativeOutside(opt.Rand, m.items, positives), 0, opt)
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
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			m.fictiveStep(ug, um, pos, 1, opt)
			for n := 0; n < opt.NegPerPos; n++ {
				m.fictiveStep(ug, um, legacyNegativeOutside(opt.Rand, m.items, positives), 0, opt)
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

// TestFictivePlanFitMatchesLegacy holds PlanFictiveUser+FitFictiveUser
// to the interleaved legacy fit for every family: the same vector bit
// for bit and the same RNG position afterwards (the next Uint64 of
// both streams agrees), over an empty target, duplicate items,
// NegPerPos 1 and 4 and Epochs 1 and 5. One plan is reused across all
// cases, as a refit reuses it round after round.
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
	targets := []struct {
		name  string
		items []int
	}{
		{"empty", nil},
		{"user0", d.Train[0]},
		{"duplicates", []int{d.Train[1][0], d.Train[1][0], d.Train[1][1], d.Train[1][0]}},
		{"single", []int{d.NumItems - 1}},
	}
	for _, f := range families {
		var plan FictivePlan
		for _, target := range targets {
			items := target.items
			for _, negPerPos := range []int{1, 4} {
				for _, epochs := range []int{1, 5} {
					seed := uint64(17*negPerPos + epochs)
					opt := TrainOptions{Epochs: epochs, NegPerPos: negPerPos}
					rl, rn := mathx.NewRand(seed), mathx.NewRand(seed)
					opt.Rand = rl
					want := f.legacy(items, opt)
					opt.Rand = rn
					f.m.PlanFictiveUser(items, opt, &plan)
					opt.Rand = nil
					got := f.m.FitFictiveUser(items, &plan, opt)
					label := fmt.Sprintf("%s/%s/neg=%d/epochs=%d", f.name, target.name, negPerPos, epochs)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: planned fit %v != legacy %v", label, got, want)
					}
					if a, b := rn.Uint64(), rl.Uint64(); a != b {
						t.Fatalf("%s: RNG streams diverged after the fit", label)
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

// TestFitFictiveUserRejectsForeignPlan checks that a plan drawn for one
// target cannot silently drive the fit of another.
func TestFitFictiveUserRejectsForeignPlan(t *testing.T) {
	m := NewGMF(2, 10, 2, 1)
	var plan FictivePlan
	m.PlanFictiveUser([]int{0, 1}, TrainOptions{Rand: mathx.NewRand(1)}, &plan)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.FitFictiveUser([]int{0, 1, 2}, &plan, TrainOptions{})
}
