package model

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
)

func TestNewPRMEShape(t *testing.T) {
	m := NewPRME(5, 7, 4, 1)
	if m.NumUsers() != 5 || m.NumItems() != 7 || m.Name() != "prme" {
		t.Fatal("wrong identity")
	}
	p := m.Params()
	for _, name := range []string{PRMEUserEmb, PRMEItemEmbPref, PRMEItemEmbSeq} {
		if !p.Has(name) {
			t.Fatalf("missing entry %s", name)
		}
	}
	if got := len(m.PrivateEntries()); got != 1 {
		t.Fatalf("private entries = %d", got)
	}
	if got := len(m.ItemEntries()); got != 2 {
		t.Fatalf("item entries = %d", got)
	}
}

func TestPRMECloneIndependent(t *testing.T) {
	m := NewPRME(3, 3, 2, 1)
	c := m.Clone()
	c.Params().Get(PRMEUserEmb)[0] += 5
	if m.Params().Get(PRMEUserEmb)[0] == c.Params().Get(PRMEUserEmb)[0] {
		t.Fatal("Clone shares storage")
	}
}

func TestPRMERelevanceOrdering(t *testing.T) {
	m := NewPRME(2, 3, 2, 1)
	// Place user 0 exactly on item 0's preference point and user 1 on
	// the antipode: user 0's model must consider item 0 more relevant.
	copy(m.userEmb.Row(0), m.itemPref.Row(0))
	for k, v := range m.itemPref.Row(0) {
		m.userEmb.Row(1)[k] = -v
	}
	if m.Relevance(0, []int{0}) <= m.Relevance(1, []int{0}) {
		t.Fatal("co-located user must be more relevant than the antipodal user")
	}
	// Per-user item ordering must match the raw distance score: the
	// norm-adjusted relevance only shifts by a per-user constant.
	u := m.userEmb.Row(0)
	if (m.relScore(u, 1) > m.relScore(u, 2)) != (m.prefScore(u, 1) > m.prefScore(u, 2)) {
		t.Fatal("relScore must preserve per-user item ordering")
	}
}

// The property CIA relies on: after identical amounts of training,
// users who share a community with the target set score it higher than
// users who do not. (Comparing a trained row against an *untrained*
// row is meaningless for a metric model: near-origin init points are
// spuriously close to everything.)
func TestPRMETrainingSeparatesCommunities(t *testing.T) {
	d := tinyDataset(t)
	m := NewPRME(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(3)
	for e := 0; e < 12; e++ {
		for u := 0; u < d.NumUsers; u++ {
			m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	target := d.Train[0]
	var same, other []float64
	for u := 1; u < d.NumUsers; u++ {
		rel := m.Relevance(u, target)
		if d.PlantedCommunity[u] == d.PlantedCommunity[0] {
			same = append(same, rel)
		} else {
			other = append(other, rel)
		}
	}
	if len(same) == 0 || len(other) == 0 {
		t.Skip("degenerate community split")
	}
	if mathx.Mean(same) <= mathx.Mean(other) {
		t.Fatalf("community members not more relevant: same=%.4f other=%.4f",
			mathx.Mean(same), mathx.Mean(other))
	}
}

func TestPRMEScoreItemsUsesSequentialContext(t *testing.T) {
	m := NewPRME(2, 4, 3, 5)
	items := []int{1, 2, 3}
	withPrev := make([]float64, 3)
	noPrev := make([]float64, 3)
	m.ScoreItems(0, 0, items, withPrev)
	m.ScoreItems(0, -1, items, noPrev)
	same := true
	for i := range items {
		if withPrev[i] != noPrev[i] {
			same = false
		}
	}
	if same {
		t.Fatal("sequential context has no effect on scores")
	}
}

func TestPRMENumericalGradient(t *testing.T) {
	// Finite-difference check of the BPR gradient wrt the user vector.
	m := NewPRME(2, 5, 3, 7)
	u, prev, pos, neg := 0, 1, 2, 3
	uvec := m.userEmb.Row(u)

	loss := func() float64 {
		z := m.score(uvec, prev, pos) - m.score(uvec, prev, neg)
		return -mathx.LogSigmoid(z)
	}
	z := m.score(uvec, prev, pos) - m.score(uvec, prev, neg)
	g := -mathx.Sigmoid(-z)
	lp, ln := m.itemPref.Row(pos), m.itemPref.Row(neg)
	const eps = 1e-6
	for k := 0; k < 3; k++ {
		analytic := g * (-2*m.alpha*(uvec[k]-lp[k]) + 2*m.alpha*(uvec[k]-ln[k]))
		uvec[k] += eps
		up := loss()
		uvec[k] -= 2 * eps
		down := loss()
		uvec[k] += eps
		numeric := (up - down) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-5 {
			t.Fatalf("dU[%d]: analytic %.8f numeric %.8f", k, analytic, numeric)
		}
	}
}

func TestPRMEFitFictiveUserApproachesTarget(t *testing.T) {
	d := tinyDataset(t)
	m := NewPRME(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(5)
	for u := 0; u < 6; u++ {
		for e := 0; e < 8; e++ {
			m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	target := d.Train[0]
	vec := fitFictive(m, target, TrainOptions{Rand: r, Epochs: 20})
	random := make([]float64, 8)
	mathx.FillNormal(mathx.NewRand(99), random, 0, prmeInitStd)
	if m.RelevanceWithUserVec(vec, target) <= m.RelevanceWithUserVec(random, target) {
		t.Fatal("fictive user no better than random")
	}
}

func TestPRMEPerExampleClipBoundsUpdate(t *testing.T) {
	d := tinyDataset(t)
	const clip = 1e-3
	m := NewPRME(d.NumUsers, d.NumItems, 8, 2)
	before := m.Params().Clone()
	r := mathx.NewRand(4)
	m.TrainLocal(d, 0, TrainOptions{Rand: r, PerExampleClip: clip, L2: -1})
	diff := m.Params().Clone()
	diff.Axpy(-1, before)
	steps := float64(len(d.Train[0]) * 4)
	maxNorm := steps * prmeDefaultLR * clip * 1.0001
	if got := diff.L2Norm(); got > maxNorm {
		t.Fatalf("clipped update norm %.6f exceeds bound %.6f", got, maxNorm)
	}
}

func TestPRMEPredictInUnitInterval(t *testing.T) {
	m := NewPRME(3, 5, 4, 11)
	for u := 0; u < 3; u++ {
		for it := 0; it < 5; it++ {
			p := m.Predict(u, it)
			if p <= 0 || p >= 1 {
				t.Fatalf("Predict(%d,%d) = %v out of (0,1)", u, it, p)
			}
		}
	}
}
