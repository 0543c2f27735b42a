package model

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
)

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 24, NumItems: 80, NumCommunities: 3,
		MeanItemsPerUser: 15, MinItemsPerUser: 5, Affinity: 0.9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SplitLeaveOneOut(3)
	return d
}

func TestNewGMFShape(t *testing.T) {
	m := NewGMF(5, 7, 4, 1)
	if m.NumUsers() != 5 || m.NumItems() != 7 {
		t.Fatalf("shape %d/%d", m.NumUsers(), m.NumItems())
	}
	p := m.Params()
	for _, name := range []string{GMFUserEmb, GMFItemEmb, GMFOutput, GMFBias} {
		if !p.Has(name) {
			t.Fatalf("missing entry %s", name)
		}
	}
	if p.NumParams() != 5*4+7*4+4+1 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}
}

func TestGMFParamsAreLive(t *testing.T) {
	m := NewGMF(2, 2, 2, 1)
	before := m.Predict(0, 0)
	emb := m.Params().Get(GMFUserEmb)
	for i := range emb {
		emb[i] = 10
	}
	if m.Predict(0, 0) == before {
		t.Fatal("Params must be a live view of the model")
	}
}

func TestGMFCloneIndependent(t *testing.T) {
	m := NewGMF(3, 3, 2, 1)
	c := m.Clone()
	c.Params().Get(GMFOutput)[0] += 5
	if m.Params().Get(GMFOutput)[0] == c.Params().Get(GMFOutput)[0] {
		t.Fatal("Clone shares storage")
	}
}

func TestGMFDeterministicInit(t *testing.T) {
	a, b := NewGMF(4, 4, 3, 9), NewGMF(4, 4, 3, 9)
	if a.Predict(1, 2) != b.Predict(1, 2) {
		t.Fatal("same seed produced different models")
	}
}

// Training on a user's positives must raise their predicted scores
// relative to never-seen items — the generalization signal CIA relies on.
func TestGMFTrainingIncreasesPositiveScores(t *testing.T) {
	d := tinyDataset(t)
	m := NewGMF(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(3)
	u := 0
	for e := 0; e < 30; e++ {
		m.TrainLocal(d, u, TrainOptions{Rand: r})
	}
	var posMean, negMean float64
	for _, it := range d.Train[u] {
		posMean += m.Predict(u, it)
	}
	posMean /= float64(len(d.Train[u]))
	for i := 0; i < 50; i++ {
		negMean += m.Predict(u, d.SampleNegative(r, u))
	}
	negMean /= 50
	if posMean < negMean+0.2 {
		t.Fatalf("training did not separate positives: pos=%.3f neg=%.3f", posMean, negMean)
	}
}

func TestGMFRelevanceOrdersUsersByTaste(t *testing.T) {
	d := tinyDataset(t)
	m := NewGMF(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(3)
	u := 1
	for e := 0; e < 20; e++ {
		m.TrainLocal(d, u, TrainOptions{Rand: r})
	}
	// The trained user's relevance for their own items must exceed the
	// relevance computed for an untrained user row.
	own := m.Relevance(u, d.Train[u])
	other := m.Relevance((u+5)%d.NumUsers, d.Train[u])
	if own <= other {
		t.Fatalf("relevance does not identify the trained user: own=%.4f other=%.4f", own, other)
	}
}

func TestGMFRelevanceEmptyTarget(t *testing.T) {
	m := NewGMF(2, 2, 2, 1)
	if got := m.Relevance(0, nil); got != 0 {
		t.Fatalf("empty-target relevance = %v, want 0", got)
	}
}

func TestGMFNumericalGradient(t *testing.T) {
	// Finite-difference check of the BCE gradient for a single
	// (user, item, label) example.
	m := NewGMF(2, 3, 4, 5)
	u, item := 1, 2
	label := 1.0

	loss := func() float64 {
		p := m.Predict(u, item)
		return -label*math.Log(p+1e-12) - (1-label)*math.Log(1-p+1e-12)
	}

	// Analytic gradient wrt p_u[k]: g * h[k] * q[k].
	g := m.Predict(u, item) - label
	const eps = 1e-6
	for k := 0; k < 4; k++ {
		analytic := g * m.h[k] * m.itemEmb.At(item, k)
		m.userEmb.Row(u)[k] += eps
		up := loss()
		m.userEmb.Row(u)[k] -= 2 * eps
		down := loss()
		m.userEmb.Row(u)[k] += eps
		numeric := (up - down) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-4 {
			t.Fatalf("dP[%d]: analytic %.6f numeric %.6f", k, analytic, numeric)
		}
	}
	// And wrt h[k]: g * p[k] * q[k].
	for k := 0; k < 4; k++ {
		analytic := g * m.userEmb.At(u, k) * m.itemEmb.At(item, k)
		m.h[k] += eps
		up := loss()
		m.h[k] -= 2 * eps
		down := loss()
		m.h[k] += eps
		numeric := (up - down) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-4 {
			t.Fatalf("dH[%d]: analytic %.6f numeric %.6f", k, analytic, numeric)
		}
	}
}

func TestGMFPerExampleClipBoundsUpdate(t *testing.T) {
	d := tinyDataset(t)
	const clip = 1e-3
	m := NewGMF(d.NumUsers, d.NumItems, 8, 2)
	before := m.Params().Clone()
	r := mathx.NewRand(4)
	m.TrainLocal(d, 0, TrainOptions{Rand: r, PerExampleClip: clip, L2: -1})
	after := m.Params()
	// Total update norm <= steps * lr * clip.
	steps := float64(len(d.Train[0]) * 5) // 1 pos + 4 neg per positive
	diff := after.Clone()
	diff.Axpy(-1, before)
	maxNorm := steps * gmfDefaultLR * clip * 1.0001
	if got := diff.L2Norm(); got > maxNorm {
		t.Fatalf("clipped update norm %.6f exceeds bound %.6f", got, maxNorm)
	}
}

func TestGMFFitFictiveUser(t *testing.T) {
	d := tinyDataset(t)
	m := NewGMF(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(5)
	// Train a few users so item embeddings carry signal.
	for u := 0; u < 8; u++ {
		for e := 0; e < 10; e++ {
			m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	target := d.Train[0]
	vec := fitFictive(m, target, TrainOptions{Rand: r, Epochs: 20})
	if len(vec) != 8 {
		t.Fatalf("fictive vector dim %d", len(vec))
	}
	rel := m.RelevanceWithUserVec(vec, target)
	// A random user vector must be less relevant than the fitted one.
	random := make([]float64, 8)
	mathx.FillNormal(mathx.NewRand(99), random, 0, gmfInitStd)
	if rel <= m.RelevanceWithUserVec(random, target) {
		t.Fatalf("fictive user no better than random: %.4f", rel)
	}
}

func TestGMFShareLessDriftShrinksItemDivergence(t *testing.T) {
	d := tinyDataset(t)
	mFree := NewGMF(d.NumUsers, d.NumItems, 8, 7)
	mDrift := mFree.Clone().(*GMF)
	ref := mFree.Params().Clone()
	r1, r2 := mathx.NewRand(8), mathx.NewRand(8)
	for e := 0; e < 10; e++ {
		mFree.TrainLocal(d, 0, TrainOptions{Rand: r1})
		mDrift.TrainLocal(d, 0, TrainOptions{Rand: r2, DriftTau: 2.0, DriftRef: ref})
	}
	divFree := itemDivergence(mFree, ref)
	divDrift := itemDivergence(mDrift, ref)
	if divDrift >= divFree {
		t.Fatalf("drift regularizer did not reduce item divergence: %.5f >= %.5f", divDrift, divFree)
	}
}

func itemDivergence(m *GMF, ref interface{ Get(string) []float64 }) float64 {
	cur := m.Params().Get(GMFItemEmb)
	old := ref.Get(GMFItemEmb)
	var s float64
	for i := range cur {
		d := cur[i] - old[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestGMFFactory(t *testing.T) {
	f := NewGMFFactory(3, 4, 2)
	m := f(1)
	if m.Name() != "gmf" || m.NumUsers() != 3 || m.NumItems() != 4 {
		t.Fatal("factory produced wrong model")
	}
}

func TestTrainOptionsRequireRand(t *testing.T) {
	m := NewGMF(2, 4, 2, 1)
	d, _ := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 2, NumItems: 4, NumCommunities: 2, MeanItemsPerUser: 2, MinItemsPerUser: 1, Seed: 1,
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without Rand")
		}
	}()
	m.TrainLocal(d, 0, TrainOptions{})
}
