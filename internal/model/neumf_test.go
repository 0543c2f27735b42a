package model

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
)

func TestNewNeuMFShape(t *testing.T) {
	m := NewNeuMF(5, 7, 4, 1)
	if m.NumUsers() != 5 || m.NumItems() != 7 || m.Name() != "neumf" {
		t.Fatal("wrong identity")
	}
	for _, name := range []string{
		NeuMFUserEmbGMF, NeuMFItemEmbGMF, NeuMFUserEmbMLP, NeuMFItemEmbMLP,
		NeuMFW1, NeuMFB1, NeuMFW2, NeuMFB2, NeuMFOutput, NeuMFBias,
	} {
		if !m.Params().Has(name) {
			t.Fatalf("missing entry %s", name)
		}
	}
	if len(m.PrivateEntries()) != 2 || len(m.ItemEntries()) != 2 {
		t.Fatal("entry classification wrong")
	}
}

func TestNewNeuMFOddDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd dim must panic")
		}
	}()
	NewNeuMF(2, 2, 3, 1)
}

func TestNeuMFCloneIndependent(t *testing.T) {
	m := NewNeuMF(3, 3, 4, 1)
	c := m.Clone()
	if c.Predict(1, 2) != m.Predict(1, 2) {
		t.Fatal("clone differs")
	}
	c.Params().Get(NeuMFW1)[0] += 5
	if c.Predict(1, 2) == m.Predict(1, 2) {
		t.Fatal("clone shares storage")
	}
}

// Full finite-difference check of the hand-derived backprop: train one
// example with a tiny lr, recover the gradient from the parameter
// delta, compare against numerical derivatives of the BCE loss.
func TestNeuMFNumericalGradient(t *testing.T) {
	m := NewNeuMF(3, 5, 4, 7)
	u, it := 1, 2
	label := 1.0
	loss := func() float64 {
		p := m.Predict(u, it)
		return -label*math.Log(p+1e-12) - (1-label)*math.Log(1-p+1e-12)
	}

	before := m.Params().Clone()
	const lr = 1e-5
	m.sgdStep(u, it, label, TrainOptions{LR: lr, L2: -1, NegPerPos: 1, Epochs: 1, Rand: mathx.NewRand(1)}.withDefaults(lr, 0), nil, nil)
	after := m.Params().Clone()
	m.Params().CopyFrom(before)

	const eps = 1e-6
	for _, entry := range []string{
		NeuMFUserEmbGMF, NeuMFItemEmbGMF, NeuMFUserEmbMLP, NeuMFItemEmbMLP,
		NeuMFW1, NeuMFB1, NeuMFW2, NeuMFB2, NeuMFOutput, NeuMFBias,
	} {
		data := m.Params().Get(entry)
		b := before.Get(entry)
		a := after.Get(entry)
		for _, idx := range []int{0, len(data) / 2, len(data) - 1} {
			analytic := (b[idx] - a[idx]) / lr
			data[idx] += eps
			up := loss()
			data[idx] -= 2 * eps
			down := loss()
			data[idx] += eps
			numeric := (up - down) / (2 * eps)
			if math.Abs(analytic-numeric) > 1e-3*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %.8f numeric %.8f", entry, idx, analytic, numeric)
			}
		}
	}
}

func TestNeuMFTrainingSeparatesPositives(t *testing.T) {
	d := tinyDataset(t)
	m := NewNeuMF(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(3)
	u := 0
	for e := 0; e < 25; e++ {
		m.TrainLocal(d, u, TrainOptions{Rand: r})
	}
	var pos, neg float64
	for _, it := range d.Train[u] {
		pos += m.Predict(u, it)
	}
	pos /= float64(len(d.Train[u]))
	for i := 0; i < 50; i++ {
		neg += m.Predict(u, d.SampleNegative(r, u))
	}
	neg /= 50
	if pos < neg+0.15 {
		t.Fatalf("NeuMF did not separate positives: pos=%.3f neg=%.3f", pos, neg)
	}
}

func TestNeuMFHitRatioImproves(t *testing.T) {
	d := tinyDataset(t)
	m := NewNeuMF(d.NumUsers, d.NumItems, 8, 3)
	before := HitRatioAtK(m, d, 10, 40, EvalOptions{Seed: 2, Workers: -1})
	r := mathx.NewRand(1)
	for e := 0; e < 12; e++ {
		for u := 0; u < d.NumUsers; u++ {
			m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	after := HitRatioAtK(m, d, 10, 40, EvalOptions{Seed: 2, Workers: -1})
	if after <= before {
		t.Fatalf("training did not improve HR: %.3f -> %.3f", before, after)
	}
}

func TestNeuMFFictiveUser(t *testing.T) {
	d := tinyDataset(t)
	m := NewNeuMF(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(5)
	for u := 0; u < 8; u++ {
		for e := 0; e < 8; e++ {
			m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	target := d.Train[0]
	// NeuMF's fictive fit needs a longer run than the shallow models:
	// the MLP tower's gradient path is weaker at init.
	vec := fitFictive(m, target, TrainOptions{Rand: r, Epochs: 30})
	if len(vec) != 16 {
		t.Fatalf("fictive vector length %d, want 16 ([gmf ; mlp])", len(vec))
	}
	random := make([]float64, 16)
	mathx.FillNormal(mathx.NewRand(99), random, 0, neumfInitStd)
	if m.RelevanceWithUserVec(vec, target) <= m.RelevanceWithUserVec(random, target) {
		t.Fatal("fictive user no better than random")
	}
}

func TestNeuMFRelevanceVectorLengthPanics(t *testing.T) {
	m := NewNeuMF(2, 3, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length user vector must panic")
		}
	}()
	m.RelevanceWithUserVec(make([]float64, 4), []int{0})
}

func TestNeuMFShareLessDrift(t *testing.T) {
	d := tinyDataset(t)
	mFree := NewNeuMF(d.NumUsers, d.NumItems, 8, 7)
	mDrift := mFree.Clone().(*NeuMF)
	ref := mFree.Params().Clone()
	r1, r2 := mathx.NewRand(8), mathx.NewRand(8)
	for e := 0; e < 8; e++ {
		mFree.TrainLocal(d, 0, TrainOptions{Rand: r1})
		mDrift.TrainLocal(d, 0, TrainOptions{Rand: r2, DriftTau: 2, DriftRef: ref})
	}
	dist := func(m *NeuMF, entry string) float64 {
		cur := m.Params().Get(entry)
		old := ref.Get(entry)
		var s float64
		for i := range cur {
			dd := cur[i] - old[i]
			s += dd * dd
		}
		return s
	}
	if dist(mDrift, NeuMFItemEmbGMF) >= dist(mFree, NeuMFItemEmbGMF) {
		t.Fatal("drift regularizer ineffective on the GMF item table")
	}
	if dist(mDrift, NeuMFItemEmbMLP) >= dist(mFree, NeuMFItemEmbMLP) {
		t.Fatal("drift regularizer ineffective on the MLP item table")
	}
}
