package model

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
)

func TestNewBPRMFShape(t *testing.T) {
	m := NewBPRMF(5, 7, 4, 1)
	if m.NumUsers() != 5 || m.NumItems() != 7 || m.Name() != "bprmf" {
		t.Fatal("wrong identity")
	}
	for _, name := range []string{BPRMFUserEmb, BPRMFItemEmb, BPRMFItemBias} {
		if !m.Params().Has(name) {
			t.Fatalf("missing entry %s", name)
		}
	}
	if len(m.PrivateEntries()) != 1 || len(m.ItemEntries()) != 1 {
		t.Fatal("entry classification wrong")
	}
}

func TestBPRMFCloneIndependent(t *testing.T) {
	m := NewBPRMF(3, 3, 2, 1)
	c := m.Clone()
	c.Params().Get(BPRMFItemBias)[0] += 5
	if m.Params().Get(BPRMFItemBias)[0] == c.Params().Get(BPRMFItemBias)[0] {
		t.Fatal("Clone shares storage")
	}
}

func TestBPRMFNumericalGradient(t *testing.T) {
	m := NewBPRMF(2, 5, 3, 7)
	u, pos, neg := 0, 1, 3
	p := m.userEmb.Row(u)
	loss := func() float64 {
		z := m.score(p, pos) - m.score(p, neg)
		return -mathx.LogSigmoid(z)
	}
	z := m.score(p, pos) - m.score(p, neg)
	g := -mathx.Sigmoid(-z)
	qp, qn := m.itemEmb.Row(pos), m.itemEmb.Row(neg)
	const eps = 1e-6
	for k := 0; k < 3; k++ {
		analytic := g * (qp[k] - qn[k])
		p[k] += eps
		up := loss()
		p[k] -= 2 * eps
		down := loss()
		p[k] += eps
		numeric := (up - down) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-5 {
			t.Fatalf("dP[%d]: analytic %.8f numeric %.8f", k, analytic, numeric)
		}
	}
	// Item-bias gradient: dL/db_pos = g.
	m.itemBias[pos] += eps
	up := loss()
	m.itemBias[pos] -= 2 * eps
	down := loss()
	m.itemBias[pos] += eps
	if numeric := (up - down) / (2 * eps); math.Abs(g-numeric) > 1e-5 {
		t.Fatalf("dB: analytic %.8f numeric %.8f", g, numeric)
	}
}

func TestBPRMFTrainingRanksPositivesHigher(t *testing.T) {
	d := tinyDataset(t)
	m := NewBPRMF(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(3)
	u := 0
	for e := 0; e < 25; e++ {
		m.TrainLocal(d, u, TrainOptions{Rand: r})
	}
	var pos, neg float64
	for _, it := range d.Train[u] {
		pos += m.score(m.userEmb.Row(u), it)
	}
	pos /= float64(len(d.Train[u]))
	for i := 0; i < 50; i++ {
		neg += m.score(m.userEmb.Row(u), d.SampleNegative(r, u))
	}
	neg /= 50
	if pos <= neg {
		t.Fatalf("BPR did not separate positives: pos=%.3f neg=%.3f", pos, neg)
	}
}

func TestBPRMFHitRatioImproves(t *testing.T) {
	d := tinyDataset(t)
	m := NewBPRMF(d.NumUsers, d.NumItems, 8, 3)
	before := HitRatioAtK(m, d, 10, 40, EvalOptions{Seed: 2, Workers: -1})
	r := mathx.NewRand(1)
	for e := 0; e < 15; e++ {
		for u := 0; u < d.NumUsers; u++ {
			m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	after := HitRatioAtK(m, d, 10, 40, EvalOptions{Seed: 2, Workers: -1})
	if after <= before {
		t.Fatalf("training did not improve HR: %.3f -> %.3f", before, after)
	}
}

func TestBPRMFFictiveUser(t *testing.T) {
	d := tinyDataset(t)
	m := NewBPRMF(d.NumUsers, d.NumItems, 8, 2)
	r := mathx.NewRand(5)
	for u := 0; u < 8; u++ {
		for e := 0; e < 10; e++ {
			m.TrainLocal(d, u, TrainOptions{Rand: r})
		}
	}
	target := d.Train[0]
	vec := fitFictive(m, target, TrainOptions{Rand: r, Epochs: 15})
	random := make([]float64, 8)
	mathx.FillNormal(mathx.NewRand(99), random, 0, bprmfInitStd)
	if m.RelevanceWithUserVec(vec, target) <= m.RelevanceWithUserVec(random, target) {
		t.Fatal("fictive user no better than random")
	}
}

func TestBPRMFPerExampleClipBoundsUpdate(t *testing.T) {
	d := tinyDataset(t)
	const clip = 1e-3
	m := NewBPRMF(d.NumUsers, d.NumItems, 8, 2)
	before := m.Params().Clone()
	m.TrainLocal(d, 0, TrainOptions{Rand: mathx.NewRand(4), PerExampleClip: clip, L2: -1})
	diff := m.Params().Clone()
	diff.Axpy(-1, before)
	steps := float64(len(d.Train[0]) * 4)
	if got := diff.L2Norm(); got > steps*bprmfDefaultLR*clip*1.0001 {
		t.Fatalf("clipped update norm %.6f too large", got)
	}
}

func TestBPRMFShareLessDrift(t *testing.T) {
	d := tinyDataset(t)
	mFree := NewBPRMF(d.NumUsers, d.NumItems, 8, 7)
	mDrift := mFree.Clone().(*BPRMF)
	ref := mFree.Params().Clone()
	r1, r2 := mathx.NewRand(8), mathx.NewRand(8)
	for e := 0; e < 10; e++ {
		mFree.TrainLocal(d, 0, TrainOptions{Rand: r1})
		mDrift.TrainLocal(d, 0, TrainOptions{Rand: r2, DriftTau: 2, DriftRef: ref})
	}
	dist := func(m *BPRMF) float64 {
		cur := m.Params().Get(BPRMFItemEmb)
		old := ref.Get(BPRMFItemEmb)
		var s float64
		for i := range cur {
			dd := cur[i] - old[i]
			s += dd * dd
		}
		return s
	}
	if dist(mDrift) >= dist(mFree) {
		t.Fatal("drift regularizer ineffective for BPR-MF")
	}
}
