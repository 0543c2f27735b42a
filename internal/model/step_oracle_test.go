package model

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
)

// The oracles below are frozen copies of GMF.sgdStep, PRME.bprStep and
// GMF.TrainLocal as they were before the steps were fused into single
// per-coordinate passes. The fused steps must stay bit-identical to
// them; never edit an oracle to follow the production code.

// oracleGMFStep is the two-loop GMF BCE step with explicit gradient
// buffers.
func oracleGMFStep(m *GMF, u, item int, label float64, opt TrainOptions) {
	p := m.userEmb.Row(u)
	q := m.itemEmb.Row(item)
	g := mathx.Sigmoid(mathx.Dot3(m.h, p, q)+m.bias[0]) - label

	dP := make([]float64, m.dim)
	dQ := make([]float64, m.dim)
	dH := make([]float64, m.dim)
	var sq float64
	for k := 0; k < m.dim; k++ {
		dP[k] = g * m.h[k] * q[k]
		dQ[k] = g * m.h[k] * p[k]
		dH[k] = g * p[k] * q[k]
		sq += dP[k]*dP[k] + dQ[k]*dQ[k] + dH[k]*dH[k]
	}
	sq += g * g
	scale := 1.0
	if opt.PerExampleClip > 0 {
		norm := math.Sqrt(sq)
		if norm > opt.PerExampleClip {
			scale = opt.PerExampleClip / norm
		}
	}
	lr := opt.LR * scale
	for k := 0; k < m.dim; k++ {
		p[k] -= lr*dP[k] + opt.LR*opt.L2*p[k]
		q[k] -= lr*dQ[k] + opt.LR*opt.L2*q[k]
		m.h[k] -= lr * dH[k]
	}
	m.bias[0] -= lr * g

	if opt.DriftTau > 0 {
		ref := opt.DriftRef.Get(GMFItemEmb)
		base := item * m.dim
		mathx.DriftToward(opt.LR*2*opt.DriftTau, ref[base:base+m.dim], q)
	}
}

// oracleGMFTrainLocal is GMF.TrainLocal over oracleGMFStep, with the
// per-call shuffle buffer.
func oracleGMFTrainLocal(m *GMF, d *dataset.Dataset, u int, opt TrainOptions) {
	opt = opt.withDefaults(gmfDefaultLR, gmfDefaultL2)
	items := d.Train[u]
	if len(items) == 0 {
		return
	}
	order := make([]int, len(items))
	copy(order, items)
	for e := 0; e < opt.Epochs; e++ {
		mathx.Shuffle(opt.Rand, order)
		for _, pos := range order {
			oracleGMFStep(m, u, pos, 1, opt)
			for n := 0; n < opt.NegPerPos; n++ {
				oracleGMFStep(m, u, d.SampleNegative(opt.Rand, u), 0, opt)
			}
		}
	}
}

// oraclePRMEScore is the two-space score: prev < 0 drops the sequential
// term.
func oraclePRMEScore(m *PRME, uvec []float64, prev, item int) float64 {
	s := m.alpha * mathx.SqDist(uvec, m.itemPref.Row(item))
	if prev >= 0 {
		s += (1 - m.alpha) * mathx.SqDist(m.itemSeq.Row(prev), m.itemSeq.Row(item))
	}
	return -s
}

// oraclePRMEStep is the multi-loop PRME ranking step with explicit
// gradient buffers and separate norm passes.
func oraclePRMEStep(m *PRME, u, prev, pos, neg int, opt TrainOptions) {
	uvec := m.userEmb.Row(u)
	z := oraclePRMEScore(m, uvec, prev, pos) - oraclePRMEScore(m, uvec, prev, neg)
	g := -mathx.Sigmoid(-z)

	lp, ln := m.itemPref.Row(pos), m.itemPref.Row(neg)
	dim := m.dim
	grad := make([]float64, 6*dim)
	dU := grad[0*dim : 1*dim]
	dLp := grad[1*dim : 2*dim]
	dLn := grad[2*dim : 3*dim]
	var dSprev, dSp, dSn []float64
	var sp, spos, sneg []float64
	for k := 0; k < dim; k++ {
		dp := uvec[k] - lp[k]
		dn := uvec[k] - ln[k]
		dU[k] = g * (-2*m.alpha*dp + 2*m.alpha*dn)
		dLp[k] = g * (2 * m.alpha * dp)
		dLn[k] = g * (-2 * m.alpha * dn)
	}
	if prev >= 0 {
		sp = m.itemSeq.Row(prev)
		spos = m.itemSeq.Row(pos)
		sneg = m.itemSeq.Row(neg)
		dSprev = grad[3*dim : 4*dim]
		dSp = grad[4*dim : 5*dim]
		dSn = grad[5*dim : 6*dim]
		for k := 0; k < dim; k++ {
			dp := sp[k] - spos[k]
			dn := sp[k] - sneg[k]
			dSprev[k] = g * (-2*(1-m.alpha)*dp + 2*(1-m.alpha)*dn)
			dSp[k] = g * (2 * (1 - m.alpha) * dp)
			dSn[k] = g * (-2 * (1 - m.alpha) * dn)
		}
	}

	scale := 1.0
	if opt.PerExampleClip > 0 {
		var sq float64
		for _, grad := range [][]float64{dU, dLp, dLn, dSprev, dSp, dSn} {
			for _, v := range grad {
				sq += v * v
			}
		}
		if norm := math.Sqrt(sq); norm > opt.PerExampleClip {
			scale = opt.PerExampleClip / norm
		}
	}
	lr := opt.LR * scale
	for k := 0; k < dim; k++ {
		uvec[k] -= lr*dU[k] + opt.LR*opt.L2*uvec[k]
		lp[k] -= lr*dLp[k] + opt.LR*opt.L2*lp[k]
		ln[k] -= lr*dLn[k] + opt.LR*opt.L2*ln[k]
	}
	mathx.ClipL2(uvec, prmeMaxNorm)
	mathx.ClipL2(lp, prmeMaxNorm)
	mathx.ClipL2(ln, prmeMaxNorm)
	if prev >= 0 {
		for k := 0; k < dim; k++ {
			sp[k] -= lr*dSprev[k] + opt.LR*opt.L2*sp[k]
			spos[k] -= lr*dSp[k] + opt.LR*opt.L2*spos[k]
			sneg[k] -= lr*dSn[k] + opt.LR*opt.L2*sneg[k]
		}
		mathx.ClipL2(sp, prmeMaxNorm)
		mathx.ClipL2(spos, prmeMaxNorm)
		mathx.ClipL2(sneg, prmeMaxNorm)
	}

	if opt.DriftTau > 0 {
		drift := func(item int, entry string, mat *mathx.Matrix) {
			ref := opt.DriftRef.Get(entry)
			base := item * m.dim
			mathx.DriftToward(opt.LR*2*opt.DriftTau, ref[base:base+m.dim], mat.Row(item))
		}
		drift(pos, PRMEItemEmbPref, m.itemPref)
		drift(neg, PRMEItemEmbPref, m.itemPref)
		if prev >= 0 {
			drift(prev, PRMEItemEmbSeq, m.itemSeq)
			drift(pos, PRMEItemEmbSeq, m.itemSeq)
			drift(neg, PRMEItemEmbSeq, m.itemSeq)
		}
	}
}

// requireSameParams fails unless a and b hold bit-identical values.
func requireSameParams(t *testing.T, what string, a, b *param.Set) {
	t.Helper()
	for i := 0; i < a.Len(); i++ {
		ea, eb := a.At(i), b.At(i)
		for j := range ea.Data {
			if math.Float64bits(ea.Data[j]) != math.Float64bits(eb.Data[j]) {
				t.Fatalf("%s: %s[%d] = %v, oracle %v", what, ea.Name, j, ea.Data[j], eb.Data[j])
			}
		}
	}
}

// stepOptions are the option sets the step tests cycle through: the
// defaults, custom LR/L2, a per-example clip tight enough to bite and
// one too loose to, and the Share-less drift. LR is large so that the
// PRME unit-ball clips fire.
func stepOptions(ref *param.Set) []TrainOptions {
	return []TrainOptions{
		{},
		{LR: 0.7, L2: 0.03},
		{LR: 0.9, L2: -1},
		{LR: 0.5, PerExampleClip: 0.05},
		{LR: 0.5, PerExampleClip: 50},
		{LR: 0.4, DriftTau: 0.3, DriftRef: ref},
		{LR: 0.6, L2: 0.01, PerExampleClip: 0.2, DriftTau: 0.1, DriftRef: ref},
	}
}

// perturbed returns a copy of s with every value moved by N(0, sd).
func perturbed(s *param.Set, r *rand.Rand, sd float64) *param.Set {
	c := s.Clone()
	for i := 0; i < c.Len(); i++ {
		for j := range c.At(i).Data {
			c.At(i).Data[j] += mathx.Normal(r, 0, sd)
		}
	}
	return c
}

func TestGMFStepMatchesOracle(t *testing.T) {
	const users, items = 5, 9
	for _, dim := range []int{1, 5, 8} {
		r := mathx.NewRand(uint64(dim))
		m := NewGMF(users, items, dim, 11)
		o := m.Clone().(*GMF)
		ref := perturbed(m.Params(), r, 0.3)
		opts := stepOptions(ref)
		for step := 0; step < 400; step++ {
			opt := opts[step%len(opts)]
			opt.Rand = r
			opt = opt.withDefaults(gmfDefaultLR, gmfDefaultL2)
			u, item, label := r.IntN(users), r.IntN(items), float64(r.IntN(2))
			m.sgdStep(u, item, label, &opt, opt.driftRows(GMFItemEmb))
			oracleGMFStep(o, u, item, label, opt)
			requireSameParams(t, "gmf step", m.Params(), o.Params())
		}
	}
}

func TestGMFTrainLocalMatchesOracle(t *testing.T) {
	d := tinyDataset(t)
	m := NewGMF(d.NumUsers, d.NumItems, 6, 3)
	o := m.Clone().(*GMF)
	ref := perturbed(m.Params(), mathx.NewRand(4), 0.2)
	for i, base := range stepOptions(ref) {
		base.Epochs = 2
		for u := 0; u < d.NumUsers; u++ {
			opt := base
			opt.Rand = mathx.NewRand(uint64(100*i + u))
			m.TrainLocal(d, u, opt)
			opt.Rand = mathx.NewRand(uint64(100*i + u))
			oracleGMFTrainLocal(o, d, u, opt)
		}
		requireSameParams(t, "gmf TrainLocal", m.Params(), o.Params())
	}
}

func TestPRMEStepMatchesOracle(t *testing.T) {
	const users, items = 4, 7
	for _, dim := range []int{1, 3, 8} {
		r := mathx.NewRand(uint64(40 + dim))
		m := NewPRME(users, items, dim, 13)
		// Start outside the unit ball so the first steps clip.
		mathx.Scale(6, m.userEmb.Data)
		mathx.Scale(6, m.itemPref.Data)
		mathx.Scale(6, m.itemSeq.Data)
		o := m.Clone().(*PRME)
		ref := perturbed(m.Params(), r, 0.3)
		opts := stepOptions(ref)
		for step := 0; step < 600; step++ {
			opt := opts[step%len(opts)]
			opt.Rand = r
			opt = opt.withDefaults(prmeDefaultLR, prmeDefaultL2)
			u, pos, neg := r.IntN(users), r.IntN(items), r.IntN(items)
			var prev int
			// Cycle through no context, the aliased prev == pos and
			// prev == neg rows, pos == neg, and distinct rows.
			switch step % 5 {
			case 0:
				prev = -1
			case 1:
				prev = pos
			case 2:
				prev = neg
			case 3:
				prev, neg = r.IntN(items), pos
			default:
				prev = r.IntN(items)
			}
			m.bprStep(u, prev, pos, neg, &opt, opt.driftRows(PRMEItemEmbPref), opt.driftRows(PRMEItemEmbSeq))
			oraclePRMEStep(o, u, prev, pos, neg, opt)
			requireSameParams(t, "prme step", m.Params(), o.Params())
		}
	}
}
