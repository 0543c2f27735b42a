package model

import (
	"math"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
)

// Parameter-entry names shared with defenses and attacks.
const (
	GMFUserEmb = "gmf/user_emb"
	GMFItemEmb = "gmf/item_emb"
	GMFOutput  = "gmf/h"
	GMFBias    = "gmf/bias"
)

// GMF is Generalized Matrix Factorization (He et al., "Neural
// Collaborative Filtering", WWW 2017): the prediction for (u, i) is
//
//	ŷ_ui = σ( h · (p_u ⊙ q_i) + b )
//
// trained with binary cross-entropy over observed interactions plus
// sampled negatives.
type GMF struct {
	users, items, dim int
	userEmb           *mathx.Matrix // users × dim (p)
	itemEmb           *mathx.Matrix // items × dim (q)
	h                 []float64     // dim
	bias              []float64     // 1
	set               *param.Set

	// order is TrainLocal's shuffle buffer, reused across calls. Models
	// are not goroutine-safe; each simulated client/worker owns its own
	// copy.
	order []int
	// wuser holds the h-weighted user vector h ⊙ p_u the batched
	// scoring kernels dot against item rows; scoreBuf is the grown-on-
	// demand per-item staging area of the relevance/predict sweeps.
	wuser, scoreBuf []float64
	// fictiveMask is PlanFictiveUser's item-membership scratch, lanes
	// FitFictiveUsers' workspace.
	fictiveMask []bool
	lanes       fictiveLanes
}

var _ Recommender = (*GMF)(nil)

// GMF hyper-parameters following the NCF reference implementation.
const (
	gmfDefaultLR = 0.05
	gmfDefaultL2 = 1e-5
	gmfInitStd   = 0.1
)

// NewGMF returns a randomly initialized GMF model.
func NewGMF(numUsers, numItems, dim int, seed uint64) *GMF {
	if numUsers <= 0 || numItems <= 0 || dim <= 0 {
		panic("model: NewGMF requires positive sizes")
	}
	r := mathx.NewRand(seed)
	m := &GMF{
		users:   numUsers,
		items:   numItems,
		dim:     dim,
		userEmb: mathx.NewMatrix(numUsers, dim),
		itemEmb: mathx.NewMatrix(numItems, dim),
		h:       make([]float64, dim),
		bias:    make([]float64, 1),
		wuser:   make([]float64, dim),
	}
	mathx.FillNormal(r, m.userEmb.Data, 0, gmfInitStd)
	mathx.FillNormal(r, m.itemEmb.Data, 0, gmfInitStd)
	// h starts at 1 (plus jitter): GMF then begins as a plain MF dot
	// product, which keeps the p⊙q gradient path alive from step one.
	// A small-h initialization starves the embedding gradients and the
	// model degenerates to fitting the global bias.
	for i := range m.h {
		m.h[i] = 1 + mathx.Normal(r, 0, 0.01)
	}
	m.set = param.New()
	m.set.AddMatrix(GMFUserEmb, m.userEmb)
	m.set.AddMatrix(GMFItemEmb, m.itemEmb)
	m.set.AddVector(GMFOutput, m.h)
	m.set.AddVector(GMFBias, m.bias)
	return m
}

// NewGMFFactory returns a Factory producing GMF models of this shape.
func NewGMFFactory(numUsers, numItems, dim int) Factory {
	return func(seed uint64) Recommender { return NewGMF(numUsers, numItems, dim, seed) }
}

func (m *GMF) Name() string       { return "gmf" }
func (m *GMF) Params() *param.Set { return m.set }
func (m *GMF) NumUsers() int      { return m.users }
func (m *GMF) NumItems() int      { return m.items }

// Clone returns a deep copy with fresh storage.
func (m *GMF) Clone() Recommender {
	c := &GMF{
		users:   m.users,
		items:   m.items,
		dim:     m.dim,
		userEmb: m.userEmb.Clone(),
		itemEmb: m.itemEmb.Clone(),
		h:       append([]float64(nil), m.h...),
		bias:    append([]float64(nil), m.bias...),
		wuser:   make([]float64, m.dim),
	}
	c.set = param.New()
	c.set.AddMatrix(GMFUserEmb, c.userEmb)
	c.set.AddMatrix(GMFItemEmb, c.itemEmb)
	c.set.AddVector(GMFOutput, c.h)
	c.set.AddVector(GMFBias, c.bias)
	return c
}

// logit computes h·(uvec ⊙ q_i) + b.
func (m *GMF) logit(uvec []float64, item int) float64 {
	q := m.itemEmb.Row(item)
	return mathx.Dot3(m.h, uvec, q) + m.bias[0]
}

// Predict returns σ(logit) for (owner, item).
func (m *GMF) Predict(owner, item int) float64 {
	return mathx.Sigmoid(m.logit(m.userEmb.Row(owner), item))
}

// Relevance is the mean predicted score over items for owner (Eq. 3's
// Ŷ). An empty item set scores 0.
func (m *GMF) Relevance(owner int, items []int) float64 {
	return m.RelevanceWithUserVec(m.userEmb.Row(owner), items)
}

// weightedUser fills the wuser scratch with h ⊙ vec: the logit
// h·(p ⊙ q) + b factors as (h ⊙ p)·q + b, so one Hadamard per user
// turns the full-catalogue sweep into a single matrix-vector product.
// The products (h[k]*p[k])*q[k] round exactly as the scalar logit's
// h[k]*p[k]*q[k] (Go evaluates left to right), so only the kernel's
// documented accumulation order distinguishes the two paths.
func (m *GMF) weightedUser(vec []float64) []float64 {
	mathx.Hadamard(m.h, vec, m.wuser)
	return m.wuser
}

// RelevanceWithUserVec scores items against an explicit user vector,
// batched: one gathered matrix-vector product and a sigmoid pass over
// a model-owned buffer.
func (m *GMF) RelevanceWithUserVec(vec []float64, items []int) float64 {
	if len(items) == 0 {
		return 0
	}
	m.scoreBuf = growFloats(m.scoreBuf, len(items))
	buf := m.scoreBuf
	mathx.GemvRows(m.itemEmb, items, m.weightedUser(vec), nil, buf)
	mathx.AddScalar(m.bias[0], buf)
	mathx.SigmoidInto(buf, buf)
	return mathx.Sum(buf) / float64(len(items))
}

// RelevanceTargets implements TargetRelevancer.
func (m *GMF) RelevanceTargets(owner int, targets [][]int, dst []float64) {
	relevanceTargets(m, owner, targets, dst)
}

// catalogueRelevance is σ(logit) for every catalogue item, the per-item
// value RelevanceWithUserVec averages.
func (m *GMF) catalogueRelevance(owner int) []float64 {
	m.scoreBuf = growFloats(m.scoreBuf, m.items)
	m.ScoreAll(owner, -1, m.scoreBuf)
	mathx.SigmoidInto(m.scoreBuf, m.scoreBuf)
	return m.scoreBuf
}

// ScoreItems ranks candidates by raw logit on the batched kernels;
// prev is ignored (GMF is not sequence-aware).
func (m *GMF) ScoreItems(owner, prev int, items []int, dst []float64) {
	mathx.GemvRows(m.itemEmb, items, m.weightedUser(m.userEmb.Row(owner)), nil, dst)
	mathx.AddScalar(m.bias[0], dst)
}

// ScoreAll scores the full catalogue in one blocked matrix-vector
// product over the item table.
func (m *GMF) ScoreAll(owner, prev int, dst []float64) {
	mathx.Gemv(m.itemEmb, m.weightedUser(m.userEmb.Row(owner)), nil, dst)
	mathx.AddScalar(m.bias[0], dst)
}

// PredictItems is the batched Predict: σ over the batched logits.
func (m *GMF) PredictItems(owner int, items []int, dst []float64) {
	m.ScoreItems(owner, -1, items, dst)
	mathx.SigmoidInto(dst, dst)
}

func (m *GMF) PrivateEntries() []string { return []string{GMFUserEmb} }
func (m *GMF) ItemEntries() []string    { return []string{GMFItemEmb} }

// TrainLocal runs opt.Epochs passes of BCE SGD with negative sampling
// over user u's training items, updating u's embedding row, the
// touched item embeddings, h and the bias — exactly the parameters a
// FedRec client owns during a round.
func (m *GMF) TrainLocal(d *dataset.Dataset, u int, opt TrainOptions) {
	opt = opt.withDefaults(gmfDefaultLR, gmfDefaultL2)
	items := d.Train[u]
	if len(items) == 0 {
		return
	}
	m.order = append(m.order[:0], items...)
	ref := opt.driftRows(GMFItemEmb)
	for e := 0; e < opt.Epochs; e++ {
		mathx.Shuffle(opt.Rand, m.order)
		for _, pos := range m.order {
			m.sgdStep(u, pos, 1, &opt, ref)
			for n := 0; n < opt.NegPerPos; n++ {
				m.sgdStep(u, d.SampleNegative(opt.Rand, u), 0, &opt, ref)
			}
		}
	}
}

// sgdStep applies one (user, item, label) BCE gradient step. The
// gradients dP = g·h⊙q, dQ = g·h⊙p, dH = g·p⊙q and dB = g are formed
// and applied coordinate by coordinate in one pass: coordinate k's
// gradient reads only coordinate k's pre-step values, so the fused pass
// is bit-identical to building every gradient first. A per-example clip
// needs the whole gradient's norm before any update, which a separate
// pass computes. ref is the drift reference of the item table (nil when
// the drift regularizer is off).
func (m *GMF) sgdStep(u, item int, label float64, opt *TrainOptions, ref []float64) {
	p := m.userEmb.Row(u)
	q := m.itemEmb.Row(item)
	h := m.h
	p, q = p[:len(h)], q[:len(h)]
	g := mathx.Sigmoid(m.logit(p, item)) - label // dL/dlogit

	lr := opt.LR
	if opt.PerExampleClip > 0 {
		var sq float64
		for k := range h {
			dP := g * h[k] * q[k]
			dQ := g * h[k] * p[k]
			dH := g * p[k] * q[k]
			sq += dP*dP + dQ*dQ + dH*dH
		}
		sq += g * g
		if norm := math.Sqrt(sq); norm > opt.PerExampleClip {
			lr = opt.LR * (opt.PerExampleClip / norm)
		}
	}
	decay := opt.LR * opt.L2
	for k := range h {
		hk, pk, qk := h[k], p[k], q[k]
		p[k] = pk - (lr*(g*hk*qk) + decay*pk)
		q[k] = qk - (lr*(g*hk*pk) + decay*qk)
		h[k] = hk - lr*(g*pk*qk)
	}
	m.bias[0] -= lr * g

	// Share-less drift regularizer (Eq. 2): pull the touched item
	// embedding towards its reference value.
	if ref != nil {
		base := item * m.dim
		mathx.DriftToward(opt.LR*2*opt.DriftTau, ref[base:base+m.dim], q)
	}
}

// PlanFictiveUser draws the starting vector and the negatives of a
// fictive-user fit (see Recommender).
func (m *GMF) PlanFictiveUser(items []int, opt TrainOptions, plan *FictivePlan) {
	opt = opt.withDefaults(gmfDefaultLR, gmfDefaultL2)
	planFictive(plan, &m.fictiveMask, m.items, m.dim, gmfInitStd, items, opt)
}

// FitFictiveUsers trains fresh user vectors on the fabricated
// interaction matrices R_A = {(A, i) : i ∈ items} of the planned
// targets, holding item embeddings, h and bias fixed (§IV-C).
func (m *GMF) FitFictiveUsers(plans []FictivePlan, dst [][]float64, ready <-chan int) {
	m.lanes.fit(m, false, m.dim, plans, dst, ready)
}

// fictiveLogits implements laneFitter. It runs four lanes' logits
// side by side: each is Dot3's strictly sequential sum, and four
// independent sums share the add latency one sum waits out alone (a
// mathx kernel taking the four lanes measured slower than this loop).
// The lanes' item rows stay in w.rows for the update.
func (m *GMF) fictiveLogits(w *fictiveLanes) {
	h, b := m.h, m.bias[0]
	n := len(w.vec)
	rows, x := w.rows[:n], w.x[:n]
	for i := range rows {
		item, _ := w.item(i)
		rows[i] = m.itemEmb.Row(item)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		v0, q0 := w.vec[i][:len(h)], rows[i][:len(h)]
		v1, q1 := w.vec[i+1][:len(h)], rows[i+1][:len(h)]
		v2, q2 := w.vec[i+2][:len(h)], rows[i+2][:len(h)]
		v3, q3 := w.vec[i+3][:len(h)], rows[i+3][:len(h)]
		var s0, s1, s2, s3 float64
		for k, hk := range h {
			s0 += hk * v0[k] * q0[k]
			s1 += hk * v1[k] * q1[k]
			s2 += hk * v2[k] * q2[k]
			s3 += hk * v3[k] * q3[k]
		}
		x[i], x[i+1], x[i+2], x[i+3] = s0+b, s1+b, s2+b, s3+b
	}
	for ; i < n; i++ {
		x[i] = mathx.Dot3(h, w.vec[i], rows[i]) + b
	}
}

// fictiveUpdates implements laneFitter: the BCE step on every lane's
// user vector, with dL/dlogit = σ − label, in one batched call.
func (m *GMF) fictiveUpdates(w *fictiveLanes) {
	g := w.x[:len(w.vec)]
	for i := range g {
		_, label := w.item(i)
		g[i] -= label
	}
	mathx.DecayStep3Rows(w.lr, w.l2, g, m.h, w.rows[:len(g)], w.vec)
}
