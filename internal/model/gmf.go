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

	// scratch buffers reused across SGD steps — one per gradient (dP,
	// dQ, dH) so a step is allocation-free. Models are not
	// goroutine-safe; each simulated client/worker owns its own copy.
	scratch, scratchQ, scratchH []float64
	// wuser holds the h-weighted user vector h ⊙ p_u the batched
	// scoring kernels dot against item rows; scoreBuf is the grown-on-
	// demand per-item staging area of the relevance/predict sweeps.
	wuser, scoreBuf []float64
	// fictiveMask is PlanFictiveUser's item-membership scratch.
	fictiveMask []bool
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
		users:    numUsers,
		items:    numItems,
		dim:      dim,
		userEmb:  mathx.NewMatrix(numUsers, dim),
		itemEmb:  mathx.NewMatrix(numItems, dim),
		h:        make([]float64, dim),
		bias:     make([]float64, 1),
		scratch:  make([]float64, dim),
		scratchQ: make([]float64, dim),
		scratchH: make([]float64, dim),
		wuser:    make([]float64, dim),
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
		users:    m.users,
		items:    m.items,
		dim:      m.dim,
		userEmb:  m.userEmb.Clone(),
		itemEmb:  m.itemEmb.Clone(),
		h:        append([]float64(nil), m.h...),
		bias:     append([]float64(nil), m.bias...),
		scratch:  make([]float64, m.dim),
		scratchQ: make([]float64, m.dim),
		scratchH: make([]float64, m.dim),
		wuser:    make([]float64, m.dim),
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
	order := make([]int, len(items))
	copy(order, items)
	for e := 0; e < opt.Epochs; e++ {
		mathx.Shuffle(opt.Rand, order)
		for _, pos := range order {
			m.sgdStep(u, pos, 1, opt)
			for n := 0; n < opt.NegPerPos; n++ {
				m.sgdStep(u, d.SampleNegative(opt.Rand, u), 0, opt)
			}
		}
	}
}

// sgdStep applies one (user, item, label) BCE gradient step.
func (m *GMF) sgdStep(u, item int, label float64, opt TrainOptions) {
	p := m.userEmb.Row(u)
	q := m.itemEmb.Row(item)
	g := mathx.Sigmoid(m.logit(p, item)) - label // dL/dlogit

	// Raw gradients (before clip): dP = g·h⊙q, dQ = g·h⊙p, dH = g·p⊙q, dB = g.
	dP := m.scratch
	dQ := m.scratchQ
	dH := m.scratchH
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

	// Share-less drift regularizer (Eq. 2): pull the touched item
	// embedding towards its reference value.
	if opt.DriftTau > 0 {
		ref := opt.DriftRef.Get(GMFItemEmb)
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

// FitFictiveUser trains a fresh user vector on the fabricated
// interaction matrix R_A = {(A, i) : i ∈ items}, holding item
// embeddings, h and bias fixed (§IV-C).
func (m *GMF) FitFictiveUser(items []int, plan *FictivePlan, opt TrainOptions) []float64 {
	opt = opt.defaults(gmfDefaultLR, gmfDefaultL2)
	vec := plan.start(m.dim)
	neg := plan.negatives(items, opt)
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			m.fictiveStep(vec, pos, 1, opt)
			for _, it := range neg[:opt.NegPerPos] {
				m.fictiveStep(vec, int(it), 0, opt)
			}
			neg = neg[opt.NegPerPos:]
		}
	}
	return vec
}

func (m *GMF) fictiveStep(vec []float64, item int, label float64, opt TrainOptions) {
	q := m.itemEmb.Row(item)
	g := mathx.Sigmoid(m.logit(vec, item)) - label
	//lint:ignore mathxseam fused fictive-user step couples vec into its own update; no bit-identical kernel exists yet
	for k := 0; k < m.dim; k++ {
		vec[k] -= opt.LR * (g*m.h[k]*q[k] + opt.L2*vec[k])
	}
}
