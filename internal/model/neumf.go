package model

import (
	"math"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
)

// Parameter-entry names shared with defenses and attacks.
const (
	NeuMFUserEmbGMF = "neumf/user_emb_gmf"
	NeuMFItemEmbGMF = "neumf/item_emb_gmf"
	NeuMFUserEmbMLP = "neumf/user_emb_mlp"
	NeuMFItemEmbMLP = "neumf/item_emb_mlp"
	NeuMFW1         = "neumf/w1"
	NeuMFB1         = "neumf/b1"
	NeuMFW2         = "neumf/w2"
	NeuMFB2         = "neumf/b2"
	NeuMFOutput     = "neumf/h"
	NeuMFBias       = "neumf/bias"
)

// NeuMF is Neural Matrix Factorization (He et al., WWW 2017), the NCF
// paper's flagship model fusing two towers:
//
//   - a GMF tower producing the element-wise product p_g ⊙ q_g;
//   - an MLP tower feeding [p_m ; q_m] through two ReLU layers
//     (2d → d → d/2);
//
// the towers' outputs are concatenated and projected:
//
//	ŷ_ui = σ( h · [ p_g⊙q_g ; φ(u,i) ] + b ).
//
// The paper evaluates GMF; NeuMF is included as an extension family to
// show CIA transfers to deeper recommendation models unchanged. All
// gradients are hand-derived (see the numerical check in the tests).
type NeuMF struct {
	users, items, dim int // dim = d (GMF and MLP embedding width)
	h1, h2            int // MLP hidden widths: h1 = dim, h2 = dim/2

	userG, itemG *mathx.Matrix // GMF tower embeddings (users/items × dim)
	userM, itemM *mathx.Matrix // MLP tower embeddings (users/items × dim)
	w1           *mathx.Matrix // h1 × 2dim
	b1           []float64     // h1
	w2           *mathx.Matrix // h2 × h1
	b2           []float64     // h2
	h            []float64     // dim + h2
	bias         []float64     // 1
	set          *param.Set

	// forward scratch (models are not goroutine-safe).
	in1, a1, a2 []float64
	// backprop scratch (delta2 | delta1 | dIn), allocated lazily so
	// Clone and the constructor stay oblivious.
	grad []float64
	// batched-scoring scratch: wg is the h-weighted GMF user vector,
	// uPart the user half of the first MLP layer (W1[:, :dim]·p_m + b1)
	// hoisted once per scored user, scoreBuf the grown-on-demand
	// per-item staging area. Allocated lazily by scoreBatch.
	wg, uPart, scoreBuf []float64
	// fictiveMask is PlanFictiveUser's item-membership scratch.
	fictiveMask []bool
}

// gradViews carves the lazily-allocated backprop workspace into its
// delta2, delta1 and dIn views. delta2 is zeroed here because callers
// only write its positive-activation entries; delta1 and dIn are fully
// overwritten by MulVecT.
func (m *NeuMF) gradViews() (delta2, delta1, dIn []float64) {
	if m.grad == nil {
		m.grad = make([]float64, m.h2+m.h1+2*m.dim)
	}
	delta2 = m.grad[0:m.h2]
	delta1 = m.grad[m.h2 : m.h2+m.h1]
	dIn = m.grad[m.h2+m.h1:]
	for j := range delta2 {
		delta2[j] = 0
	}
	return delta2, delta1, dIn
}

var _ Recommender = (*NeuMF)(nil)

const (
	neumfDefaultLR = 0.05
	neumfDefaultL2 = 1e-5
	neumfInitStd   = 0.1
)

// NewNeuMF returns a randomly initialized NeuMF model. dim must be
// even (the second hidden layer has dim/2 units).
func NewNeuMF(numUsers, numItems, dim int, seed uint64) *NeuMF {
	if numUsers <= 0 || numItems <= 0 || dim <= 0 {
		panic("model: NewNeuMF requires positive sizes")
	}
	if dim%2 != 0 {
		panic("model: NewNeuMF requires an even embedding dim")
	}
	r := mathx.NewRand(seed)
	h1, h2 := dim, dim/2
	m := &NeuMF{
		users: numUsers, items: numItems, dim: dim, h1: h1, h2: h2,
		userG: mathx.NewMatrix(numUsers, dim),
		itemG: mathx.NewMatrix(numItems, dim),
		userM: mathx.NewMatrix(numUsers, dim),
		itemM: mathx.NewMatrix(numItems, dim),
		w1:    mathx.NewMatrix(h1, 2*dim),
		b1:    make([]float64, h1),
		w2:    mathx.NewMatrix(h2, h1),
		b2:    make([]float64, h2),
		h:     make([]float64, dim+h2),
		bias:  make([]float64, 1),
		in1:   make([]float64, 2*dim),
		a1:    make([]float64, h1),
		a2:    make([]float64, h2),
	}
	mathx.FillNormal(r, m.userG.Data, 0, neumfInitStd)
	mathx.FillNormal(r, m.itemG.Data, 0, neumfInitStd)
	mathx.FillNormal(r, m.userM.Data, 0, neumfInitStd)
	mathx.FillNormal(r, m.itemM.Data, 0, neumfInitStd)
	mathx.FillNormal(r, m.w1.Data, 0, math.Sqrt(2/float64(2*dim)))
	mathx.FillNormal(r, m.w2.Data, 0, math.Sqrt(2/float64(h1)))
	// As with GMF, the output weights start near 1 on the GMF half so
	// the multiplicative path carries gradient from the first step;
	// the MLP half starts small.
	for i := range m.h {
		if i < dim {
			m.h[i] = 1 + mathx.Normal(r, 0, 0.01)
		} else {
			m.h[i] = mathx.Normal(r, 0, 0.1)
		}
	}
	m.set = param.New()
	m.set.AddMatrix(NeuMFUserEmbGMF, m.userG)
	m.set.AddMatrix(NeuMFItemEmbGMF, m.itemG)
	m.set.AddMatrix(NeuMFUserEmbMLP, m.userM)
	m.set.AddMatrix(NeuMFItemEmbMLP, m.itemM)
	m.set.AddMatrix(NeuMFW1, m.w1)
	m.set.AddVector(NeuMFB1, m.b1)
	m.set.AddMatrix(NeuMFW2, m.w2)
	m.set.AddVector(NeuMFB2, m.b2)
	m.set.AddVector(NeuMFOutput, m.h)
	m.set.AddVector(NeuMFBias, m.bias)
	return m
}

// NewNeuMFFactory returns a Factory producing NeuMF models.
func NewNeuMFFactory(numUsers, numItems, dim int) Factory {
	return func(seed uint64) Recommender { return NewNeuMF(numUsers, numItems, dim, seed) }
}

func (m *NeuMF) Name() string       { return "neumf" }
func (m *NeuMF) Params() *param.Set { return m.set }
func (m *NeuMF) NumUsers() int      { return m.users }
func (m *NeuMF) NumItems() int      { return m.items }

// Clone returns a deep copy with fresh storage.
func (m *NeuMF) Clone() Recommender {
	c := NewNeuMF(m.users, m.items, m.dim, 0)
	c.set.CopyFrom(m.set)
	return c
}

// forward computes the logit for explicit user vectors (GMF half ug,
// MLP half um) against item it, filling the activation scratch.
func (m *NeuMF) forward(ug, um []float64, it int) float64 {
	qg, qm := m.itemG.Row(it), m.itemM.Row(it)
	copy(m.in1[:m.dim], um)
	copy(m.in1[m.dim:], qm)
	m.w1.MulVec(m.in1, m.a1)
	mathx.Axpy(1, m.b1, m.a1)
	mathx.ReLU(m.a1, m.a1)
	m.w2.MulVec(m.a1, m.a2)
	mathx.Axpy(1, m.b2, m.a2)
	mathx.ReLU(m.a2, m.a2)

	var s float64
	//lint:ignore mathxseam the logit accumulates both towers into one running sum whose order golden hashes pin
	for k := 0; k < m.dim; k++ {
		s += m.h[k] * ug[k] * qg[k]
	}
	//lint:ignore mathxseam continues the same golden-pinned accumulator across the tower boundary
	for j := 0; j < m.h2; j++ {
		s += m.h[m.dim+j] * m.a2[j]
	}
	return s + m.bias[0]
}

func (m *NeuMF) logit(owner, it int) float64 {
	return m.forward(m.userG.Row(owner), m.userM.Row(owner), it)
}

// Predict returns σ(logit).
func (m *NeuMF) Predict(owner, item int) float64 {
	return mathx.Sigmoid(m.logit(owner, item))
}

// Relevance is the mean predicted score over items (Eq. 3's Ŷ),
// computed on the batched scorer.
func (m *NeuMF) Relevance(owner int, items []int) float64 {
	if len(items) == 0 {
		return 0
	}
	m.scoreBuf = growFloats(m.scoreBuf, len(items))
	buf := m.scoreBuf
	m.scoreBatch(m.userG.Row(owner), m.userM.Row(owner), items, buf)
	mathx.SigmoidInto(buf, buf)
	return mathx.Sum(buf) / float64(len(items))
}

// RelevanceTargets implements TargetRelevancer.
func (m *NeuMF) RelevanceTargets(owner int, targets [][]int, dst []float64) {
	relevanceTargets(m, owner, targets, dst)
}

// catalogueRelevance is σ(logit) for every catalogue item from one
// scoreBatch sweep, the per-item value Relevance averages.
func (m *NeuMF) catalogueRelevance(owner int) []float64 {
	m.scoreBuf = growFloats(m.scoreBuf, m.items)
	m.ScoreAll(owner, -1, m.scoreBuf)
	mathx.SigmoidInto(m.scoreBuf, m.scoreBuf)
	return m.scoreBuf
}

// scoreBatch writes the logit of every candidate into dst (items nil
// selects the full catalogue, dst then spans NumItems) for explicit
// tower user vectors ug/um.
//
// Unlike the training-path forward, the first MLP layer is split at
// the tower boundary: the user half W1[:, :dim]·p_m + b1 is hoisted
// into uPart once per call and only the item half W1[:, dim:]·q_m is
// recomputed per item, halving the layer-1 work of a catalogue sweep;
// the GMF tower likewise dots pre-weighted h ⊙ p_g against item rows.
// Every batched entry point (ScoreItems, ScoreAll, PredictItems, the
// relevance sweeps) routes through this one function, so batch and
// singleton scoring are bit-identical by construction.
func (m *NeuMF) scoreBatch(ug, um []float64, items []int, dst []float64) {
	dim, h1c, h2c := m.dim, m.h1, m.h2
	if m.wg == nil {
		m.wg = make([]float64, dim)
		m.uPart = make([]float64, h1c)
	}
	mathx.Hadamard(m.h[:dim], ug, m.wg)
	for j := 0; j < h1c; j++ {
		m.uPart[j] = mathx.Dot(m.w1.Row(j)[:dim], um) + m.b1[j]
	}
	hOut := m.h[dim:]
	n := len(dst)
	for i := 0; i < n; i++ {
		it := i
		if items != nil {
			it = items[i]
		}
		qg, qm := m.itemG.Row(it), m.itemM.Row(it)
		for j := 0; j < h1c; j++ {
			a := m.uPart[j] + mathx.Dot(m.w1.Row(j)[dim:], qm)
			if a < 0 {
				a = 0
			}
			m.a1[j] = a
		}
		for j := 0; j < h2c; j++ {
			a := mathx.Dot(m.w2.Row(j), m.a1) + m.b2[j]
			if a < 0 {
				a = 0
			}
			m.a2[j] = a
		}
		dst[i] = mathx.Dot(m.wg, qg) + mathx.Dot(hOut, m.a2) + m.bias[0]
	}
}

// RelevanceWithUserVec scores items against an explicit concatenated
// user vector [p_g ; p_m] of length 2·dim (as produced by
// FitFictiveUser), on the batched scorer.
func (m *NeuMF) RelevanceWithUserVec(vec []float64, items []int) float64 {
	if len(vec) != 2*m.dim {
		panic("model: NeuMF user vector must be [gmf ; mlp] of length 2*dim")
	}
	if len(items) == 0 {
		return 0
	}
	m.scoreBuf = growFloats(m.scoreBuf, len(items))
	buf := m.scoreBuf
	m.scoreBatch(vec[:m.dim], vec[m.dim:], items, buf)
	mathx.SigmoidInto(buf, buf)
	return mathx.Sum(buf) / float64(len(items))
}

// ScoreItems ranks candidates by raw logit on the batched scorer;
// prev is ignored.
func (m *NeuMF) ScoreItems(owner, prev int, items []int, dst []float64) {
	m.scoreBatch(m.userG.Row(owner), m.userM.Row(owner), items, dst)
}

// ScoreAll scores the full catalogue with per-user tower hoisting.
func (m *NeuMF) ScoreAll(owner, prev int, dst []float64) {
	m.scoreBatch(m.userG.Row(owner), m.userM.Row(owner), nil, dst)
}

// PredictItems is the batched Predict: σ over the batched logits.
func (m *NeuMF) PredictItems(owner int, items []int, dst []float64) {
	m.scoreBatch(m.userG.Row(owner), m.userM.Row(owner), items, dst)
	mathx.SigmoidInto(dst, dst)
}

func (m *NeuMF) PrivateEntries() []string {
	return []string{NeuMFUserEmbGMF, NeuMFUserEmbMLP}
}

func (m *NeuMF) ItemEntries() []string {
	return []string{NeuMFItemEmbGMF, NeuMFItemEmbMLP}
}

// TrainLocal runs BCE SGD with negative sampling, as for GMF.
func (m *NeuMF) TrainLocal(d *dataset.Dataset, u int, opt TrainOptions) {
	opt = opt.withDefaults(neumfDefaultLR, neumfDefaultL2)
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

// sgdStep applies one (user, item, label) BCE step through both towers.
func (m *NeuMF) sgdStep(u, it int, label float64, opt TrainOptions) {
	pg, pm := m.userG.Row(u), m.userM.Row(u)
	qg, qm := m.itemG.Row(it), m.itemM.Row(it)
	g := mathx.Sigmoid(m.forward(pg, pm, it)) - label // dL/dlogit
	// Forward left activations in m.in1 (MLP input), m.a1, m.a2.

	dim, h1c, h2c := m.dim, m.h1, m.h2

	// Output-layer deltas.
	// GMF half: dH[k] = g*pg[k]*qg[k]; dPg = g*h[k]*qg[k]; dQg = g*h[k]*pg[k].
	// MLP half: dH[dim+j] = g*a2[j]; delta2[j] = g*h[dim+j]*relu'(a2).
	delta2, delta1, dIn := m.gradViews()
	for j := 0; j < h2c; j++ {
		if m.a2[j] > 0 {
			delta2[j] = g * m.h[dim+j]
		}
	}
	m.w2.MulVecT(delta2, delta1)
	for j := 0; j < h1c; j++ {
		if m.a1[j] <= 0 {
			delta1[j] = 0
		}
	}
	// Input deltas: dIn = W1ᵀ · delta1 → split into dPm, dQm.
	m.w1.MulVecT(delta1, dIn)

	lr := opt.LR
	l2 := opt.LR * opt.L2

	// Per-example clipping: accumulate the squared norm of every
	// gradient component before applying (the same convention as GMF).
	if opt.PerExampleClip > 0 {
		var sq float64
		for k := 0; k < dim; k++ {
			dPg := g * m.h[k] * qg[k]
			dQg := g * m.h[k] * pg[k]
			dH := g * pg[k] * qg[k]
			sq += dPg*dPg + dQg*dQg + dH*dH
		}
		for j := 0; j < h2c; j++ {
			dH := g * m.a2[j]
			sq += dH*dH + delta2[j]*delta2[j]*(1+mathx.Dot(m.a1, m.a1))
		}
		for j := 0; j < h1c; j++ {
			sq += delta1[j] * delta1[j] * (1 + mathx.Dot(m.in1, m.in1))
		}
		//lint:ignore mathxseam clip-norm accumulation order is golden-pinned; Dot is unrolled and not bit-identical
		for k := 0; k < 2*dim; k++ {
			sq += dIn[k] * dIn[k]
		}
		sq += g * g
		if norm := math.Sqrt(sq); norm > opt.PerExampleClip {
			lr *= opt.PerExampleClip / norm
		}
	}

	// Apply GMF-half updates.
	for k := 0; k < dim; k++ {
		dPg := g * m.h[k] * qg[k]
		dQg := g * m.h[k] * pg[k]
		dH := g * pg[k] * qg[k]
		pg[k] -= lr*dPg + l2*pg[k]
		qg[k] -= lr*dQg + l2*qg[k]
		m.h[k] -= lr * dH
	}
	// Output layer over the MLP half.
	mathx.Axpy(-(lr * g), m.a2, m.h[dim:])
	m.bias[0] -= lr * g

	// W2/b2: dW2[j][i] = delta2[j]*a1[i].
	for j := 0; j < h2c; j++ {
		mathx.Axpy(-(lr * delta2[j]), m.a1, m.w2.Row(j))
		m.b2[j] -= lr * delta2[j]
	}
	// W1/b1: dW1[j][i] = delta1[j]*in1[i].
	for j := 0; j < h1c; j++ {
		mathx.Axpy(-(lr * delta1[j]), m.in1, m.w1.Row(j))
		m.b1[j] -= lr * delta1[j]
	}
	// MLP embeddings.
	for k := 0; k < dim; k++ {
		pm[k] -= lr*dIn[k] + l2*pm[k]
		qm[k] -= lr*dIn[dim+k] + l2*qm[k]
	}

	// Share-less drift regularizer on both item tables.
	if opt.DriftTau > 0 {
		for _, pair := range [2]struct {
			entry string
			row   []float64
		}{{NeuMFItemEmbGMF, qg}, {NeuMFItemEmbMLP, qm}} {
			ref := opt.DriftRef.Get(pair.entry)
			base := it * dim
			mathx.DriftToward(opt.LR*2*opt.DriftTau, ref[base:base+dim], pair.row)
		}
	}
}

// PlanFictiveUser draws the starting vectors of both towers and the
// negatives of a fictive-user fit (see Recommender).
func (m *NeuMF) PlanFictiveUser(items []int, opt TrainOptions, plan *FictivePlan) {
	opt = opt.withDefaults(neumfDefaultLR, neumfDefaultL2)
	planFictive(plan, &m.fictiveMask, m.items, 2*m.dim, neumfInitStd, items, opt)
}

// FitFictiveUser trains fresh user vectors for both towers against the
// target items (§IV-C) and returns them concatenated [p_g ; p_m].
func (m *NeuMF) FitFictiveUser(items []int, plan *FictivePlan, opt TrainOptions) []float64 {
	opt = opt.defaults(neumfDefaultLR, neumfDefaultL2)
	vec := plan.start(2 * m.dim)
	neg := plan.negatives(items, opt)
	ug, um := vec[:m.dim], vec[m.dim:]
	for e := 0; e < opt.Epochs; e++ {
		for _, pos := range items {
			m.fictiveStep(ug, um, pos, 1, opt)
			for _, it := range neg[:opt.NegPerPos] {
				m.fictiveStep(ug, um, int(it), 0, opt)
			}
			neg = neg[opt.NegPerPos:]
		}
	}
	return vec
}

// fictiveStep updates only the fictive user vectors, holding every
// model parameter fixed.
func (m *NeuMF) fictiveStep(ug, um []float64, it int, label float64, opt TrainOptions) {
	qg := m.itemG.Row(it)
	g := mathx.Sigmoid(m.forward(ug, um, it)) - label
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
