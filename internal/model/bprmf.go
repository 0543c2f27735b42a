package model

import (
	"math"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
)

// Parameter-entry names shared with defenses and attacks.
const (
	BPRMFUserEmb  = "bprmf/user_emb"
	BPRMFItemEmb  = "bprmf/item_emb"
	BPRMFItemBias = "bprmf/item_bias"
)

// BPRMF is matrix factorization trained with the Bayesian Personalized
// Ranking criterion (Rendle et al. 2009): score(u, i) = p_u · q_i + b_i,
// optimized so observed items outrank sampled negatives.
//
// The paper evaluates GMF and PRME; BPR-MF is included as an extension
// model (a third loss family) to check that CIA's leakage is not an
// artifact of a particular training objective. It satisfies the same
// Recommender contract, so every protocol, defense and attack works on
// it unchanged.
type BPRMF struct {
	users, items, dim int
	userEmb           *mathx.Matrix
	itemEmb           *mathx.Matrix
	itemBias          []float64
	set               *param.Set

	// grad is the per-step gradient workspace (3 dim-sized views),
	// allocated lazily so Clone and the constructor stay oblivious.
	// Models are not goroutine-safe; each client/worker owns a copy.
	grad []float64
	// scoreBuf is the grown-on-demand staging area of the batched
	// relevance sweeps.
	scoreBuf []float64
	// fictiveMask is PlanFictiveUser's item-membership scratch, lanes
	// FitFictiveUsers' workspace.
	fictiveMask []bool
	lanes       fictiveLanes
	// order is TrainLocal's shuffle buffer, reused across calls.
	order []int
}

var _ Recommender = (*BPRMF)(nil)

const (
	bprmfDefaultLR = 0.05
	bprmfDefaultL2 = 1e-4
	bprmfInitStd   = 0.1
)

// NewBPRMF returns a randomly initialized BPR-MF model.
func NewBPRMF(numUsers, numItems, dim int, seed uint64) *BPRMF {
	if numUsers <= 0 || numItems <= 0 || dim <= 0 {
		panic("model: NewBPRMF requires positive sizes")
	}
	r := mathx.NewRand(seed)
	m := &BPRMF{
		users:    numUsers,
		items:    numItems,
		dim:      dim,
		userEmb:  mathx.NewMatrix(numUsers, dim),
		itemEmb:  mathx.NewMatrix(numItems, dim),
		itemBias: make([]float64, numItems),
	}
	mathx.FillNormal(r, m.userEmb.Data, 0, bprmfInitStd)
	mathx.FillNormal(r, m.itemEmb.Data, 0, bprmfInitStd)
	m.set = param.New()
	m.set.AddMatrix(BPRMFUserEmb, m.userEmb)
	m.set.AddMatrix(BPRMFItemEmb, m.itemEmb)
	m.set.AddVector(BPRMFItemBias, m.itemBias)
	return m
}

// NewBPRMFFactory returns a Factory producing BPR-MF models.
func NewBPRMFFactory(numUsers, numItems, dim int) Factory {
	return func(seed uint64) Recommender { return NewBPRMF(numUsers, numItems, dim, seed) }
}

func (m *BPRMF) Name() string       { return "bprmf" }
func (m *BPRMF) Params() *param.Set { return m.set }
func (m *BPRMF) NumUsers() int      { return m.users }
func (m *BPRMF) NumItems() int      { return m.items }

// Clone returns a deep copy with fresh storage.
func (m *BPRMF) Clone() Recommender {
	c := &BPRMF{
		users:    m.users,
		items:    m.items,
		dim:      m.dim,
		userEmb:  m.userEmb.Clone(),
		itemEmb:  m.itemEmb.Clone(),
		itemBias: append([]float64(nil), m.itemBias...),
	}
	c.set = param.New()
	c.set.AddMatrix(BPRMFUserEmb, c.userEmb)
	c.set.AddMatrix(BPRMFItemEmb, c.itemEmb)
	c.set.AddVector(BPRMFItemBias, c.itemBias)
	return c
}

func (m *BPRMF) score(vec []float64, item int) float64 {
	return mathx.Dot(vec, m.itemEmb.Row(item)) + m.itemBias[item]
}

// Predict squashes the raw score through a sigmoid: BPR is a ranking
// model, so this is a confidence proxy rather than a likelihood.
func (m *BPRMF) Predict(owner, item int) float64 {
	return mathx.Sigmoid(m.score(m.userEmb.Row(owner), item))
}

// Relevance is the mean raw score over items (Eq. 3's Ŷ).
func (m *BPRMF) Relevance(owner int, items []int) float64 {
	return m.RelevanceWithUserVec(m.userEmb.Row(owner), items)
}

// RelevanceWithUserVec scores items against an explicit user vector,
// batched through one gathered matrix-vector product. The per-item
// values and the mean's addition order match the historical scalar
// loop bit for bit.
func (m *BPRMF) RelevanceWithUserVec(vec []float64, items []int) float64 {
	if len(items) == 0 {
		return 0
	}
	m.scoreBuf = growFloats(m.scoreBuf, len(items))
	buf := m.scoreBuf
	mathx.GemvRows(m.itemEmb, items, vec, m.itemBias, buf)
	return mathx.Sum(buf) / float64(len(items))
}

// RelevanceTargets implements TargetRelevancer.
func (m *BPRMF) RelevanceTargets(owner int, targets [][]int, dst []float64) {
	relevanceTargets(m, owner, targets, dst)
}

// catalogueRelevance is the raw score p·q_i + b_i for every catalogue
// item (ScoreAll's output), the per-item value RelevanceWithUserVec
// averages.
func (m *BPRMF) catalogueRelevance(owner int) []float64 {
	m.scoreBuf = growFloats(m.scoreBuf, m.items)
	m.ScoreAll(owner, -1, m.scoreBuf)
	return m.scoreBuf
}

// ScoreItems ranks candidates by raw score on the batched kernels
// (bias gathered by item id); prev is ignored.
func (m *BPRMF) ScoreItems(owner, prev int, items []int, dst []float64) {
	mathx.GemvRows(m.itemEmb, items, m.userEmb.Row(owner), m.itemBias, dst)
}

// ScoreAll scores the full catalogue in one blocked matrix-vector
// product, bit-identical to scoring each item through score().
func (m *BPRMF) ScoreAll(owner, prev int, dst []float64) {
	mathx.Gemv(m.itemEmb, m.userEmb.Row(owner), m.itemBias, dst)
}

// PredictItems is the batched Predict: σ over the batched scores.
func (m *BPRMF) PredictItems(owner int, items []int, dst []float64) {
	m.ScoreItems(owner, -1, items, dst)
	mathx.SigmoidInto(dst, dst)
}

func (m *BPRMF) PrivateEntries() []string { return []string{BPRMFUserEmb} }
func (m *BPRMF) ItemEntries() []string    { return []string{BPRMFItemEmb} }

// TrainLocal runs BPR SGD over the user's items: each positive is
// paired with NegPerPos sampled negatives.
func (m *BPRMF) TrainLocal(d *dataset.Dataset, u int, opt TrainOptions) {
	opt = opt.withDefaults(bprmfDefaultLR, bprmfDefaultL2)
	items := d.Train[u]
	if len(items) == 0 {
		return
	}
	m.order = append(m.order[:0], items...)
	ref := opt.driftRows(BPRMFItemEmb)
	for e := 0; e < opt.Epochs; e++ {
		mathx.Shuffle(opt.Rand, m.order)
		for _, pos := range m.order {
			for n := 0; n < opt.NegPerPos; n++ {
				m.bprStep(u, pos, d.SampleNegative(opt.Rand, u), opt, ref)
			}
		}
	}
}

// bprStep: z = s(u,pos) − s(u,neg); loss −logσ(z); dL/dz = −σ(−z).
// ref is the drift reference of the item table (nil when off).
func (m *BPRMF) bprStep(u, pos, neg int, opt TrainOptions, ref []float64) {
	p := m.userEmb.Row(u)
	qp, qn := m.itemEmb.Row(pos), m.itemEmb.Row(neg)
	z := m.score(p, pos) - m.score(p, neg)
	g := -mathx.Sigmoid(-z)

	dim := m.dim
	if m.grad == nil {
		m.grad = make([]float64, 3*dim)
	}
	dP := m.grad[0*dim : 1*dim]
	dQp := m.grad[1*dim : 2*dim]
	dQn := m.grad[2*dim : 3*dim]
	for k := 0; k < dim; k++ {
		dP[k] = g * (qp[k] - qn[k])
		dQp[k] = g * p[k]
		dQn[k] = -g * p[k]
	}
	dBp, dBn := g, -g

	scale := 1.0
	if opt.PerExampleClip > 0 {
		var sq float64
		//lint:ignore mathxseam clip-norm accumulation order is golden-pinned; Dot is unrolled and not bit-identical
		for k := 0; k < dim; k++ {
			sq += dP[k]*dP[k] + dQp[k]*dQp[k] + dQn[k]*dQn[k]
		}
		sq += dBp*dBp + dBn*dBn
		if norm := math.Sqrt(sq); norm > opt.PerExampleClip {
			scale = opt.PerExampleClip / norm
		}
	}
	lr := opt.LR * scale
	for k := 0; k < dim; k++ {
		p[k] -= lr*dP[k] + opt.LR*opt.L2*p[k]
		qp[k] -= lr*dQp[k] + opt.LR*opt.L2*qp[k]
		qn[k] -= lr*dQn[k] + opt.LR*opt.L2*qn[k]
	}
	m.itemBias[pos] -= lr*dBp + opt.LR*opt.L2*m.itemBias[pos]
	m.itemBias[neg] -= lr*dBn + opt.LR*opt.L2*m.itemBias[neg]

	if ref != nil {
		for _, it := range [2]int{pos, neg} {
			base := it * dim
			mathx.DriftToward(opt.LR*2*opt.DriftTau, ref[base:base+dim], m.itemEmb.Row(it))
		}
	}
}

// PlanFictiveUser draws the starting vector and the negatives of a
// fictive-user fit (see Recommender).
func (m *BPRMF) PlanFictiveUser(items []int, opt TrainOptions, plan *FictivePlan) {
	opt = opt.withDefaults(bprmfDefaultLR, bprmfDefaultL2)
	planFictive(plan, &m.fictiveMask, m.items, m.dim, bprmfInitStd, items, opt)
}

// FitFictiveUsers trains fresh user vectors by BPR against the planned
// targets' items with sampled negatives, holding everything else fixed
// (§IV-C). Unlike PRME there is no metric-space repulsion pathology:
// the dot-product objective is maximized by aligning with the target
// items' direction, so plain SGD converges to a useful reference
// basis.
func (m *BPRMF) FitFictiveUsers(plans []FictivePlan, dst [][]float64, ready <-chan int) {
	m.lanes.fit(m, true, m.dim, plans, dst, ready)
}

// fictiveLogits implements laneFitter: the argument is −z for
// z = s(A, pos) − s(A, neg), so the sigmoid yields σ(−z).
func (m *BPRMF) fictiveLogits(w *fictiveLanes) {
	for i, vec := range w.vec {
		w.x[i] = -(m.score(vec, w.pos[i]) - m.score(vec, int(w.steps[i][0])))
	}
}

// fictiveUpdates implements laneFitter: the BPR step on every lane's
// user vector, dL/dz = −σ(−z).
func (m *BPRMF) fictiveUpdates(w *fictiveLanes) {
	if m.grad == nil {
		m.grad = make([]float64, 3*m.dim)
	}
	d := m.grad[:m.dim]
	for i, vec := range w.vec {
		g := -w.x[i]
		qp, qn := m.itemEmb.Row(w.pos[i])[:len(d)], m.itemEmb.Row(int(w.steps[i][0]))[:len(d)]
		for k := range d {
			d[k] = g * (qp[k] - qn[k])
		}
		mathx.DecayStep(w.lr[i], w.l2[i], d, vec)
	}
}
