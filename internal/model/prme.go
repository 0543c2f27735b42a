package model

import (
	"math"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
)

// Parameter-entry names shared with defenses and attacks.
const (
	PRMEUserEmb     = "prme/user_emb"
	PRMEItemEmbPref = "prme/item_emb_pref"
	PRMEItemEmbSeq  = "prme/item_emb_seq"
)

// PRME is Personalized Ranking Metric Embedding (Feng et al., IJCAI
// 2015), a next-item model with two latent metric spaces:
//
//   - a preference space with user points P_u and item points L_i;
//   - a sequential space with item points S_i.
//
// The recommendation score of item i for user u whose previous item is
// l is the negative weighted squared distance
//
//	score(u, l, i) = -( α‖P_u − L_i‖² + (1−α)‖S_l − S_i‖² )
//
// trained with a BPR-style ranking loss: observed transitions should
// outscore sampled negatives. As in the paper, PRME learns a harder
// task than GMF and is correspondingly less utility-accurate and less
// attack-sensitive.
type PRME struct {
	users, items, dim int
	alpha             float64
	userEmb           *mathx.Matrix // users × dim (P)
	itemPref          *mathx.Matrix // items × dim (L)
	itemSeq           *mathx.Matrix // items × dim (S)
	set               *param.Set
	rawRelevance      bool

	// grad is the per-step gradient workspace (6 dim-sized views),
	// allocated lazily so Clone and the constructors stay oblivious.
	// Models are not goroutine-safe; each client/worker owns a copy.
	grad []float64
	// scoreBuf is the grown-on-demand staging area of the batched
	// scoring sweeps (two halves: preference and sequential distances).
	scoreBuf []float64
	// allItems is the identity row list 0..items-1 the relevance sweep
	// hands DotNormRows (a gather kernel), built on first use.
	allItems []int
}

var _ Recommender = (*PRME)(nil)

// PRME hyper-parameters following the original work.
const (
	prmeDefaultLR    = 0.02
	prmeDefaultL2    = 1e-4
	prmeDefaultAlpha = 0.2
	prmeInitStd      = 0.1
	// prmeMaxNorm clamps every embedding point to the unit ball after
	// each update, the standard stabilizer for metric-embedding BPR:
	// without it the repulsion from sampled negatives inflates all
	// distances and the metric space degenerates.
	prmeMaxNorm = 1.0
)

// NewPRME returns a randomly initialized PRME model.
func NewPRME(numUsers, numItems, dim int, seed uint64) *PRME {
	if numUsers <= 0 || numItems <= 0 || dim <= 0 {
		panic("model: NewPRME requires positive sizes")
	}
	r := mathx.NewRand(seed)
	m := &PRME{
		users:    numUsers,
		items:    numItems,
		dim:      dim,
		alpha:    prmeDefaultAlpha,
		userEmb:  mathx.NewMatrix(numUsers, dim),
		itemPref: mathx.NewMatrix(numItems, dim),
		itemSeq:  mathx.NewMatrix(numItems, dim),
	}
	mathx.FillNormal(r, m.userEmb.Data, 0, prmeInitStd)
	mathx.FillNormal(r, m.itemPref.Data, 0, prmeInitStd)
	mathx.FillNormal(r, m.itemSeq.Data, 0, prmeInitStd)
	m.set = param.New()
	m.set.AddMatrix(PRMEUserEmb, m.userEmb)
	m.set.AddMatrix(PRMEItemEmbPref, m.itemPref)
	m.set.AddMatrix(PRMEItemEmbSeq, m.itemSeq)
	return m
}

// NewPRMEFactory returns a Factory producing PRME models of this shape.
func NewPRMEFactory(numUsers, numItems, dim int) Factory {
	return func(seed uint64) Recommender { return NewPRME(numUsers, numItems, dim, seed) }
}

func (m *PRME) Name() string       { return "prme" }
func (m *PRME) Params() *param.Set { return m.set }
func (m *PRME) NumUsers() int      { return m.users }
func (m *PRME) NumItems() int      { return m.items }

// Clone returns a deep copy with fresh storage.
func (m *PRME) Clone() Recommender {
	c := &PRME{
		users:        m.users,
		items:        m.items,
		dim:          m.dim,
		alpha:        m.alpha,
		userEmb:      m.userEmb.Clone(),
		itemPref:     m.itemPref.Clone(),
		itemSeq:      m.itemSeq.Clone(),
		rawRelevance: m.rawRelevance,
	}
	c.set = param.New()
	c.set.AddMatrix(PRMEUserEmb, c.userEmb)
	c.set.AddMatrix(PRMEItemEmbPref, c.itemPref)
	c.set.AddMatrix(PRMEItemEmbSeq, c.itemSeq)
	return c
}

// prefScore is the preference-space part of the score: -‖vec − L_i‖².
func (m *PRME) prefScore(vec []float64, item int) float64 {
	return -mathx.SqDist(vec, m.itemPref.Row(item))
}

// relScore is the relevance metric used for cross-model comparison:
// the norm-adjusted preference score
//
//	2·vec·L_i − ‖L_i‖²  =  -‖vec − L_i‖² + ‖vec‖².
//
// Within one user it ranks items identically to prefScore (the ‖vec‖²
// shift is constant), but when CIA compares *different users' models*
// the raw -‖vec−L_i‖² carries a target-independent -‖P_u‖² term —
// pure per-model noise that varies with how much each user trained.
// Dropping it is a legitimate choice of "any recommendation quality
// metric" (§IV-B); experiment ablation-relevance measures the gain.
func (m *PRME) relScore(vec []float64, item int) float64 {
	l := m.itemPref.Row(item)
	var dot, nrm float64
	for k := range l {
		dot += vec[k] * l[k]
		nrm += l[k] * l[k]
	}
	return 2*dot - nrm
}

// score is the full two-space score; prev < 0 drops the sequential term.
func (m *PRME) score(uvec []float64, prev, item int) float64 {
	s := m.alpha * mathx.SqDist(uvec, m.itemPref.Row(item))
	if prev >= 0 {
		s += (1 - m.alpha) * mathx.SqDist(m.itemSeq.Row(prev), m.itemSeq.Row(item))
	}
	return -s
}

// Predict maps the preference-space score through a sigmoid so it is a
// probability-like confidence comparable across items, as the
// entropy-MIA requires. The +1 shift centres typical distances so
// confident items land above 0.5.
func (m *PRME) Predict(owner, item int) float64 {
	return mathx.Sigmoid(m.prefScore(m.userEmb.Row(owner), item) + 1)
}

// Relevance is the mean preference-space score over items (Eq. 3's Ŷ).
// The sequential term is deliberately excluded: V_target is an
// unordered set crafted by the adversary, so it has no "previous
// check-in" context to score against. Higher (less
// negative) means more relevant; CIA only needs the ordering.
func (m *PRME) Relevance(owner int, items []int) float64 {
	return m.RelevanceWithUserVec(m.userEmb.Row(owner), items)
}

// SetRawRelevance switches the Relevance metrics to the raw
// -‖u − L_i‖² distance instead of the norm-adjusted default — the
// raw arm of experiment ablation-relevance (the raw metric carries a
// per-user ‖P_u‖² confound that cripples cross-model comparison).
func (m *PRME) SetRawRelevance(raw bool) { m.rawRelevance = raw }

// RelevanceWithUserVec scores items against an explicit user vector,
// batched: one gathered pass over the preference table computing the
// dots and squared norms the metric needs (raw mode gathers squared
// distances instead).
func (m *PRME) RelevanceWithUserVec(vec []float64, items []int) float64 {
	if len(items) == 0 {
		return 0
	}
	n := len(items)
	m.scoreBuf = growFloats(m.scoreBuf, 2*n)
	if m.rawRelevance {
		d := m.scoreBuf[:n]
		mathx.SqDistRowsGather(m.itemPref, items, vec, d)
		var s float64
		for _, v := range d {
			s += -v
		}
		return s / float64(n)
	}
	dots, norms := m.scoreBuf[:n], m.scoreBuf[n:2*n]
	mathx.DotNormRows(m.itemPref, items, vec, dots, norms)
	var s float64
	//lint:ignore mathxseam score reduction order is golden-pinned; Sum-composition would reassociate the accumulation
	for i := range dots {
		s += 2*dots[i] - norms[i]
	}
	return s / float64(n)
}

// RelevanceTargets implements TargetRelevancer.
func (m *PRME) RelevanceTargets(owner int, targets [][]int, dst []float64) {
	relevanceTargets(m, owner, targets, dst)
}

// catalogueRelevance is the per-item value RelevanceWithUserVec
// averages, for every catalogue item: 2·p·L_i − ‖L_i‖² from one
// DotNormRows pass (−‖p − L_i‖² from one SqDistRows pass in raw mode).
func (m *PRME) catalogueRelevance(owner int) []float64 {
	vec, n := m.userEmb.Row(owner), m.items
	m.scoreBuf = growFloats(m.scoreBuf, 2*n)
	vals := m.scoreBuf[:n]
	if m.rawRelevance {
		mathx.SqDistRows(m.itemPref, vec, vals)
		mathx.NegScaleInto(1, vals, vals)
		return vals
	}
	if len(m.allItems) != n {
		m.allItems = make([]int, n)
		for i := range m.allItems {
			m.allItems[i] = i
		}
	}
	norms := m.scoreBuf[n:]
	mathx.DotNormRows(m.itemPref, m.allItems, vec, vals, norms)
	for i, d := range vals {
		vals[i] = 2*d - norms[i]
	}
	return vals
}

// ScoreItems ranks candidates with the full two-space score, using
// prev as the sequential context (-1 for none). The batched form
// gathers the preference-space (and, with context, sequential-space)
// squared distances in blocked passes; each candidate's score is
// bit-identical to the scalar score().
func (m *PRME) ScoreItems(owner, prev int, items []int, dst []float64) {
	uvec := m.userEmb.Row(owner)
	mathx.SqDistRowsGather(m.itemPref, items, uvec, dst)
	if prev < 0 {
		mathx.NegScaleInto(m.alpha, dst, dst)
		return
	}
	m.scoreBuf = growFloats(m.scoreBuf, len(items))
	d2 := m.scoreBuf[:len(items)]
	mathx.SqDistRowsGather(m.itemSeq, items, m.itemSeq.Row(prev), d2)
	m.combineTwoSpace(dst, d2)
}

// ScoreAll scores the full catalogue with two blocked distance sweeps
// (one when there is no sequential context).
func (m *PRME) ScoreAll(owner, prev int, dst []float64) {
	uvec := m.userEmb.Row(owner)
	mathx.SqDistRows(m.itemPref, uvec, dst)
	if prev < 0 {
		mathx.NegScaleInto(m.alpha, dst, dst)
		return
	}
	m.scoreBuf = growFloats(m.scoreBuf, m.items)
	d2 := m.scoreBuf[:m.items]
	mathx.SqDistRows(m.itemSeq, m.itemSeq.Row(prev), d2)
	m.combineTwoSpace(dst, d2)
}

// combineTwoSpace folds preference distances (in dst) and sequential
// distances (in d2) into the final scores, with the exact operation
// order of the scalar score(): s = α·d1; s += (1−α)·d2; −s.
func (m *PRME) combineTwoSpace(dst, d2 []float64) {
	for i := range dst {
		s := m.alpha * dst[i]
		s += (1 - m.alpha) * d2[i]
		dst[i] = -s
	}
}

// PredictItems is the batched Predict: σ(−‖P_u − L_i‖² + 1) from one
// gathered distance sweep, bit-identical to Predict per item.
func (m *PRME) PredictItems(owner int, items []int, dst []float64) {
	mathx.SqDistRowsGather(m.itemPref, items, m.userEmb.Row(owner), dst)
	for i, d := range dst {
		dst[i] = mathx.Sigmoid(-d + 1)
	}
}

func (m *PRME) PrivateEntries() []string { return []string{PRMEUserEmb} }
func (m *PRME) ItemEntries() []string    { return []string{PRMEItemEmbPref, PRMEItemEmbSeq} }

// TrainLocal runs BPR-style SGD over user u's consecutive transitions:
// for each (prev → pos) pair, a sampled negative must score lower.
func (m *PRME) TrainLocal(d *dataset.Dataset, u int, opt TrainOptions) {
	opt = opt.withDefaults(prmeDefaultLR, prmeDefaultL2)
	seq := d.Train[u]
	if len(seq) == 0 {
		return
	}
	pref, seqRef := opt.driftRows(PRMEItemEmbPref), opt.driftRows(PRMEItemEmbSeq)
	for e := 0; e < opt.Epochs; e++ {
		for t := 0; t < len(seq); t++ {
			prev := -1
			if t > 0 {
				prev = seq[t-1]
			}
			pos := seq[t]
			for n := 0; n < opt.NegPerPos; n++ {
				neg := d.SampleNegative(opt.Rand, u)
				m.bprStep(u, prev, pos, neg, &opt, pref, seqRef)
			}
		}
	}
}

// bprStep applies one ranking update: increase score(u,prev,pos) over
// score(u,prev,neg). With z = s_pos − s_neg the BPR loss is
// −log σ(z); dL/dz = σ(z) − 1 = −σ(−z).
//
// The step is three passes over the coordinates: the four squared
// distances of z, then each space's fused gradient-and-update pass,
// which also sums the updated rows' squared norms for the unit-ball
// clips. Coordinate k's gradient reads only coordinate k's pre-step
// values, every sum keeps its sequential order, and rows of one table
// that alias (prev == pos, say) are written in the order and re-read as
// the separate passes did, so the step is bit-identical to computing
// every gradient first, then updating, then clipping row by row.
// pref and seqRef are the drift references of the two item tables (nil
// when the drift regularizer is off).
func (m *PRME) bprStep(u, prev, pos, neg int, opt *TrainOptions, pref, seqRef []float64) {
	uvec := m.userEmb.Row(u)
	lp, ln := m.itemPref.Row(pos), m.itemPref.Row(neg)
	lp, ln = lp[:len(uvec)], ln[:len(uvec)]
	var sp, spos, sneg []float64
	var dPos, dNeg, dSeqPos, dSeqNeg float64
	if prev >= 0 {
		sp = m.itemSeq.Row(prev)
		spos, sneg = m.itemSeq.Row(pos)[:len(sp)], m.itemSeq.Row(neg)[:len(sp)]
		for k := range sp {
			d0 := uvec[k] - lp[k]
			dPos += d0 * d0
			d1 := uvec[k] - ln[k]
			dNeg += d1 * d1
			d2 := sp[k] - spos[k]
			dSeqPos += d2 * d2
			d3 := sp[k] - sneg[k]
			dSeqNeg += d3 * d3
		}
	} else {
		for k := range uvec {
			d0 := uvec[k] - lp[k]
			dPos += d0 * d0
			d1 := uvec[k] - ln[k]
			dNeg += d1 * d1
		}
	}
	sPos, sNeg := m.alpha*dPos, m.alpha*dNeg
	if prev >= 0 {
		sPos += (1 - m.alpha) * dSeqPos
		sNeg += (1 - m.alpha) * dSeqNeg
	}
	z := -sPos - -sNeg
	g := -mathx.Sigmoid(-z) // dL/dz, negative

	// z contributes -α‖u−Lp‖² + α‖u−Ln‖² (pref part), so
	// d s_pos/d uvec = -2α(uvec − L_pos), etc.
	a2, na2 := 2*m.alpha, -2*m.alpha
	b2, nb2 := 2*(1-m.alpha), -2*(1-m.alpha)
	lr := opt.LR
	if opt.PerExampleClip > 0 {
		lr = m.clippedLR(uvec, lp, ln, sp, spos, sneg, g, opt)
	}
	decay := opt.LR * opt.L2

	var nu, nlp, nln float64
	for k := range uvec {
		dp := uvec[k] - lp[k]
		dn := uvec[k] - ln[k]
		uvec[k] -= lr*(g*(na2*dp+a2*dn)) + decay*uvec[k]
		lp[k] -= lr*(g*(a2*dp)) + decay*lp[k]
		ln[k] -= lr*(g*(na2*dn)) + decay*ln[k]
		x, y, w := uvec[k], lp[k], ln[k]
		nu += x * x
		nlp += y * y
		nln += w * w
	}
	clipRow(uvec, nu)
	if clipRow(lp, nlp) && pos == neg {
		nln = sqNorm(ln)
	}
	clipRow(ln, nln)
	if prev >= 0 {
		var n0, n1, n2 float64
		for k := range sp {
			dp := sp[k] - spos[k]
			dn := sp[k] - sneg[k]
			sp[k] -= lr*(g*(nb2*dp+b2*dn)) + decay*sp[k]
			spos[k] -= lr*(g*(b2*dp)) + decay*spos[k]
			sneg[k] -= lr*(g*(nb2*dn)) + decay*sneg[k]
			x, y, w := sp[k], spos[k], sneg[k]
			n0 += x * x
			n1 += y * y
			n2 += w * w
		}
		// A row aliasing an earlier, clipped row re-reads its norm.
		c0 := clipRow(sp, n0)
		if c0 && prev == pos {
			n1 = sqNorm(spos)
		}
		c1 := clipRow(spos, n1)
		if c0 && prev == neg || c1 && pos == neg {
			n2 = sqNorm(sneg)
		}
		clipRow(sneg, n2)
	}

	// Share-less drift regularizer (Eq. 2) on the touched item rows.
	if pref != nil {
		m.drift(pos, pref, m.itemPref, opt)
		m.drift(neg, pref, m.itemPref, opt)
		if prev >= 0 {
			m.drift(prev, seqRef, m.itemSeq, opt)
			m.drift(pos, seqRef, m.itemSeq, opt)
			m.drift(neg, seqRef, m.itemSeq, opt)
		}
	}
}

// clippedLR is bprStep's learning rate under a per-example clip: the
// example's gradient is staged in the grad workspace so its norm sums
// gradient by gradient (dU, dLp, dLn, then the sequential three), the
// order the clip has always used.
func (m *PRME) clippedLR(uvec, lp, ln, sp, spos, sneg []float64, g float64, opt *TrainOptions) float64 {
	dim := m.dim
	if m.grad == nil {
		m.grad = make([]float64, 6*dim)
	}
	a2, na2 := 2*m.alpha, -2*m.alpha
	b2, nb2 := 2*(1-m.alpha), -2*(1-m.alpha)
	grad := m.grad[:3*dim]
	for k := range uvec {
		dp := uvec[k] - lp[k]
		dn := uvec[k] - ln[k]
		grad[k] = g * (na2*dp + a2*dn)
		grad[dim+k] = g * (a2 * dp)
		grad[2*dim+k] = g * (na2 * dn)
	}
	if sp != nil {
		grad = m.grad[:6*dim]
		for k := range sp {
			dp := sp[k] - spos[k]
			dn := sp[k] - sneg[k]
			grad[3*dim+k] = g * (nb2*dp + b2*dn)
			grad[4*dim+k] = g * (b2 * dp)
			grad[5*dim+k] = g * (nb2 * dn)
		}
	}
	var sq float64
	for _, v := range grad {
		sq += v * v
	}
	if norm := math.Sqrt(sq); norm > opt.PerExampleClip {
		return opt.LR * (opt.PerExampleClip / norm)
	}
	return opt.LR
}

// clipRow scales row onto the prmeMaxNorm ball given its squared norm,
// exactly as mathx.ClipL2 would, and reports whether it scaled.
func clipRow(row []float64, sq float64) bool {
	n := math.Sqrt(sq)
	if n <= prmeMaxNorm || n == 0 {
		return false
	}
	mathx.Scale(prmeMaxNorm/n, row)
	return true
}

// sqNorm is the squared L2 norm summed in mathx.L2Norm's order.
func sqNorm(row []float64) float64 {
	var s float64
	for _, v := range row {
		s += v * v
	}
	return s
}

func (m *PRME) drift(item int, ref []float64, mat *mathx.Matrix, opt *TrainOptions) {
	base := item * m.dim
	mathx.DriftToward(opt.LR*2*opt.DriftTau, ref[base:base+m.dim], mat.Row(item))
}

// PlanFictiveUser records the target's items and, for an empty target,
// draws the fictive user's random starting point; a non-empty target's
// closed-form fit draws nothing (see FitFictiveUsers).
func (m *PRME) PlanFictiveUser(items []int, opt TrainOptions, plan *FictivePlan) {
	opt = opt.withDefaults(prmeDefaultLR, prmeDefaultL2)
	plan.steps = plan.steps[:0]
	if len(items) == 0 {
		plan.init = growFloats(plan.init, m.dim)
		mathx.FillNormal(opt.Rand, plan.init, 0, prmeInitStd)
		return
	}
	for _, it := range items {
		plan.steps = append(plan.steps, ^int32(it))
	}
}

// FitFictiveUsers returns for every planned target a preference-space
// user point representing "a user who likes items", holding every
// other parameter fixed (§IV-C).
//
// For a metric-embedding model the fictive-user objective
// min_v Σ_{i∈items} ‖v − L_i‖² has the closed-form optimum v = centroid
// of the target items' preference points, so we use it directly.
// Running BPR with sampled negatives here would let the repulsion term
// push v to the max-norm boundary — away from every item point — which
// destroys the comparison basis CIA needs. An empty target keeps its
// planned random point.
func (m *PRME) FitFictiveUsers(plans []FictivePlan, dst [][]float64, ready <-chan int) {
	for t := <-ready; t >= 0; t = <-ready {
		p := &plans[t]
		if len(p.steps) == 0 {
			dst[t] = p.start(m.dim)
			continue
		}
		vec := make([]float64, m.dim)
		for _, it := range p.steps {
			mathx.Axpy(1, m.itemPref.Row(int(^it)), vec)
		}
		mathx.Scale(1/float64(len(p.steps)), vec)
		mathx.ClipL2(vec, prmeMaxNorm)
		dst[t] = vec
	}
}
