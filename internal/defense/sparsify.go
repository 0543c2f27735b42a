package defense

import (
	"math"
	"math/rand/v2"
	"sort"

	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// TopKSparsify is an extension defense (the paper's future work calls
// for new mitigations): clients share only the fraction of update
// coordinates with the largest magnitudes, zeroing the rest. Top-k
// sparsification is primarily a bandwidth technique in FL, but it is
// privacy-relevant here: CIA reads taste from the *pattern* of item-
// embedding movement, and transmitting only the heaviest coordinates
// concentrates the signal rather than hiding it — the sparsification
// study quantifies how little protection it buys.
type TopKSparsify struct {
	// Fraction of update coordinates kept, in (0, 1].
	Fraction float64
}

var _ Policy = TopKSparsify{}

// Name implements Policy.
func (TopKSparsify) Name() string { return "topk-sparsify" }

// ReadsSnapshot implements Policy: the snapshot is the delta baseline.
func (TopKSparsify) ReadsSnapshot() bool { return true }

// PrepareTrain implements Policy (no adjustment to local training).
func (TopKSparsify) PrepareTrain(*model.TrainOptions, model.Recommender, *param.Set) {}

// Outgoing implements Policy: prev + top-k(Δ) over all entries jointly.
func (p TopKSparsify) Outgoing(m model.Recommender, prev *param.Set, _ *rand.Rand, buf *param.Buffers) *param.Set {
	if prev == nil {
		panic("defense: TopKSparsify.Outgoing requires the pre-training snapshot")
	}
	frac := p.Fraction
	if frac <= 0 || frac > 1 {
		panic("defense: TopKSparsify.Fraction out of (0,1]")
	}
	delta := buf.Clone(m.Params())
	delta.Axpy(-1, prev)

	// Find the magnitude threshold across all coordinates.
	var mags []float64
	for _, name := range delta.Names() {
		for _, v := range delta.Get(name) {
			if v != 0 {
				mags = append(mags, math.Abs(v))
			}
		}
	}
	if len(mags) == 0 {
		buf.Put(delta)
		return buf.Clone(prev)
	}
	keep := int(frac * float64(len(mags)))
	if keep < 1 {
		keep = 1
	}
	sort.Float64s(mags)
	threshold := mags[len(mags)-keep]

	for _, name := range delta.Names() {
		data := delta.Get(name)
		for i, v := range data {
			if math.Abs(v) < threshold {
				data[i] = 0
			}
		}
	}
	out := buf.Clone(prev)
	out.Axpy(1, delta)
	buf.Put(delta)
	return out
}
