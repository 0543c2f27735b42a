package mathx

import (
	"math"
	"sort"
)

// ArgsortDesc returns the indices of x ordered by decreasing value.
// Ties break by ascending index so results are deterministic.
func ArgsortDesc(x []float64) []int {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] > x[idx[b]] })
	return idx
}

// TopK returns the indices of the k largest values of x in decreasing
// order. k is clamped to len(x).
func TopK(x []float64, k int) []int {
	if k > len(x) {
		k = len(x)
	}
	if k <= 0 {
		return nil
	}
	return ArgsortDesc(x)[:k]
}

// TopKSelect writes into dst the indices of the k largest values of x
// among the eligible ones — mask[i] set, or every index when mask is
// nil — and returns dst[:min(k, #eligible)]. It is the ranking
// primitive of the F1 slate and of the attacks' community selection
// over observed senders.
//
// The order is total: decreasing value, NaN below every number (−Inf
// included), ties (NaN ties too) by ascending index — for NaN-free
// input exactly TopK's order. dst is reused when it has capacity for
// the result and allocated otherwise, so a caller ranking many vectors
// allocates once; x is not modified.
//
// The selection runs as one pass over x maintaining a size-k heap of
// candidates rooted at the worst kept one (O(n log k) instead of a full
// sort), then heap-sorts the survivors into the output order.
func TopKSelect(x []float64, mask []bool, k int, dst []int) []int {
	k = min(k, len(x))
	if k <= 0 {
		return dst[:0]
	}
	if cap(dst) < k {
		dst = make([]int, 0, k)
	}
	h := dst[:0]
	for i := range x {
		if mask != nil && !mask[i] {
			continue
		}
		if len(h) < k {
			h = append(h, i)
			siftUp(x, h, len(h)-1)
		} else if !ranksBelow(x, i, h[0]) {
			h[0] = i
			siftDown(x, h, 0)
		}
	}
	// Pop the worst remaining candidate to the tail: the slice ends up
	// ordered best first.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(x, h[:n], 0)
	}
	return h
}

// ranksBelow reports whether index a ranks strictly below index b in
// TopKSelect's order.
func ranksBelow(x []float64, a, b int) bool {
	va, vb := x[a], x[b]
	if na, nb := math.IsNaN(va), math.IsNaN(vb); na != nb {
		return na
	} else if !na && va != vb {
		return va < vb
	}
	return a > b
}

// siftUp and siftDown restore TopKSelect's heap order (the worst-ranked
// candidate at the root) after h[i] changed.
func siftUp(x []float64, h []int, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !ranksBelow(x, h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(x []float64, h []int, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && ranksBelow(x, h[r], h[c]) {
			c = r
		}
		if !ranksBelow(x, h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics. It panics on an empty slice
// or an out-of-range q. The input is not modified.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		panic("mathx: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("mathx: Quantile q out of [0,1]")
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Max returns the maximum of x. It panics on an empty slice.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("mathx: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum of x. It panics on an empty slice.
func Min(x []float64) float64 {
	if len(x) == 0 {
		panic("mathx: Min of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// StdDev returns the population standard deviation of x
// (0 for slices shorter than 2).
func StdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	mu := Mean(x)
	var s float64
	for _, v := range x {
		d := v - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(x)))
}

// Entropy returns the Shannon entropy (nats) of a probability vector.
// Zero entries contribute zero; the vector is assumed normalized.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// BinaryEntropy returns the entropy (nats) of a Bernoulli(p) variable,
// clamping p into (0,1) to stay finite at the boundary.
func BinaryEntropy(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}

// JaccardInt computes the Jaccard index between two integer sets
// represented as map[int]struct{}. Two empty sets have similarity 0,
// matching the paper's convention that a user with no history belongs
// to no community.
func JaccardInt(a, b map[int]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	var inter int
	for v := range small {
		if _, ok := large[v]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
