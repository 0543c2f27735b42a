package mathx

import (
	"math"
	"math/rand/v2"
)

// NewRand returns a deterministic PCG-backed generator for the given
// seed. Every stochastic component in the repository threads one of
// these explicitly — there is no package-level RNG — so runs are
// reproducible and tests can pin seeds.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Split derives an independent child generator from r. It is used to
// give each simulated client its own stream so that per-client
// randomness does not depend on client iteration order.
func Split(r *rand.Rand) *rand.Rand {
	return rand.New(rand.NewPCG(r.Uint64(), r.Uint64()))
}

// mix64 is the SplitMix64 finalizer (Steele et al., "Fast Splittable
// Pseudorandom Number Generators"): a bijective avalanche hash whose
// outputs over counter inputs pass BigCrush. It is the key-derivation
// primitive behind StreamSeeds.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StreamSeeds derives a PCG seed pair for the substream of seed
// labelled by ids — counter-based stream derivation in the Philox
// spirit: the stream for (seed, id₀, id₁, …) is a pure function of the
// labels, independent of how many draws any other stream has consumed
// and of the order streams are created in.
//
// The evaluation engine keys utility sweeps by (seed, round, user) so a
// round's negative samples never depend on evaluation history (see
// model.EvalOptions).
func StreamSeeds(seed uint64, ids ...uint64) (lo, hi uint64) {
	h := mix64(seed ^ 0x2545f4914f6cdd1d)
	for _, id := range ids {
		h = mix64(h ^ mix64(id+0x9e3779b97f4a7c15))
	}
	return h, mix64(h ^ 0x6a09e667f3bcc909)
}

// StreamUniform returns the [0, 1) uniform of the (seed, ids...)
// substream: the top 53 bits of StreamSeeds' first word, scaled. It is
// the one Bernoulli draw of the seed-driven deployment plans (faults,
// churn, Byzantine selection, retry jitter).
func StreamUniform(seed uint64, ids ...uint64) float64 {
	lo, _ := StreamSeeds(seed, ids...)
	return float64(lo>>11) / (1 << 53)
}

// NewStreamRand returns a generator positioned at the start of the
// (seed, ids...) substream (see StreamSeeds). Hot loops that reseed per
// item should instead hold a rand.PCG and call Seed with StreamSeeds to
// stay allocation-free.
func NewStreamRand(seed uint64, ids ...uint64) *rand.Rand {
	lo, hi := StreamSeeds(seed, ids...)
	return rand.New(rand.NewPCG(lo, hi))
}

// Normal returns a draw from N(mean, stddev²).
func Normal(r *rand.Rand, mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// FillNormal fills x with independent N(mean, stddev²) draws.
func FillNormal(r *rand.Rand, x []float64, mean, stddev float64) {
	for i := range x {
		x[i] = Normal(r, mean, stddev)
	}
}

// Exponential returns a draw from Exp(rate); its mean is 1/rate.
// It panics if rate <= 0.
func Exponential(r *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		panic("mathx: Exponential requires rate > 0")
	}
	return r.ExpFloat64() / rate
}

// Zipf draws from a Zipf distribution over {0, ..., n-1} with exponent
// s (s=0 degenerates to uniform). Popularity-skewed item catalogues in
// the synthetic datasets use this. The implementation inverts the CDF
// with a cached table owned by the caller via NewZipfTable.
type ZipfTable struct {
	cdf []float64
}

// NewZipfTable precomputes the CDF of a Zipf(s) law over n outcomes.
// It panics if n <= 0 or s < 0.
func NewZipfTable(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("mathx: NewZipfTable requires n > 0")
	}
	if s < 0 {
		panic("mathx: NewZipfTable requires s >= 0")
	}
	cdf := make([]float64, n)
	var acc float64
	for k := 0; k < n; k++ {
		acc += 1 / math.Pow(float64(k+1), s)
		cdf[k] = acc
	}
	for k := range cdf {
		cdf[k] /= acc
	}
	return &ZipfTable{cdf: cdf}
}

// N returns the number of outcomes.
func (z *ZipfTable) N() int { return len(z.cdf) }

// Draw samples one outcome in [0, N).
func (z *ZipfTable) Draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a random permutation of [0, n) using r.
func Perm(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	Shuffle(r, p)
	return p
}

// Shuffle permutes s in place (Fisher–Yates).
func Shuffle(r *rand.Rand, s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// SampleWithoutReplacement returns k distinct values drawn uniformly
// from [0, n). It panics if k > n or either argument is negative.
// For small k relative to n it uses rejection; otherwise a partial
// Fisher–Yates pass, keeping both paths O(k) expected.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("mathx: SampleWithoutReplacement requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.IntN(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	p := Perm(r, n)
	return p[:k]
}

// WeightedChoice draws an index proportionally to weights[i]. Negative
// weights panic; an all-zero weight vector falls back to uniform.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	if len(weights) == 0 {
		panic("mathx: WeightedChoice on empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("mathx: WeightedChoice negative weight")
		}
		total += w
	}
	if total == 0 {
		return r.IntN(len(weights))
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	return r.Float64() < p
}
