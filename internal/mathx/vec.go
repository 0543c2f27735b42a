// Package mathx provides the small dense linear-algebra, sampling and
// statistics substrate used by every other package in this repository.
//
// The recommendation models in the reproduced paper (GMF, PRME and a
// one-hidden-layer MLP) only need dense vector arithmetic, so this
// package deliberately stays minimal: contiguous []float64 vectors,
// row-major matrices, and the handful of distributions the protocols
// and datasets sample from. Everything is allocation-conscious because
// the protocol simulators call these ops millions of times per run.
package mathx

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the lengths differ.
//
// The loop is 4-way unrolled with independent accumulators so the
// multiply-adds pipeline instead of serializing on one register; the
// partial sums are combined pairwise at the end, which keeps the
// result deterministic (though not bit-identical to a strictly
// sequential sum).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		bb := b[i : i+4 : i+4]
		aa := a[i : i+4 : i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes dst += alpha*x element-wise.
// It panics if the lengths differ.
//
// 4-way unrolled; element updates are independent, so the result is
// bit-identical to the naive loop.
func Axpy(alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("mathx: Axpy length mismatch %d != %d", len(x), len(dst)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		dd := dst[i : i+4 : i+4]
		dd[0] += alpha * xx[0]
		dd[1] += alpha * xx[1]
		dd[2] += alpha * xx[2]
		dd[3] += alpha * xx[3]
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place (4-way
// unrolled; bit-identical to the naive loop).
func Scale(alpha float64, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		xx[0] *= alpha
		xx[1] *= alpha
		xx[2] *= alpha
		xx[3] *= alpha
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// Lerp overwrites dst with beta*dst + (1-beta)*x, the exponential
// moving average step used by the attack's momentum tracker (Eq. 4 of
// the paper). It panics if the lengths differ.
//
// 4-way unrolled; element updates are independent, so the result is
// bit-identical to the naive loop.
func Lerp(beta float64, dst, x []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("mathx: Lerp length mismatch %d != %d", len(dst), len(x)))
	}
	ib := 1 - beta
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		xx := x[i : i+4 : i+4]
		dd := dst[i : i+4 : i+4]
		dd[0] = beta*dd[0] + ib*xx[0]
		dd[1] = beta*dd[1] + ib*xx[1]
		dd[2] = beta*dd[2] + ib*xx[2]
		dd[3] = beta*dd[3] + ib*xx[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = beta*dst[i] + ib*x[i]
	}
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	clear(x)
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// L2Norm returns the Euclidean norm of x.
//
// The loop body is 4-way unrolled (full-slice views eliminate the
// per-element bounds checks) but — deliberately unlike Dot — keeps a
// single accumulator with strictly sequential adds. L2Norm sits on the
// training path (ClipL2 gates every PRME embedding update), where the
// repository's bit-reproducibility contract pins the sequential
// addition order: switching to Dot's independent-accumulator
// pairwise-combine scheme would shift every clip decision by a few ulps
// and invalidate the golden end-to-end hashes. The pure-scoring batch
// kernels (Gemv and friends) are where the pairwise scheme applies.
func L2Norm(x []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		s += xx[0] * xx[0]
		s += xx[1] * xx[1]
		s += xx[2] * xx[2]
		s += xx[3] * xx[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * x[i]
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between a and b.
// It panics if the lengths differ.
//
// 4-way unrolled with a single sequential accumulator, for the same
// reason as L2Norm: SqDist is PRME's training-time score kernel, so its
// addition order is part of the golden determinism contract (see the
// pairwise-combine note on Dot for the scheme the scoring-only kernels
// use instead).
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: SqDist length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		d0 := aa[0] - bb[0]
		s += d0 * d0
		d1 := aa[1] - bb[1]
		s += d1 * d1
		d2 := aa[2] - bb[2]
		s += d2 * d2
		d3 := aa[3] - bb[3]
		s += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// ClipL2 scales x in place so that its L2 norm does not exceed c.
// It returns the factor applied (1 when no clipping occurred).
// A non-positive c leaves x untouched.
func ClipL2(x []float64, c float64) float64 {
	if c <= 0 {
		return 1
	}
	n := L2Norm(x)
	if n <= c || n == 0 {
		return 1
	}
	f := c / n
	Scale(f, x)
	return f
}

// Hadamard writes the element-wise product of a and b into dst.
// dst may alias a or b. It panics if the lengths differ.
func Hadamard(a, b, dst []float64) {
	if len(a) != len(b) || len(a) != len(dst) {
		panic(fmt.Sprintf("mathx: Hadamard length mismatch %d/%d/%d", len(a), len(b), len(dst)))
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Sigmoid returns 1/(1+exp(-x)) computed in a numerically stable way.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// LogSigmoid returns log(sigmoid(x)) without overflow for large |x|.
func LogSigmoid(x float64) float64 {
	if x >= 0 {
		return -math.Log1p(math.Exp(-x))
	}
	return x - math.Log1p(math.Exp(x))
}

// Softmax overwrites x with its softmax. It is numerically stable and
// safe for an all-equal input.
func Softmax(x []float64) {
	if len(x) == 0 {
		return
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(v - m)
		x[i] = e
		sum += e
	}
	for i := range x {
		x[i] /= sum
	}
}

// ReLU writes max(0, x_i) into dst. dst may alias x.
func ReLU(x, dst []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("mathx: ReLU length mismatch %d != %d", len(x), len(dst)))
	}
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Dot3 returns Σ a[i]*b[i]*c[i], accumulated strictly left to right.
// Unlike Dot it must stay sequential: it is the scalar reference for
// golden-pinned triple-product scores (GMF's h·(u ⊙ q)), and callers'
// hashes pin the naive accumulation order. It panics if the lengths
// differ.
func Dot3(a, b, c []float64) float64 {
	if len(a) != len(b) || len(a) != len(c) {
		panic(fmt.Sprintf("mathx: Dot3 length mismatch %d, %d, %d", len(a), len(b), len(c)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i] * c[i]
	}
	return s
}

// AxpyDiff computes dst += alpha*(x - y) element-wise — the weighted
// delta-accumulation at the core of the FedAvg reduce. Element
// updates are independent, so the 4-way unroll is bit-identical to
// the naive loop. It panics if the lengths differ.
func AxpyDiff(alpha float64, x, y, dst []float64) {
	if len(x) != len(dst) || len(y) != len(dst) {
		panic(fmt.Sprintf("mathx: AxpyDiff length mismatch %d, %d != %d", len(x), len(y), len(dst)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		yy := y[i : i+4 : i+4]
		dd := dst[i : i+4 : i+4]
		dd[0] += alpha * (xx[0] - yy[0])
		dd[1] += alpha * (xx[1] - yy[1])
		dd[2] += alpha * (xx[2] - yy[2])
		dd[3] += alpha * (xx[3] - yy[3])
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * (x[i] - y[i])
	}
}

// DriftToward computes x -= c*(x - ref) element-wise: the
// drift-regularizer step that pulls a row toward its reference value,
// shared by every personalized model family. Element updates are
// independent, so the result is bit-identical to the naive loop. It
// panics if the lengths differ.
func DriftToward(c float64, ref, x []float64) {
	if len(ref) != len(x) {
		panic(fmt.Sprintf("mathx: DriftToward length mismatch %d != %d", len(ref), len(x)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		rr := ref[i : i+4 : i+4]
		xx := x[i : i+4 : i+4]
		xx[0] -= c * (xx[0] - rr[0])
		xx[1] -= c * (xx[1] - rr[1])
		xx[2] -= c * (xx[2] - rr[2])
		xx[3] -= c * (xx[3] - rr[3])
	}
	for ; i < len(x); i++ {
		x[i] -= c * (x[i] - ref[i])
	}
}

// DecayStep computes x -= lr*(g + l2*x) element-wise: one SGD step
// along the gradient g with L2 weight decay, as the fictive-user fits
// apply it. Element updates are independent, so the result is
// bit-identical to the naive loop. It panics if the lengths differ.
func DecayStep(lr, l2 float64, g, x []float64) {
	if len(g) != len(x) {
		panic(fmt.Sprintf("mathx: DecayStep length mismatch %d != %d", len(g), len(x)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		gg := g[i : i+4 : i+4]
		xx := x[i : i+4 : i+4]
		xx[0] -= lr * (gg[0] + l2*xx[0])
		xx[1] -= lr * (gg[1] + l2*xx[1])
		xx[2] -= lr * (gg[2] + l2*xx[2])
		xx[3] -= lr * (gg[3] + l2*xx[3])
	}
	for ; i < len(x); i++ {
		x[i] -= lr * (g[i] + l2*x[i])
	}
}

// DecayStep3 computes x -= lr*(c*a*b + l2*x) element-wise, with
// c*a[i]*b[i] formed left to right as in Dot3: DecayStep along the
// gradient c·(a ⊙ b) without materializing it. Element updates are
// independent, so the result is bit-identical to the naive loop. It
// panics if the lengths differ.
func DecayStep3(lr, l2, c float64, a, b, x []float64) {
	if len(a) != len(x) || len(b) != len(x) {
		panic(fmt.Sprintf("mathx: DecayStep3 length mismatch %d, %d != %d", len(a), len(b), len(x)))
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		xx := x[i : i+4 : i+4]
		xx[0] -= lr * (c*aa[0]*bb[0] + l2*xx[0])
		xx[1] -= lr * (c*aa[1]*bb[1] + l2*xx[1])
		xx[2] -= lr * (c*aa[2]*bb[2] + l2*xx[2])
		xx[3] -= lr * (c*aa[3]*bb[3] + l2*xx[3])
	}
	for ; i < len(x); i++ {
		x[i] -= lr * (c*a[i]*b[i] + l2*x[i])
	}
}
