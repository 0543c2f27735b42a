package mathx

import "fmt"

// Batched scoring kernels: the matrix-vector sweeps behind the
// full-catalogue item scoring of every model family (HR/F1 utility
// sweeps, CIA sender re-scoring, shadow-model evaluation). They replace
// one mathx.Dot call per catalogue item with a single streaming pass
// over the embedding table — row-major traversal with the shared
// vector register/L1-resident is already the cache-optimal access
// pattern for a mat-vec, so the win over the per-item loop is the
// hoisted per-call setup (no Row() slice construction or per-call
// length checks per item) and the callers' per-user precomputation,
// not tiling.
//
// Determinism contract: every kernel accumulates each row in exactly
// the order of its scalar sibling — Gemv/GemvRows/DotNormRows use Dot's
// 4-way independent-accumulator scheme (pairwise combine, see the note
// on Dot), SqDistRows/SqDistRowsGather use SqDist's strictly sequential
// order — so a batched sweep is bit-identical to the per-item loop it
// replaces, row by row, regardless of how many rows a call covers.
// On amd64, Gemv/GemvRows/DotNormRows and SigmoidInto dispatch to AVX2
// kernels (kernels_amd64.go) that keep the same order lane by lane;
// the Go loops below are the fallback and the kernels' reference.

// dotRow is Dot without the length check, operating on pre-sliced
// row storage. It must mirror Dot exactly (same unroll, same pairwise
// combine) — the batched kernels' bit-identity contract hangs on it.
func dotRow(row, v []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(row); i += 4 {
		rr := row[i : i+4 : i+4]
		vv := v[i : i+4 : i+4]
		s0 += rr[0] * vv[0]
		s1 += rr[1] * vv[1]
		s2 += rr[2] * vv[2]
		s3 += rr[3] * vv[3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(row); i++ {
		s += row[i] * v[i]
	}
	return s
}

// sqDistRow is SqDist without the length check: the strictly sequential
// accumulation order of the scalar kernel, preserved bit for bit.
func sqDistRow(v, row []float64) float64 {
	var s float64
	for i, x := range v {
		d := x - row[i]
		s += d * d
	}
	return s
}

// Gemv computes the dense matrix-vector product dst[i] = Dot(m.Row(i), v)
// (+ bias[i] when bias is non-nil) over every row of m in one streaming
// pass. Each row's accumulation order is identical to Dot, so the
// result is bit-identical to the per-row scalar loop. It panics on
// shape mismatches.
func Gemv(m *Matrix, v, bias, dst []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: Gemv vector length %d != cols %d", len(v), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: Gemv dst length %d != rows %d", len(dst), m.Rows))
	}
	if bias != nil && len(bias) != m.Rows {
		panic(fmt.Sprintf("mathx: Gemv bias length %d != rows %d", len(bias), m.Rows))
	}
	gemvRows(m, nil, v, dst)
	if bias != nil {
		AddInto(dst, bias, dst)
	}
}

// GemvRows is the gather form of Gemv: dst[i] = Dot(m.Row(rows[i]), v)
// (+ bias[rows[i]] when bias is non-nil; bias is indexed by row id, the
// item-bias layout of the models). Row ids out of range panic via the
// bounds check on the backing slice. It panics on length mismatches.
func GemvRows(m *Matrix, rows []int, v, bias, dst []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: GemvRows vector length %d != cols %d", len(v), m.Cols))
	}
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("mathx: GemvRows dst length %d != rows length %d", len(dst), len(rows)))
	}
	gemvRows(m, rows, v, dst)
	if bias != nil {
		for i, r := range rows {
			dst[i] += bias[r]
		}
	}
}

// gemvRowsGo is the scalar row sweep behind Gemv and GemvRows:
// dst[i] = dotRow(row r, v) with r = rows[i], or r = i when rows is nil.
func gemvRowsGo(m *Matrix, rows []int, v, dst []float64) {
	cols := m.Cols
	for i := range dst {
		r := i
		if rows != nil {
			r = rows[i]
		}
		base := r * cols
		dst[i] = dotRow(m.Data[base:base+cols:base+cols], v)
	}
}

// SqDistRows computes dst[i] = SqDist(v, m.Row(i)) over every row of m
// in one streaming pass. Each row's accumulation is strictly
// sequential, matching SqDist bit for bit (squared differences are
// symmetric, so the argument order of the scalar call is immaterial).
// It panics on shape mismatches.
func SqDistRows(m *Matrix, v, dst []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: SqDistRows vector length %d != cols %d", len(v), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: SqDistRows dst length %d != rows %d", len(dst), m.Rows))
	}
	cols := m.Cols
	base := 0
	for i := 0; i < m.Rows; i++ {
		dst[i] = sqDistRow(v, m.Data[base:base+cols:base+cols])
		base += cols
	}
}

// SqDistRowsGather is the gather form of SqDistRows:
// dst[i] = SqDist(v, m.Row(rows[i])).
func SqDistRowsGather(m *Matrix, rows []int, v, dst []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: SqDistRowsGather vector length %d != cols %d", len(v), m.Cols))
	}
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("mathx: SqDistRowsGather dst length %d != rows length %d", len(dst), len(rows)))
	}
	cols := m.Cols
	for i, r := range rows {
		base := r * cols
		dst[i] = sqDistRow(v, m.Data[base:base+cols:base+cols])
	}
}

// DotNormRows computes, for each gathered row r = m.Row(rows[i]), both
// dots[i] = Dot(r, v) and sqnorms[i] = Dot(r, r) in one pass over the
// row — the pair PRME's norm-adjusted relevance metric 2·v·L − ‖L‖²
// needs. Both accumulations follow Dot's scheme. It panics on length
// mismatches.
func DotNormRows(m *Matrix, rows []int, v, dots, sqnorms []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mathx: DotNormRows vector length %d != cols %d", len(v), m.Cols))
	}
	if len(dots) != len(rows) || len(sqnorms) != len(rows) {
		panic(fmt.Sprintf("mathx: DotNormRows dst lengths %d/%d != rows length %d",
			len(dots), len(sqnorms), len(rows)))
	}
	dotNormRows(m, rows, v, dots, sqnorms)
}

// dotNormRowsGo is the scalar sweep behind DotNormRows.
func dotNormRowsGo(m *Matrix, rows []int, v, dots, sqnorms []float64) {
	cols := m.Cols
	for i, r := range rows {
		base := r * cols
		row := m.Data[base : base+cols : base+cols]
		dots[i] = dotRow(row, v)
		sqnorms[i] = dotRow(row, row)
	}
}

// GatherMean returns (x[idx[0]] + x[idx[1]] + …) / len(idx), summed
// strictly left to right from +0 — the reduction of every relevance
// metric, so a mean gathered from a precomputed catalogue sweep is
// bit-identical to Sum over the gathered values. An empty idx yields 0;
// duplicate indices count once per occurrence.
func GatherMean(x []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += x[i]
	}
	return s / float64(len(idx))
}

// SigmoidInto writes Sigmoid(x[i]) into dst[i]. dst may alias x.
// It panics if the lengths differ.
func SigmoidInto(x, dst []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("mathx: SigmoidInto length mismatch %d != %d", len(x), len(dst)))
	}
	sigmoidInto(x, dst)
}

// sigmoidIntoGo is the scalar loop behind SigmoidInto.
func sigmoidIntoGo(x, dst []float64) {
	for i, v := range x {
		dst[i] = Sigmoid(v)
	}
}

// DecayStep3Rows applies DecayStep3(lr[j], l2[j], c[j], a, b[j], x[j])
// to every row j, bit for bit: the fictive fits' lanes update every
// lane's vector in one call per step. It panics if the lengths differ.
func DecayStep3Rows(lr, l2, c, a []float64, b, x [][]float64) {
	n := len(x)
	if len(lr) != n || len(l2) != n || len(c) != n || len(b) != n {
		panic(fmt.Sprintf("mathx: DecayStep3Rows row count mismatch %d, %d, %d, %d != %d", len(lr), len(l2), len(c), len(b), n))
	}
	for j := range x {
		if len(b[j]) != len(a) || len(x[j]) != len(a) {
			panic(fmt.Sprintf("mathx: DecayStep3Rows row %d length mismatch %d, %d != %d", j, len(b[j]), len(x[j]), len(a)))
		}
	}
	decayStep3Rows(lr, l2, c, a, b, x)
}

// decayStep3RowsGo is the scalar loop behind DecayStep3Rows.
func decayStep3RowsGo(lr, l2, c, a []float64, b, x [][]float64) {
	for j := range x {
		DecayStep3(lr[j], l2[j], c[j], a, b[j], x[j])
	}
}

// AddInto writes a[i] + b[i] into dst[i]. dst may alias a or b.
// Element updates are independent, so the result is bit-identical to
// the naive loop. It panics if the lengths differ.
func AddInto(a, b, dst []float64) {
	if len(a) != len(b) || len(a) != len(dst) {
		panic(fmt.Sprintf("mathx: AddInto length mismatch %d/%d/%d", len(a), len(b), len(dst)))
	}
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		dd := dst[i : i+4 : i+4]
		dd[0] = aa[0] + bb[0]
		dd[1] = aa[1] + bb[1]
		dd[2] = aa[2] + bb[2]
		dd[3] = aa[3] + bb[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// AddScalar adds c to every element of x in place.
func AddScalar(c float64, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		xx[0] += c
		xx[1] += c
		xx[2] += c
		xx[3] += c
	}
	for ; i < len(x); i++ {
		x[i] += c
	}
}

// NegScaleInto writes -alpha*x[i] into dst[i] — the "negative weighted
// distance" step of metric-embedding scores. dst may alias x.
// It panics if the lengths differ.
func NegScaleInto(alpha float64, x, dst []float64) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("mathx: NegScaleInto length mismatch %d != %d", len(x), len(dst)))
	}
	for i, v := range x {
		dst[i] = -(alpha * v)
	}
}
