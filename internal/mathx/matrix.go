package mathx

import "fmt"

// Matrix is a dense row-major matrix backed by a single contiguous
// slice. Row views are cheap sub-slices, which is the access pattern of
// every embedding table in the repository (user × dim, item × dim).
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mathx: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns a mutable view of row i. It is cheap enough to inline
// into the training steps.
func (m *Matrix) Row(i int) []float64 {
	if uint(i) >= uint(m.Rows) {
		panic(rowRangeError{i, m.Rows})
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// rowRangeError is Row's panic value.
type rowRangeError struct{ row, rows int }

func (e rowRangeError) Error() string {
	return fmt.Sprintf("mathx: row %d out of range [0,%d)", e.row, e.rows)
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mathx: col %d out of range [0,%d)", j, m.Cols))
	}
	return m.Row(i)[j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mathx: col %d out of range [0,%d)", j, m.Cols))
	}
	m.Row(i)[j] = v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with the contents of src.
// It panics on shape mismatch.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mathx: CopyFrom shape mismatch %dx%d != %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// MulVec computes dst = m · x where x has length Cols and dst length
// Rows. It panics on shape mismatch. The product runs on the blocked
// Gemv kernel; each row accumulates exactly as Dot, so the result is
// bit-identical to the historical per-row loop.
func (m *Matrix) MulVec(x, dst []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: MulVec shape mismatch: x %d, dst %d for %dx%d",
			len(x), len(dst), m.Rows, m.Cols))
	}
	Gemv(m, x, nil, dst)
}

// MulVecT computes dst = mᵀ · x where x has length Rows and dst length
// Cols. It panics on shape mismatch.
func (m *Matrix) MulVecT(x, dst []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mathx: MulVecT shape mismatch")
	}
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), dst)
	}
}
