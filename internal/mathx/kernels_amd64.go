package mathx

import "fmt"

// useAVX2 routes SigmoidInto, Gemv, GemvRows, DotNormRows and
// DecayStep3Rows through the AVX2 kernels of kernels_amd64.s. It is
// set once, at package initialisation: the CPU and OS must support
// AVX2 and FMA, and the sigmoid kernel must reproduce Sigmoid bit for
// bit on inputs where math.Exp's FMA and non-FMA paths round
// differently. The kernel always replays the FMA path, so when
// math.Exp takes the other one (GODEBUG=cpu.fma=off) the check fails
// and the scalar loops run.
var useAVX2 = hasAVX2FMA() && sigmoidKernelAgrees()

//go:noescape
func sigmoidAVX2(x, dst []float64) int

//go:noescape
func decayStep3RowsAVX2(lr, l2, c, a []float64, b, x [][]float64)

//go:noescape
func gemvAVX2(m []float64, cols int, rows []int, v, dst []float64)

//go:noescape
func dotNormRowsAVX2(m []float64, cols int, rows []int, v, dots, sqnorms []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports CPUID AVX2, FMA and OSXSAVE, with the OS saving
// YMM state (XCR0 bits 1 and 2).
func hasAVX2FMA() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave = 1 << 12, 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave) != fma|osxsave {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// sigmoidKernelAgrees runs the sigmoid kernel on arguments whose
// math.Exp differs by one ulp between the FMA and non-FMA paths and
// reports whether it matches Sigmoid on every one.
func sigmoidKernelAgrees() bool {
	x := [8]float64{0.2, 0.51, 1.01, 3.062, -1.211, -2.463, -4.985, -7.032}
	var got [8]float64
	if sigmoidAVX2(x[:], got[:]) != len(x) {
		return false
	}
	for i, v := range x {
		if got[i] != Sigmoid(v) {
			return false
		}
	}
	return true
}

// rowKernelFits reports whether the row kernel serves m (Cols a
// positive multiple of 4), after bounds-checking every row it would
// read: rows[i], or i < n when rows is nil. An out-of-range row panics
// here, before the assembly reads memory.
func rowKernelFits(m *Matrix, rows []int, n int) bool {
	if !useAVX2 || m.Cols <= 0 || m.Cols%4 != 0 {
		return false
	}
	have := len(m.Data) / m.Cols
	if rows == nil {
		return n <= have
	}
	for _, r := range rows {
		if uint(r) >= uint(have) {
			panic(fmt.Sprintf("mathx: row %d out of range [0, %d)", r, have))
		}
	}
	return true
}

func gemvRows(m *Matrix, rows []int, v, dst []float64) {
	if rowKernelFits(m, rows, len(dst)) {
		gemvAVX2(m.Data, m.Cols, rows, v, dst)
		return
	}
	gemvRowsGo(m, rows, v, dst)
}

func dotNormRows(m *Matrix, rows []int, v, dots, sqnorms []float64) {
	if rowKernelFits(m, rows, len(rows)) {
		dotNormRowsAVX2(m.Data, m.Cols, rows, v, dots, sqnorms)
		return
	}
	dotNormRowsGo(m, rows, v, dots, sqnorms)
}

// sigmoidInto hands whole 4-element blocks to the kernel; a block it
// stops at (a lane beyond ±708, ±Inf or NaN) and the tail run the
// scalar Sigmoid.
func sigmoidInto(x, dst []float64) {
	i := 0
	if useAVX2 {
		n := len(x) &^ 3
		for i < n {
			i += sigmoidAVX2(x[i:n], dst[i:n])
			if i < n {
				sigmoidIntoGo(x[i:i+4], dst[i:i+4])
				i += 4
			}
		}
	}
	sigmoidIntoGo(x[i:], dst[i:])
}

// decayStep3Rows hands rows of a positive multiple of 4 entries to the
// kernel.
func decayStep3Rows(lr, l2, c, a []float64, b, x [][]float64) {
	if useAVX2 && len(a) > 0 && len(a)%4 == 0 {
		decayStep3RowsAVX2(lr, l2, c, a, b, x)
		return
	}
	decayStep3RowsGo(lr, l2, c, a, b, x)
}
