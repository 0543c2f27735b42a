package mathx

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
)

// The AVX2 kernels must agree bit for bit with the scalar code they
// replace: Sigmoid for the sigmoid kernel, dotRow for the row kernel.
// Each test runs both dispatch paths in this binary by flipping
// useAVX2; the kernel path runs only where initialisation enabled it.

// eachPath runs f with the scalar loops and, when the kernels are on,
// with the kernels, restoring the switch afterwards.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	enabled := useAVX2
	defer func() { useAVX2 = enabled }()
	useAVX2 = false
	t.Run("scalar", f)
	if !enabled {
		t.Log("AVX2 kernels disabled at init; scalar path only")
		return
	}
	useAVX2 = true
	t.Run("kernel", f)
}

// sameBits reports bitwise equality; NaNs match only when their bits
// do too.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sigmoidInputs returns n random arguments across the kernel's range
// and beyond, then the edge cases: ±0, the ±708 range limits and their
// neighbours, ±709 (Exp(−709) is already subnormal), ±745 (the last
// nonzero Exp), arguments whose sigmoid is subnormal, NaN and ±Inf.
func sigmoidInputs(n int) []float64 {
	r := rand.New(rand.NewPCG(24, 7))
	x := make([]float64, 0, n+64)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			x = append(x, r.NormFloat64()*4)
		case 1:
			x = append(x, (r.Float64()*2-1)*720)
		case 2:
			x = append(x, (r.Float64()*2-1)*1e-3)
		default:
			x = append(x, r.NormFloat64()*40)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 708, -708, math.Nextafter(708, 1000), math.Nextafter(-708, -1000),
		709, -709, 745, -745, -720, -730, -740, -744.4, -746, 1e-300, -1e-300, 5e-324,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	}
	return append(x, edges...)
}

func TestSigmoidKernelBitIdentical(t *testing.T) {
	x := sigmoidInputs(4_000_000)
	want := make([]float64, len(x))
	for i, v := range x {
		want[i] = Sigmoid(v)
	}
	got := make([]float64, len(x))
	eachPath(t, func(t *testing.T) {
		SigmoidInto(x, got)
		for i := range x {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("SigmoidInto(%v) = %v (%#x), Sigmoid = %v (%#x)",
					x[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	})
	if !useAVX2 {
		return
	}
	// Every in-range block must take the kernel, not the fallback.
	in := make([]float64, 0, len(x))
	for _, v := range x {
		if math.Abs(v) <= 708 {
			in = append(in, v)
		}
	}
	in = in[:len(in)&^3]
	if n := sigmoidAVX2(in, got[:len(in)]); n != len(in) {
		t.Fatalf("sigmoid kernel stopped at %d of %d in-range arguments (x=%v)", n, len(in), in[n])
	}
}

// TestSigmoidKernelShapes covers every length 0–33, dst aliasing x,
// sub-slices at every alignment, and fallback blocks between kernel
// blocks.
func TestSigmoidKernelShapes(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 24))
	eachPath(t, func(t *testing.T) {
		for n := 0; n <= 33; n++ {
			for off := 0; off < 4; off++ {
				buf := make([]float64, off+n)
				for i := range buf {
					buf[i] = r.NormFloat64() * 6
					if r.IntN(9) == 0 {
						buf[i] = []float64{math.NaN(), math.Inf(-1), 800, -1000}[r.IntN(4)]
					}
				}
				x := buf[off:]
				want := make([]float64, n)
				for i, v := range x {
					want[i] = Sigmoid(v)
				}
				dst := make([]float64, off+n)[off:]
				SigmoidInto(x, dst)
				SigmoidInto(x, x)
				for i := range want {
					if !sameBits(dst[i], want[i]) || !sameBits(x[i], want[i]) {
						t.Fatalf("n=%d off=%d [%d]: got %v, aliased %v, want %v", n, off, i, dst[i], x[i], want[i])
					}
				}
			}
		}
	})
}

// TestRowKernelBitIdentical holds Gemv, GemvRows and DotNormRows to
// dotRow for Cols 4, 8, 12 and 16 (the kernel) and 6 (the fallback),
// every row count 0–33, and matrix and vector storage at every
// alignment.
func TestRowKernelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 24))
	eachPath(t, func(t *testing.T) {
		for _, cols := range []int{4, 8, 12, 16, 6} {
			for rows := 0; rows <= 33; rows++ {
				off := rows % 4
				data := randVec(r, off+rows*cols)[off:]
				if rows > 0 {
					data[r.IntN(len(data))] = math.Copysign(0, -1)
					data[r.IntN(len(data))] = 1e300
				}
				m := &Matrix{Rows: rows, Cols: cols, Data: data}
				v := randVec(r, cols+off)[off:]
				bias := randVec(r, rows)
				ids := make([]int, rows+rows/2)
				for i := range ids {
					ids[i] = r.IntN(max(rows, 1))
				}
				if rows == 0 {
					ids = nil
				}
				if got, want := rowKernelFits(m, nil, rows), useAVX2 && cols%4 == 0; got != want {
					t.Fatalf("cols %d: row kernel fits %v, want %v", cols, got, want)
				}

				dst := make([]float64, rows)
				Gemv(m, v, bias, dst)
				for i := range dst {
					if want := dotRow(m.Row(i), v) + bias[i]; !sameBits(dst[i], want) {
						t.Fatalf("%dx%d Gemv row %d: %v != %v", rows, cols, i, dst[i], want)
					}
				}
				got := make([]float64, len(ids))
				norms := make([]float64, len(ids))
				GemvRows(m, ids, v, nil, got)
				for i, id := range ids {
					if want := dotRow(m.Row(id), v); !sameBits(got[i], want) {
						t.Fatalf("%dx%d GemvRows[%d]=row %d: %v != %v", rows, cols, i, id, got[i], want)
					}
				}
				GemvRows(m, ids, v, bias, got)
				for i, id := range ids {
					if want := dotRow(m.Row(id), v) + bias[id]; !sameBits(got[i], want) {
						t.Fatalf("%dx%d GemvRows+bias[%d]: %v != %v", rows, cols, i, got[i], want)
					}
				}
				DotNormRows(m, ids, v, got, norms)
				for i, id := range ids {
					row := m.Row(id)
					if want := dotRow(row, v); !sameBits(got[i], want) {
						t.Fatalf("%dx%d DotNormRows dots[%d]: %v != %v", rows, cols, i, got[i], want)
					}
					if want := dotRow(row, row); !sameBits(norms[i], want) {
						t.Fatalf("%dx%d DotNormRows norms[%d]: %v != %v", rows, cols, i, norms[i], want)
					}
				}
			}
		}
	})
}

// TestDecayStep3RowsKernelBitIdentical holds DecayStep3Rows to
// DecayStep3 row by row for rows of 4, 8, 12 and 16 entries (the
// kernel) and 6 (the fallback), 0–17 rows with their own rates, and
// storage at every alignment, with signed zeros, overflowing products
// and non-finite values mixed in.
func TestDecayStep3RowsKernelBitIdentical(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 28))
	specials := []float64{math.Copysign(0, -1), 1e300, -1e300, math.Inf(1), math.NaN()}
	eachPath(t, func(t *testing.T) {
		for _, dim := range []int{4, 8, 12, 16, 6} {
			for rows := 0; rows <= 17; rows++ {
				off := rows % 4
				a := randVec(r, dim+off)[off:]
				lr, l2, c := randVec(r, rows), randVec(r, rows), randVec(r, rows)
				b, x, want := make([][]float64, rows), make([][]float64, rows), make([][]float64, rows)
				for j := range x {
					b[j] = randVec(r, dim+off)[off:]
					x[j] = randVec(r, dim+j%4)[j%4:]
					if j%5 == 4 {
						x[j][r.IntN(dim)] = specials[j%len(specials)]
						c[j] = specials[(j+1)%len(specials)]
					}
					want[j] = append([]float64(nil), x[j]...)
					DecayStep3(lr[j], l2[j], c[j], a, b[j], want[j])
				}
				DecayStep3Rows(lr, l2, c, a, b, x)
				for j := range x {
					for i := range x[j] {
						if !sameBits(x[j][i], want[j][i]) {
							t.Fatalf("dim %d, %d rows: row %d [%d] = %v, DecayStep3 %v", dim, rows, j, i, x[j][i], want[j][i])
						}
					}
				}
			}
		}
	})
}

// TestRowKernelOutOfRangePanics: every row is bounds-checked before the
// assembly reads the matrix, gathered ids and a Gemv over a matrix
// whose Data is shorter than Rows×Cols alike.
func TestRowKernelOutOfRangePanics(t *testing.T) {
	m := NewMatrix(3, 8)
	v := make([]float64, 8)
	expect := func(t *testing.T, name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	eachPath(t, func(t *testing.T) {
		for _, ids := range [][]int{{0, 3}, {-1}, {1 << 40}} {
			out := make([]float64, len(ids))
			expect(t, fmt.Sprint("GemvRows ", ids), func() { GemvRows(m, ids, v, nil, out) })
			expect(t, fmt.Sprint("DotNormRows ", ids), func() { DotNormRows(m, ids, v, out, make([]float64, len(ids))) })
		}
		short := &Matrix{Rows: 3, Cols: 8, Data: make([]float64, 16)}
		expect(t, "Gemv short Data", func() { Gemv(short, v, nil, make([]float64, 3)) })
	})
}

// TestKernelDispatch: on an AVX2+FMA machine the kernels are on, unless
// GODEBUG moves math.Exp off its FMA path; then the self-check must
// see the one-ulp difference and keep them off. CI runs this package
// once more under GODEBUG=cpu.fma=off.
func TestKernelDispatch(t *testing.T) {
	if !hasAVX2FMA() {
		if useAVX2 {
			t.Fatal("kernels enabled without AVX2+FMA")
		}
		t.Skip("no AVX2+FMA on this machine")
	}
	godebug := os.Getenv("GODEBUG")
	fmaOff := strings.Contains(godebug, "cpu.fma=off") || strings.Contains(godebug, "cpu.avx=off") || strings.Contains(godebug, "cpu.all=off")
	if fmaOff {
		if sigmoidKernelAgrees() || useAVX2 {
			t.Fatalf("GODEBUG=cpu.fma=off: self-check agrees=%v, kernels enabled=%v; want both false",
				sigmoidKernelAgrees(), useAVX2)
		}
		return
	}
	if !useAVX2 {
		t.Fatal("AVX2+FMA present and math.Exp on its FMA path, but the kernels are off")
	}
}
