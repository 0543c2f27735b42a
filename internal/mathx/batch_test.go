package mathx

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// randMatrix fills a rows×cols matrix with standard normals.
func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// batchShapes exercises tails (cols % 4 != 0), tiny dims below the
// unroll width, and catalogue-sized row counts.
var batchShapes = []struct{ rows, cols int }{
	{1, 1}, {3, 2}, {5, 3}, {7, 4}, {16, 5}, {40, 8},
	{255, 7}, {256, 9}, {259, 16}, {1000, 13},
}

// TestGemvBitIdenticalToDot pins the tentpole contract: every batched
// row result equals the scalar Dot of that row, bit for bit, with and
// without bias, for contiguous and gathered row sets.
func TestGemvBitIdenticalToDot(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, sh := range batchShapes {
		m := randMatrix(r, sh.rows, sh.cols)
		v := randVec(r, sh.cols)
		bias := randVec(r, sh.rows)
		dst := make([]float64, sh.rows)

		Gemv(m, v, nil, dst)
		for i := range dst {
			if want := Dot(m.Row(i), v); dst[i] != want {
				t.Fatalf("%dx%d Gemv row %d: %v != Dot %v", sh.rows, sh.cols, i, dst[i], want)
			}
		}
		Gemv(m, v, bias, dst)
		for i := range dst {
			if want := Dot(m.Row(i), v) + bias[i]; dst[i] != want {
				t.Fatalf("%dx%d Gemv+bias row %d: %v != %v", sh.rows, sh.cols, i, dst[i], want)
			}
		}

		rows := make([]int, 0, sh.rows)
		for n := 0; n < sh.rows; n++ {
			rows = append(rows, r.IntN(sh.rows))
		}
		got := make([]float64, len(rows))
		GemvRows(m, rows, v, nil, got)
		for i, row := range rows {
			if want := Dot(m.Row(row), v); got[i] != want {
				t.Fatalf("%dx%d GemvRows[%d]=row %d: %v != %v", sh.rows, sh.cols, i, row, got[i], want)
			}
		}
		GemvRows(m, rows, v, bias, got)
		for i, row := range rows {
			if want := Dot(m.Row(row), v) + bias[row]; got[i] != want {
				t.Fatalf("%dx%d GemvRows+bias[%d]: %v != %v", sh.rows, sh.cols, i, got[i], want)
			}
		}
	}
}

// TestSqDistRowsBitIdenticalToSqDist pins the metric-space kernels to
// the scalar SqDist, bit for bit, in both argument orders.
func TestSqDistRowsBitIdenticalToSqDist(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, sh := range batchShapes {
		m := randMatrix(r, sh.rows, sh.cols)
		v := randVec(r, sh.cols)
		dst := make([]float64, sh.rows)
		SqDistRows(m, v, dst)
		for i := range dst {
			if want := SqDist(v, m.Row(i)); dst[i] != want {
				t.Fatalf("%dx%d SqDistRows row %d: %v != %v", sh.rows, sh.cols, i, dst[i], want)
			}
			if want := SqDist(m.Row(i), v); dst[i] != want {
				t.Fatalf("%dx%d SqDistRows row %d asymmetric: %v != %v", sh.rows, sh.cols, i, dst[i], want)
			}
		}

		rows := []int{sh.rows - 1, 0, sh.rows / 2}
		got := make([]float64, len(rows))
		SqDistRowsGather(m, rows, v, got)
		for i, row := range rows {
			if want := SqDist(v, m.Row(row)); got[i] != want {
				t.Fatalf("%dx%d SqDistRowsGather[%d]: %v != %v", sh.rows, sh.cols, i, got[i], want)
			}
		}
	}
}

func TestDotNormRows(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for _, sh := range batchShapes {
		m := randMatrix(r, sh.rows, sh.cols)
		v := randVec(r, sh.cols)
		rows := []int{0, sh.rows - 1, sh.rows / 3}
		dots := make([]float64, len(rows))
		norms := make([]float64, len(rows))
		DotNormRows(m, rows, v, dots, norms)
		for i, row := range rows {
			if want := Dot(m.Row(row), v); dots[i] != want {
				t.Fatalf("DotNormRows dots[%d]: %v != %v", i, dots[i], want)
			}
			if want := Dot(m.Row(row), m.Row(row)); norms[i] != want {
				t.Fatalf("DotNormRows norms[%d]: %v != %v", i, norms[i], want)
			}
		}
	}
}

func TestElementwiseHelpers(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{0, 1, 3, 4, 7, 129} {
		a, b := randVec(r, n), randVec(r, n)
		dst := make([]float64, n)
		AddInto(a, b, dst)
		for i := range dst {
			if dst[i] != a[i]+b[i] {
				t.Fatalf("AddInto[%d]: %v != %v", i, dst[i], a[i]+b[i])
			}
		}
		// Aliased destination.
		c := append([]float64(nil), a...)
		AddInto(c, b, c)
		for i := range c {
			if c[i] != a[i]+b[i] {
				t.Fatalf("AddInto aliased[%d]: %v != %v", i, c[i], a[i]+b[i])
			}
		}

		SigmoidInto(a, dst)
		for i := range dst {
			if dst[i] != Sigmoid(a[i]) {
				t.Fatalf("SigmoidInto[%d]: %v != %v", i, dst[i], Sigmoid(a[i]))
			}
		}

		s := append([]float64(nil), a...)
		AddScalar(0.25, s)
		for i := range s {
			if s[i] != a[i]+0.25 {
				t.Fatalf("AddScalar[%d]: %v != %v", i, s[i], a[i]+0.25)
			}
		}

		idx := make([]int, n)
		for i := range idx {
			idx[i] = r.IntN(n)
		}
		var mean float64
		for _, i := range idx {
			mean += a[i]
		}
		if n > 0 {
			mean /= float64(n)
		}
		if got := GatherMean(a, idx); got != mean {
			t.Fatalf("GatherMean n=%d: %v != %v", n, got, mean)
		}

		NegScaleInto(0.3, a, dst)
		for i := range dst {
			if dst[i] != -(0.3 * a[i]) {
				t.Fatalf("NegScaleInto[%d]: %v != %v", i, dst[i], -(0.3 * a[i]))
			}
		}
	}
}

func TestBatchKernelPanics(t *testing.T) {
	m := NewMatrix(3, 4)
	v3, v4 := make([]float64, 3), make([]float64, 4)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("Gemv bad vec", func() { Gemv(m, v3, nil, v3) })
	expectPanic("Gemv bad dst", func() { Gemv(m, v4, nil, v4) })
	expectPanic("Gemv bad bias", func() { Gemv(m, v4, v4, v3) })
	expectPanic("GemvRows bad dst", func() { GemvRows(m, []int{0, 1}, v4, nil, v3) })
	expectPanic("SqDistRows bad vec", func() { SqDistRows(m, v3, v3) })
	expectPanic("SqDistRowsGather bad dst", func() { SqDistRowsGather(m, []int{0}, v4, v3) })
	expectPanic("DotNormRows bad dst", func() { DotNormRows(m, []int{0}, v4, v3, make([]float64, 1)) })
	expectPanic("SigmoidInto mismatch", func() { SigmoidInto(v3, v4) })
	expectPanic("AddInto mismatch", func() { AddInto(v3, v4, v4) })
	expectPanic("NegScaleInto mismatch", func() { NegScaleInto(1, v3, v4) })
}

// The kernel microbenchmarks price each batched call at the sizes the
// models use (dim 8, a 700-item catalogue, 45-item targets): "kernel"
// is the exported call, which dispatches to the AVX2 kernel where
// initialisation enabled it, "scalar" the Go loop behind it.

var benchSink float64

func BenchmarkSigmoidInto(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 64))
	for _, n := range []int{64, 700} {
		x := randVec(r, n)
		Scale(4, x)
		dst := make([]float64, n)
		for _, p := range []struct {
			name string
			f    func(x, dst []float64)
		}{{"kernel", SigmoidInto}, {"scalar", sigmoidIntoGo}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, p.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.f(x, dst)
				}
				benchSink = dst[0]
			})
		}
	}
}

func BenchmarkGemvRows(b *testing.B) {
	r := rand.New(rand.NewPCG(2, 64))
	m := randMatrix(r, 700, 8)
	v := randVec(r, 8)
	rows := make([]int, 45)
	for i := range rows {
		rows[i] = r.IntN(700)
	}
	dst := make([]float64, len(rows))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GemvRows(m, rows, v, nil, dst)
		}
		benchSink = dst[0]
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gemvRowsGo(m, rows, v, dst)
		}
		benchSink = dst[0]
	})
}

func BenchmarkDotNormRows(b *testing.B) {
	r := rand.New(rand.NewPCG(3, 64))
	m := randMatrix(r, 700, 8)
	v := randVec(r, 8)
	rows := make([]int, m.Rows)
	for i := range rows {
		rows[i] = i
	}
	dots, norms := make([]float64, len(rows)), make([]float64, len(rows))
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotNormRows(m, rows, v, dots, norms)
		}
		benchSink = dots[0]
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dotNormRowsGo(m, rows, v, dots, norms)
		}
		benchSink = dots[0]
	})
}
