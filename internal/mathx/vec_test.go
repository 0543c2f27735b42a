package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b []float64
		want float64
	}{
		{"empty", nil, nil, 0},
		{"units", []float64{1, 0}, []float64{0, 1}, 0},
		{"basic", []float64{1, 2, 3}, []float64{4, 5, 6}, 32},
		{"negative", []float64{-1, 2}, []float64{3, -4}, -11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("Dot(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, dst)
	want := []float64{3, 4, 5}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", dst, want)
		}
	}
}

func TestLerpEndpoints(t *testing.T) {
	dst := []float64{10, 20}
	x := []float64{2, 4}
	Lerp(1, dst, x) // beta=1 keeps dst
	if dst[0] != 10 || dst[1] != 20 {
		t.Fatalf("Lerp beta=1 modified dst: %v", dst)
	}
	Lerp(0, dst, x) // beta=0 copies x
	if dst[0] != 2 || dst[1] != 4 {
		t.Fatalf("Lerp beta=0 did not copy x: %v", dst)
	}
}

func TestLerpMidpoint(t *testing.T) {
	dst := []float64{0}
	Lerp(0.5, dst, []float64{10})
	if !almostEq(dst[0], 5, 1e-12) {
		t.Fatalf("Lerp midpoint = %v, want 5", dst[0])
	}
}

func TestClipL2(t *testing.T) {
	x := []float64{3, 4} // norm 5
	f := ClipL2(x, 2.5)
	if !almostEq(f, 0.5, 1e-12) {
		t.Fatalf("clip factor = %v, want 0.5", f)
	}
	if !almostEq(L2Norm(x), 2.5, 1e-12) {
		t.Fatalf("post-clip norm = %v, want 2.5", L2Norm(x))
	}
	// No clipping when already inside the ball.
	y := []float64{0.1, 0.1}
	if f := ClipL2(y, 10); f != 1 {
		t.Fatalf("unnecessary clip factor %v", f)
	}
	// Non-positive c is a no-op.
	z := []float64{100}
	if f := ClipL2(z, 0); f != 1 || z[0] != 100 {
		t.Fatalf("ClipL2 with c=0 modified input")
	}
}

func TestClipL2Property(t *testing.T) {
	// Property: after clipping, the norm never exceeds c (up to fp error).
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			x[i] = math.Mod(v, 1e6)
		}
		const c = 3.0
		ClipL2(x, c)
		return L2Norm(x) <= c*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{0, 0.5},
		{100, 1},
		{-100, 0},
	}
	for _, tt := range tests {
		if got := Sigmoid(tt.x); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("Sigmoid(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestSigmoidSymmetryProperty(t *testing.T) {
	// sigmoid(x) + sigmoid(-x) == 1 for all finite x.
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return almostEq(Sigmoid(x)+Sigmoid(-x), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogSigmoidConsistency(t *testing.T) {
	for _, x := range []float64{-30, -1, 0, 1, 30} {
		want := math.Log(Sigmoid(x))
		if got := LogSigmoid(x); !almostEq(got, want, 1e-9) {
			t.Errorf("LogSigmoid(%v) = %v, want %v", x, got, want)
		}
	}
	// Must not be -Inf even for very negative inputs.
	if v := LogSigmoid(-1000); math.IsInf(v, -1) {
		t.Error("LogSigmoid(-1000) overflowed to -Inf")
	}
}

func TestSoftmax(t *testing.T) {
	x := []float64{1, 2, 3}
	Softmax(x)
	if !almostEq(Sum(x), 1, 1e-12) {
		t.Fatalf("softmax does not sum to 1: %v", Sum(x))
	}
	if !(x[2] > x[1] && x[1] > x[0]) {
		t.Fatalf("softmax not monotone: %v", x)
	}
	// Large inputs must not overflow.
	y := []float64{1000, 1000}
	Softmax(y)
	if !almostEq(y[0], 0.5, 1e-12) || !almostEq(y[1], 0.5, 1e-12) {
		t.Fatalf("softmax unstable for large inputs: %v", y)
	}
}

func TestReLU(t *testing.T) {
	x := []float64{-1, 0, 2}
	dst := make([]float64, 3)
	ReLU(x, dst)
	want := []float64{0, 0, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("ReLU = %v, want %v", dst, want)
		}
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist([]float64{0, 0}, []float64{3, 4}); !almostEq(got, 25, 1e-12) {
		t.Fatalf("SqDist = %v, want 25", got)
	}
}

func TestHadamard(t *testing.T) {
	dst := make([]float64, 2)
	Hadamard([]float64{2, 3}, []float64{4, 5}, dst)
	if dst[0] != 8 || dst[1] != 15 {
		t.Fatalf("Hadamard = %v", dst)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

// The three kernels below replaced handwritten loops in model/fed hot
// paths under the mathxseam lint seam. The golden experiment hashes
// are tolerance-0, so each test demands bit identity (==, not almostEq)
// against the exact naive loop the kernel displaced, across lengths
// that exercise the unrolled body and every remainder lane.

func seamVec(n int, seed uint64) []float64 {
	r := NewRand(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestDot3BitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 129} {
		a, b, c := seamVec(n, 1), seamVec(n, 2), seamVec(n, 3)
		var want float64
		for i := 0; i < n; i++ {
			want += a[i] * b[i] * c[i]
		}
		if got := Dot3(a, b, c); got != want {
			t.Fatalf("n=%d: Dot3 = %x, naive loop = %x", n, got, want)
		}
	}
}

func TestAxpyDiffBitIdentical(t *testing.T) {
	const alpha = 0.37281
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 129} {
		x, y := seamVec(n, 4), seamVec(n, 5)
		got := seamVec(n, 6)
		want := append([]float64(nil), got...)
		for i := 0; i < n; i++ {
			want[i] += alpha * (x[i] - y[i])
		}
		AxpyDiff(alpha, x, y, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: AxpyDiff = %x, naive loop = %x", n, i, got[i], want[i])
			}
		}
	}
}

func TestDriftTowardBitIdentical(t *testing.T) {
	const c = 0.0123
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 129} {
		ref := seamVec(n, 7)
		got := seamVec(n, 8)
		want := append([]float64(nil), got...)
		for i := 0; i < n; i++ {
			want[i] -= c * (want[i] - ref[i])
		}
		DriftToward(c, ref, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: DriftToward = %x, naive loop = %x", n, i, got[i], want[i])
			}
		}
	}
}

func TestDecayStepBitIdentical(t *testing.T) {
	const lr, l2 = 0.05, 1e-4
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 129} {
		g := seamVec(n, 9)
		got := seamVec(n, 10)
		want := append([]float64(nil), got...)
		for i := 0; i < n; i++ {
			want[i] -= lr * (g[i] + l2*want[i])
		}
		DecayStep(lr, l2, g, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: DecayStep = %x, naive loop = %x", n, i, got[i], want[i])
			}
		}
	}
}

func TestDecayStep3BitIdentical(t *testing.T) {
	const lr, l2, c = 0.05, 1e-5, -0.37
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 129} {
		a, b := seamVec(n, 11), seamVec(n, 12)
		got := seamVec(n, 13)
		want := append([]float64(nil), got...)
		for i := 0; i < n; i++ {
			want[i] -= lr * (c*a[i]*b[i] + l2*want[i])
		}
		DecayStep3(lr, l2, c, a, b, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d i=%d: DecayStep3 = %x, naive loop = %x", n, i, got[i], want[i])
			}
		}
	}
}

func TestDecayStepPanicsOnMismatch(t *testing.T) {
	for name, step := range map[string]func(){
		"DecayStep":  func() { DecayStep(1, 1, []float64{1}, []float64{1, 2}) },
		"DecayStep3": func() { DecayStep3(1, 1, 1, []float64{1, 2}, []float64{1}, []float64{1, 2}) },
		"DecayStep3Rows rows": func() {
			DecayStep3Rows([]float64{1}, []float64{1}, []float64{1, 1}, []float64{1}, [][]float64{{1}}, [][]float64{{1}})
		},
		"DecayStep3Rows row length": func() {
			DecayStep3Rows([]float64{1}, []float64{1}, []float64{1}, []float64{1, 2}, [][]float64{{1, 2}}, [][]float64{{1}})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			step()
		}()
	}
}

func TestDot3PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot3([]float64{1}, []float64{1, 2}, []float64{1})
}
