package param

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/collablearn/ciarec/internal/mathx"
)

func newTestSet(vals ...float64) *Set {
	s := New()
	a := make([]float64, 2)
	b := make([]float64, 4)
	for i := range a {
		if i < len(vals) {
			a[i] = vals[i]
		}
	}
	for i := range b {
		if i+2 < len(vals) {
			b[i] = vals[i+2]
		}
	}
	s.AddVector("bias", a)
	s.Add("emb", 2, 2, b)
	return s
}

func TestAddAndGet(t *testing.T) {
	s := New()
	s.AddVector("v", []float64{1, 2, 3})
	if !s.Has("v") || s.Has("w") {
		t.Fatal("Has is wrong")
	}
	if got := s.Get("v"); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Get = %v", got)
	}
	e := s.Entry("v")
	if e.Rows != 3 || e.Cols != 1 {
		t.Fatalf("Entry shape = %dx%d", e.Rows, e.Cols)
	}
	if s.NumParams() != 3 || s.Len() != 1 {
		t.Fatal("NumParams/Len wrong")
	}
}

func TestAddAdoptsStorage(t *testing.T) {
	data := []float64{1, 2}
	s := New()
	s.AddVector("v", data)
	data[0] = 9
	if s.Get("v")[0] != 9 {
		t.Fatal("Add must adopt, not copy, the caller's slice")
	}
}

func TestAddMatrix(t *testing.T) {
	m := mathx.NewMatrix(2, 3)
	m.Set(1, 2, 5)
	s := New()
	s.AddMatrix("m", m)
	e := s.Entry("m")
	if e.Rows != 2 || e.Cols != 3 || e.Data[5] != 5 {
		t.Fatalf("AddMatrix entry wrong: %+v", e)
	}
}

func TestDuplicatePanics(t *testing.T) {
	s := New()
	s.AddVector("v", []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate-name panic")
		}
	}()
	s.AddVector("v", []float64{2})
}

func TestShapeMismatchPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	s.Add("bad", 2, 2, []float64{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	s := newTestSet(1, 2, 3, 4, 5, 6)
	c := s.Clone()
	c.Get("bias")[0] = 99
	if s.Get("bias")[0] == 99 {
		t.Fatal("Clone shares storage")
	}
	if !Equal(s, newTestSet(1, 2, 3, 4, 5, 6), 0) {
		t.Fatal("original mutated")
	}
}

func TestFilterAndWithout(t *testing.T) {
	s := newTestSet(1, 2, 3, 4, 5, 6)
	f := s.Filter("emb", "nonexistent")
	if f.Len() != 1 || !f.Has("emb") {
		t.Fatalf("Filter kept wrong entries: %v", f.Names())
	}
	// Filter must deep-copy.
	f.Get("emb")[0] = 42
	if s.Get("emb")[0] == 42 {
		t.Fatal("Filter shares storage")
	}
	w := s.Without("emb")
	if w.Len() != 1 || !w.Has("bias") {
		t.Fatalf("Without kept wrong entries: %v", w.Names())
	}
}

func TestCopyShared(t *testing.T) {
	full := newTestSet(1, 2, 3, 4, 5, 6)
	partial := full.Filter("emb")
	partial.Get("emb")[0] = 100
	dst := newTestSet(0, 0, 0, 0, 0, 0)
	n := dst.CopyShared(partial)
	if n != 1 {
		t.Fatalf("CopyShared copied %d entries, want 1", n)
	}
	if dst.Get("emb")[0] != 100 {
		t.Fatal("CopyShared did not install shared entry")
	}
	if dst.Get("bias")[0] != 0 {
		t.Fatal("CopyShared touched a private entry")
	}
}

func TestAxpyScaleZero(t *testing.T) {
	s := newTestSet(1, 1, 1, 1, 1, 1)
	x := newTestSet(1, 2, 3, 4, 5, 6)
	s.Axpy(2, x)
	if s.Get("bias")[1] != 5 { // 1 + 2*2
		t.Fatalf("Axpy wrong: %v", s.Get("bias"))
	}
	s.Scale(0.5)
	if s.Get("bias")[1] != 2.5 {
		t.Fatalf("Scale wrong: %v", s.Get("bias"))
	}
}

func TestLerpMomentumSemantics(t *testing.T) {
	v := newTestSet(0, 0, 0, 0, 0, 0)
	th := newTestSet(10, 10, 10, 10, 10, 10)
	v.Lerp(0.9, th)
	if got := v.Get("bias")[0]; !almost(got, 1) {
		t.Fatalf("one momentum step = %v, want 1", got)
	}
	// Repeated application converges towards th.
	for i := 0; i < 200; i++ {
		v.Lerp(0.9, th)
	}
	if got := v.Get("emb")[3]; math.Abs(got-10) > 1e-6 {
		t.Fatalf("momentum did not converge: %v", got)
	}
}

func TestL2NormAndClip(t *testing.T) {
	s := New()
	s.AddVector("a", []float64{3})
	s.AddVector("b", []float64{4})
	if !almost(s.L2Norm(), 5) {
		t.Fatalf("L2Norm = %v, want 5", s.L2Norm())
	}
	f := s.ClipL2(1)
	if !almost(f, 0.2) || !almost(s.L2Norm(), 1) {
		t.Fatalf("clip factor %v norm %v", f, s.L2Norm())
	}
	if f := s.ClipL2(100); f != 1 {
		t.Fatal("no-op clip must return 1")
	}
}

func TestAddNoiseZeroStddevNoop(t *testing.T) {
	s := newTestSet(1, 2, 3, 4, 5, 6)
	s.AddNoise(func() float64 { return 1 }, 0)
	if !Equal(s, newTestSet(1, 2, 3, 4, 5, 6), 0) {
		t.Fatal("AddNoise with stddev 0 modified params")
	}
	s.AddNoise(func() float64 { return 1 }, 2)
	if s.Get("bias")[0] != 3 {
		t.Fatalf("AddNoise wrong: %v", s.Get("bias")[0])
	}
}

func TestMismatchedStructurePanics(t *testing.T) {
	a := newTestSet()
	b := New()
	b.AddVector("other", []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected structural panic")
		}
	}()
	a.Axpy(1, b)
}

func TestEqual(t *testing.T) {
	a := newTestSet(1, 2, 3, 4, 5, 6)
	b := newTestSet(1, 2, 3, 4, 5, 6.0000001)
	if Equal(a, b, 0) {
		t.Fatal("Equal(tol=0) should fail")
	}
	if !Equal(a, b, 1e-3) {
		t.Fatal("Equal(tol=1e-3) should pass")
	}
}

func TestStringIsStable(t *testing.T) {
	s := newTestSet()
	want := "{bias:2x1 emb:2x2}"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestLerpFixpointProperty(t *testing.T) {
	// Property: Lerp of a set with itself is the identity for any beta.
	f := func(beta float64, v1, v2 float64) bool {
		if math.IsNaN(beta) || math.IsInf(beta, 0) {
			return true
		}
		beta = math.Mod(beta, 1)
		if math.IsNaN(v1) || math.IsInf(v1, 0) || math.IsNaN(v2) || math.IsInf(v2, 0) {
			return true
		}
		s := newTestSet(v1, v2, v1, v2, v1, v2)
		c := s.Clone()
		s.Lerp(beta, c)
		return Equal(s, c, math.Abs(v1)*1e-9+math.Abs(v2)*1e-9+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
