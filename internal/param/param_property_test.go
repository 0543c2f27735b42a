package param

import (
	"math"
	"testing"
	"testing/quick"
)

func sanitize(vs []float64) []float64 {
	out := make([]float64, 6)
	for i := range out {
		if i < len(vs) {
			v := vs[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			out[i] = math.Mod(v, 1e6)
		}
	}
	return out
}

// Filter(names) and Without(names) partition the entry set.
func TestFilterWithoutComplementProperty(t *testing.T) {
	f := func(raw []float64, keepBias bool) bool {
		s := newTestSet(sanitize(raw)...)
		var name string
		if keepBias {
			name = "bias"
		} else {
			name = "emb"
		}
		kept := s.Filter(name)
		dropped := s.Without(name)
		return kept.Len()+dropped.Len() == s.Len() &&
			kept.Has(name) && !dropped.Has(name) &&
			kept.NumParams()+dropped.NumParams() == s.NumParams()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Clip then norm never exceeds the threshold; clipping twice is
// idempotent.
func TestClipIdempotentProperty(t *testing.T) {
	f := func(raw []float64, cRaw float64) bool {
		c := math.Abs(math.Mod(cRaw, 50)) + 0.1
		s := newTestSet(sanitize(raw)...)
		s.ClipL2(c)
		n1 := s.L2Norm()
		s.ClipL2(c)
		n2 := s.L2Norm()
		return n1 <= c*(1+1e-9) && math.Abs(n1-n2) <= 1e-9*(n1+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Scale then Axpy inverse: s + (-1)*s == 0.
func TestAxpySelfInverseProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := newTestSet(sanitize(raw)...)
		c := s.Clone()
		s.Axpy(-1, c)
		return s.L2Norm() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
