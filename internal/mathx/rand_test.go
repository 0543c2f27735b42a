package mathx

import (
	"fmt"
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(1)
	c1 := Split(r)
	c2 := Split(r)
	equal := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split children too correlated: %d/64 equal draws", equal)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(7)
	const n = 50000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Normal(r, 2, 3)
	}
	if m := Mean(xs); math.Abs(m-2) > 0.1 {
		t.Fatalf("sample mean %v, want ~2", m)
	}
	if s := StdDev(xs); math.Abs(s-3) > 0.1 {
		t.Fatalf("sample stddev %v, want ~3", s)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRand(9)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		v := Exponential(r, 0.1)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-10) > 0.5 {
		t.Fatalf("Exp(0.1) sample mean %v, want ~10", mean)
	}
}

func TestZipfTableSkew(t *testing.T) {
	r := NewRand(11)
	z := NewZipfTable(100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		k := z.Draw(r)
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf draw out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[50] {
		t.Fatal("Zipf(1) should strongly favour low ranks")
	}
	// Theoretical P(0)/P(1) = 2 for s=1.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("P(0)/P(1) ratio %v, want ~2", ratio)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRand(13)
	z := NewZipfTable(10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Draw(r)]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-10000) > 600 {
			t.Fatalf("uniform Zipf bucket %d count %d, want ~10000", k, c)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRand(17)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 3}, {10, 10}, {1000, 5}, {50, 49}} {
		got := SampleWithoutReplacement(r, tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("n=%d k=%d: got %d samples", tc.n, tc.k, len(got))
		}
		seen := map[int]struct{}{}
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("sample %d out of range [0,%d)", v, tc.n)
			}
			if _, dup := seen[v]; dup {
				t.Fatalf("duplicate sample %d", v)
			}
			seen[v] = struct{}{}
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	SampleWithoutReplacement(NewRand(1), 3, 4)
}

func TestWeightedChoice(t *testing.T) {
	r := NewRand(19)
	w := []float64{0, 0, 1}
	for i := 0; i < 100; i++ {
		if WeightedChoice(r, w) != 2 {
			t.Fatal("WeightedChoice must always pick the only positive weight")
		}
	}
	// All-zero weights fall back to uniform over all indices.
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[WeightedChoice(r, []float64{0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 800 {
			t.Fatalf("all-zero fallback not uniform: bucket %d = %d", i, c)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(23)
	p := Perm(r, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in permutation", v)
		}
		seen[v] = true
	}
}

// StreamUniform is the top 53 bits of the stream's first seed word,
// scaled to [0, 1): the fault, churn, Byzantine and retry-jitter
// schedules depend on these exact bits.
func TestStreamUniformIsTop53Bits(t *testing.T) {
	for id := uint64(0); id < 100; id++ {
		lo, _ := StreamSeeds(7, 3, id)
		u := StreamUniform(7, 3, id)
		if u != float64(lo>>11)/(1<<53) || u < 0 || u >= 1 {
			t.Fatalf("StreamUniform(7, 3, %d) = %v, want the top 53 bits of %#x", id, u, lo)
		}
	}
}

func TestStreamSeedsDeterministicAndDistinct(t *testing.T) {
	lo1, hi1 := StreamSeeds(7, 3, 11)
	lo2, hi2 := StreamSeeds(7, 3, 11)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatal("StreamSeeds is not a pure function of its inputs")
	}
	// Distinct labels (and orderings) must land on distinct streams.
	seen := make(map[[2]uint64]string)
	add := func(name string, lo, hi uint64) {
		key := [2]uint64{lo, hi}
		if prev, dup := seen[key]; dup {
			t.Fatalf("streams %s and %s collide", prev, name)
		}
		seen[key] = name
	}
	add("base", lo1, hi1)
	for round := uint64(0); round < 8; round++ {
		for user := uint64(0); user < 64; user++ {
			lo, hi := StreamSeeds(1, round, user)
			add(fmt.Sprintf("(1,%d,%d)", round, user), lo, hi)
		}
	}
	// Label order and the seed itself must matter (these tuples are not
	// covered by the sweep above).
	lo, hi := StreamSeeds(1, 100, 2)
	add("(1,100,2)", lo, hi)
	lo, hi = StreamSeeds(1, 2, 100)
	add("(1,2,100)", lo, hi)
	lo, hi = StreamSeeds(2, 2, 3)
	add("(2,2,3)", lo, hi)
}

// The defining property of counter-based streams: a stream's draws
// depend only on its labels, never on how many other streams were
// created or consumed before it.
func TestNewStreamRandHistoryIndependence(t *testing.T) {
	fresh := NewStreamRand(9, 4, 17).Uint64()
	// Burn through unrelated streams and draws, then re-derive.
	for i := uint64(0); i < 50; i++ {
		r := NewStreamRand(9, i, i+1)
		for j := 0; j < 10; j++ {
			r.Uint64()
		}
	}
	if again := NewStreamRand(9, 4, 17).Uint64(); again != fresh {
		t.Fatalf("stream (9,4,17) shifted after unrelated consumption: %d != %d", again, fresh)
	}
}
