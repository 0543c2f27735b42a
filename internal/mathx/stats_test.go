package mathx

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestArgsortDesc(t *testing.T) {
	got := ArgsortDesc([]float64{1, 3, 2})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgsortDesc = %v, want %v", got, want)
		}
	}
}

func TestArgsortDescStableTies(t *testing.T) {
	got := ArgsortDesc([]float64{5, 5, 5})
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ties must preserve index order: %v", got)
		}
	}
}

func TestTopK(t *testing.T) {
	x := []float64{0.1, 0.9, 0.5, 0.7}
	got := TopK(x, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopK = %v, want [1 3]", got)
	}
	if got := TopK(x, 10); len(got) != 4 {
		t.Fatalf("TopK must clamp k: got %d", len(got))
	}
	if got := TopK(x, 0); got != nil {
		t.Fatalf("TopK(0) = %v, want nil", got)
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{4, 1, 3, 2}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5},
	}
	for _, tt := range tests {
		if got := Quantile(x, tt.q); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Input must not be mutated.
	if x[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileSorted(t *testing.T) {
	// Property: Quantile is monotone in q.
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			x[i] = v
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		return Quantile(x, a) <= Quantile(x, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -1, 7}
	if Max(x) != 7 || Min(x) != -1 {
		t.Fatalf("Max/Min = %v/%v", Max(x), Min(x))
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{1, 0}); got != 0 {
		t.Fatalf("deterministic entropy = %v, want 0", got)
	}
	if got := Entropy([]float64{0.5, 0.5}); !almostEq(got, math.Ln2, 1e-12) {
		t.Fatalf("fair-coin entropy = %v, want ln2", got)
	}
}

func TestBinaryEntropy(t *testing.T) {
	if got := BinaryEntropy(0.5); !almostEq(got, math.Ln2, 1e-12) {
		t.Fatalf("BinaryEntropy(0.5) = %v, want ln2", got)
	}
	// Boundary values must stay finite.
	for _, p := range []float64{0, 1} {
		if v := BinaryEntropy(p); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("BinaryEntropy(%v) not finite: %v", p, v)
		}
	}
	// Symmetry property.
	f := func(p float64) bool {
		p = math.Abs(math.Mod(p, 1))
		return almostEq(BinaryEntropy(p), BinaryEntropy(1-p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJaccardInt(t *testing.T) {
	set := func(vs ...int) map[int]struct{} {
		m := make(map[int]struct{}, len(vs))
		for _, v := range vs {
			m[v] = struct{}{}
		}
		return m
	}
	tests := []struct {
		name string
		a, b map[int]struct{}
		want float64
	}{
		{"both empty", set(), set(), 0},
		{"identical", set(1, 2), set(1, 2), 1},
		{"disjoint", set(1), set(2), 0},
		{"half", set(1, 2), set(2, 3), 1.0 / 3.0},
		{"subset", set(1), set(1, 2, 3, 4), 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := JaccardInt(tt.a, tt.b); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("Jaccard = %v, want %v", got, tt.want)
			}
			// Symmetry.
			if got := JaccardInt(tt.b, tt.a); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("Jaccard not symmetric")
			}
		})
	}
}

// TopKSelect must reproduce TopK's exact order (decreasing value,
// ascending-index ties) without allocating; since the heap rewrite it
// must also leave its input untouched.
func TestTopKSelectMatchesTopK(t *testing.T) {
	r := NewRand(77)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(40)
		x := make([]float64, n)
		for i := range x {
			// Coarse values force plenty of ties.
			x[i] = float64(r.IntN(6))
		}
		for _, k := range []int{0, 1, 3, n, n + 5} {
			want := TopK(x, k)
			input := append([]float64(nil), x...)
			got := TopKSelect(input, nil, k, make([]int, 0, n))
			for i := range input {
				if input[i] != x[i] {
					t.Fatalf("n=%d k=%d: TopKSelect mutated input at %d", n, k, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: len %d != %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: index %d: %d != %d (x=%v)", n, k, i, got[i], want[i], x)
				}
			}
		}
	}
}

// The masked selection the attacks rank observed senders with: only set
// indices are eligible, k beyond their number returns them all, and a
// dst with capacity is reused.
func TestTopKSelectMask(t *testing.T) {
	x := []float64{0.1, 0.9, 0.5, 0.7}
	if got := TopKSelect(x, nil, 4, nil); !slices.Equal(got, []int{1, 3, 2, 0}) {
		t.Fatalf("unmasked = %v, want [1 3 2 0]", got)
	}
	if got := TopKSelect(x, []bool{true, false, true, false}, 3, nil); !slices.Equal(got, []int{2, 0}) {
		t.Fatalf("masked = %v, want [2 0]", got)
	}
	if got := TopKSelect(x, make([]bool, len(x)), 2, nil); len(got) != 0 {
		t.Fatalf("nothing eligible = %v, want empty", got)
	}
	buf := make([]int, 0, 3)
	if got := TopKSelect(x, nil, 2, buf); &got[0] != &buf[:1][0] {
		t.Fatal("dst with capacity was not reused")
	}
}

// TopKSelect's order is total: NaN ranks below every number, −Inf
// included, and NaN ties break by ascending index like any other tie.
func TestTopKSelectNaNRanksLast(t *testing.T) {
	nan := math.NaN()
	x := []float64{nan, 1, nan, math.Inf(-1), 2, 1}
	want := []int{4, 1, 5, 3, 0, 2}
	for k := 0; k <= len(x)+1; k++ {
		if got := TopKSelect(x, nil, k, nil); !slices.Equal(got, want[:min(k, len(want))]) {
			t.Fatalf("k=%d: %v, want %v", k, got, want[:min(k, len(want))])
		}
	}
}

// Property: TopKSelect equals the first k of a stable sort of the
// eligible indices by descending value — the full sort the attacks'
// community selection used before — on heavily tied values (a handful
// of levels, ±0, ±Inf and NaN), random masks, and k on both sides of
// the eligible count. The reference comparator puts NaN last, the total
// order TopKSelect documents.
func TestTopKSelectMatchesStableSortProperty(t *testing.T) {
	levels := []float64{-1, 0, math.Copysign(0, -1), 0.5, 1, math.Inf(1), math.Inf(-1), math.NaN()}
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := r.IntN(40)
		x := make([]float64, n)
		var mask []bool
		if r.IntN(4) != 0 {
			mask = make([]bool, n)
		}
		var ids []int
		for i := range x {
			x[i] = levels[r.IntN(len(levels))]
			if mask != nil {
				mask[i] = r.IntN(3) != 0
			}
			if mask == nil || mask[i] {
				ids = append(ids, i)
			}
		}
		sort.SliceStable(ids, func(a, b int) bool {
			va, vb := x[ids[a]], x[ids[b]]
			return !math.IsNaN(va) && (math.IsNaN(vb) || va > vb)
		})
		k := r.IntN(n + 3)
		got := TopKSelect(x, mask, k, make([]int, 0, r.IntN(4)))
		return slices.Equal(got, ids[:min(k, len(ids))])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
