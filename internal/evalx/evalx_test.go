package evalx

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 40, NumItems: 120, NumCommunities: 4,
		MeanItemsPerUser: 20, MinItemsPerUser: 6, Affinity: 0.9, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrueCommunityContainsSelf(t *testing.T) {
	d := testDataset(t)
	for a := 0; a < d.NumUsers; a += 7 {
		c := TrueCommunity(d, d.Train[a], 5)
		if len(c) != 5 {
			t.Fatalf("community size %d, want 5", len(c))
		}
		if _, ok := c[a]; !ok {
			t.Fatalf("user %d (Jaccard 1 with own set) missing from own community", a)
		}
	}
}

func TestTrueCommunityMatchesPlantedStructure(t *testing.T) {
	d := testDataset(t)
	// Most of a user's ground-truth community should share the user's
	// planted community (by construction of the generator).
	var agree, total int
	for a := 0; a < d.NumUsers; a++ {
		for u := range TrueCommunity(d, d.Train[a], 8) {
			total++
			if d.PlantedCommunity[u] == d.PlantedCommunity[a] {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.7 {
		t.Fatalf("only %.2f of Jaccard community members share planted community", frac)
	}
}

func TestTrueCommunitiesShape(t *testing.T) {
	d := testDataset(t)
	cs := TrueCommunities(d, 6)
	if len(cs) != d.NumUsers {
		t.Fatalf("got %d communities", len(cs))
	}
	for _, c := range cs {
		if len(c) != 6 {
			t.Fatalf("community size %d", len(c))
		}
	}
}

func TestAccuracy(t *testing.T) {
	truth := map[int]struct{}{1: {}, 2: {}, 3: {}, 4: {}}
	tests := []struct {
		name string
		pred []int
		want float64
	}{
		{"perfect", []int{1, 2, 3, 4}, 1},
		{"half", []int{1, 2, 9, 8}, 0.5},
		{"none", []int{7, 8, 9, 10}, 0},
		{"short pred", []int{1}, 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Accuracy(tt.pred, truth); got != tt.want {
				t.Errorf("Accuracy = %v, want %v", got, tt.want)
			}
		})
	}
	if got := Accuracy([]int{1}, nil); got != 0 {
		t.Errorf("empty truth accuracy = %v", got)
	}
}

func TestUpperBound(t *testing.T) {
	truth := map[int]struct{}{1: {}, 2: {}}
	seen := map[int]struct{}{2: {}, 3: {}, 4: {}}
	if got := UpperBound(seen, truth); got != 0.5 {
		t.Fatalf("UpperBound = %v, want 0.5", got)
	}
	if got := UpperBound(nil, truth); got != 0 {
		t.Fatalf("empty seen bound = %v", got)
	}
}

func TestRandomBound(t *testing.T) {
	if got := RandomBound(50, 1000); got != 0.05 {
		t.Fatalf("RandomBound = %v", got)
	}
	if got := RandomBound(5, 0); got != 0 {
		t.Fatalf("RandomBound div-by-zero = %v", got)
	}
}

func TestRecorderMetrics(t *testing.T) {
	r := NewRecorder()
	r.Record([]float64{0.1, 0.2, 0.3})
	r.Record([]float64{0.5, 0.6, 0.7}) // best round
	r.Record([]float64{0.2, 0.2, 0.2})
	aac, round := r.MaxAAC()
	if round != 1 || math.Abs(aac-0.6) > 1e-12 {
		t.Fatalf("MaxAAC = %v at round %d", aac, round)
	}
	if b := r.Best10At(round); math.Abs(b-0.68) > 1e-9 {
		t.Fatalf("Best10 = %v, want 0.68 (90th pct of [.5 .6 .7])", b)
	}
	if r.NumRounds() != 3 {
		t.Fatal("NumRounds wrong")
	}
	series := r.Series()
	if len(series) != 3 || math.Abs(series[0]-0.2) > 1e-12 {
		t.Fatalf("Series = %v", series)
	}
	res := r.Summarize(0.05, 1)
	if res.MaxAAC != aac || res.RandomBound != 0.05 || res.UpperBound != 1 {
		t.Fatalf("Summarize = %+v", res)
	}
	if res.String() == "" {
		t.Fatal("empty Result string")
	}
}

func TestRecorderCopiesInput(t *testing.T) {
	r := NewRecorder()
	accs := []float64{0.5}
	r.Record(accs)
	accs[0] = 0.9
	if got := r.AAC(0); got != 0.5 {
		t.Fatalf("Recorder aliased caller slice: %v", got)
	}
}

func TestMaxAACPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder().MaxAAC()
}

// A zero-round run (nothing recorded) must summarize to a zero Result
// carrying only the configuration-derived bounds, not panic.
func TestSummarizeNoRounds(t *testing.T) {
	res := NewRecorder().Summarize(0.05, 1)
	if res.MaxAAC != 0 || res.MaxRound != 0 || res.Best10AAC != 0 {
		t.Fatalf("non-zero attack metrics from an empty recorder: %+v", res)
	}
	if len(res.Series) != 0 {
		t.Fatalf("non-empty series from an empty recorder: %v", res.Series)
	}
	if res.RandomBound != 0.05 || res.UpperBound != 1 {
		t.Fatalf("bounds not carried through: %+v", res)
	}
}
