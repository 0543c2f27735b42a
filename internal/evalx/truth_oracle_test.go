package evalx

import (
	"fmt"
	"maps"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
)

// oracleTrueCommunity is a frozen copy of the map-based TrueCommunity
// the posting-index kernel replaced: one JaccardInt probe per user and
// a full sort. Never edit it to follow evalx.go.
func oracleTrueCommunity(d *dataset.Dataset, target []int, k int) map[int]struct{} {
	targetSet := make(map[int]struct{}, len(target))
	for _, it := range target {
		targetSet[it] = struct{}{}
	}
	sims := make([]float64, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		sims[u] = mathx.JaccardInt(targetSet, d.TrainSet(u))
	}
	top := mathx.TopK(sims, k)
	out := make(map[int]struct{}, len(top))
	for _, u := range top {
		out[u] = struct{}{}
	}
	return out
}

// oracleDataset draws users with 0..maxLen items from a catalogue of
// items, so small catalogues give many equal Jaccard scores and some
// users hold nothing.
func oracleDataset(t *testing.T, r interface{ IntN(int) int }, users, items, maxLen int) *dataset.Dataset {
	t.Helper()
	train := make([][]int, users)
	for u := range train {
		n := r.IntN(maxLen + 1)
		if u%5 == 0 {
			n = 0
		}
		perm := make([]int, items)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < n; i++ {
			j := i + r.IntN(items-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		train[u] = perm[:n]
	}
	d, err := dataset.New("oracle", users, items, train)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTrueCommunitiesMatchOracle(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := mathx.NewRand(uint64(trial))
		users := 1 + r.IntN(60)
		items := 1 + r.IntN(25)
		d := oracleDataset(t, r, users, items, min(items, 1+r.IntN(8)))
		for _, k := range []int{0, 1, 3, users - 1, users, users + 4} {
			name := fmt.Sprintf("trial %d (%d users, %d items) k=%d", trial, users, items, k)
			got := TrueCommunities(d, k)
			if len(got) != users {
				t.Fatalf("%s: %d communities", name, len(got))
			}
			for a := range got {
				if want := oracleTrueCommunity(d, d.Train[a], k); !maps.Equal(got[a], want) {
					t.Fatalf("%s: user %d community %v, oracle %v", name, a, got[a], want)
				}
			}
			// Arbitrary targets: repeated items, items no user holds
			// (inside and outside the catalogue) and the empty target.
			for q := 0; q < 6; q++ {
				n := r.IntN(12)
				if q == 0 {
					n = 0
				}
				target := make([]int, n)
				for i := range target {
					target[i] = r.IntN(items+4) - 2
				}
				if n > 1 {
					target[n-1] = target[0]
				}
				want := oracleTrueCommunity(d, target, k)
				if got := TrueCommunity(d, target, k); !maps.Equal(got, want) {
					t.Fatalf("%s: target %v community %v, oracle %v", name, target, got, want)
				}
			}
		}
	}
}

// BenchmarkTrueCommunities times the Eq. 5 ground truth of every user
// of a full-size MovieLens-like dataset (943 users, 1682 items), the
// set-up cost of every CIA experiment cell.
func BenchmarkTrueCommunities(b *testing.B) {
	d := dataset.MovieLensLike(1, 1)
	k := d.NumUsers / 20
	b.ReportAllocs()
	for b.Loop() {
		TrueCommunities(d, k)
	}
}
