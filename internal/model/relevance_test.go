package model

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestRelevanceTargetsMatchesRelevance pins RelevanceTargets to
// per-target Relevance bit for bit, for every family (PRME in both
// relevance modes) and on both sides of the catalogue-sweep rule: a
// batch naming the catalogue more than once over (one sweep, gathered
// per target) and a batch smaller than the catalogue (the per-target
// fallback). Both batches carry an empty target and duplicate item ids.
func TestRelevanceTargetsMatchesRelevance(t *testing.T) {
	const users, items, dim = 5, 90, 8
	r := rand.New(rand.NewPCG(21, 22))
	sweep := [][]int{{}, {4, 4, 4}, {0, items - 1, 17, 0}}
	for len(sweep) < 20 {
		target := make([]int, 8)
		for i := range target {
			target[i] = r.IntN(items)
		}
		sweep = append(sweep, target)
	}
	small := [][]int{{}, {3, 11, 42, 89, 11}}
	if !sweepPays(sweep, items) || sweepPays(small, items) {
		t.Fatal("test batches do not straddle the catalogue-sweep rule")
	}
	// The rule's boundary: naming exactly NumItems items sweeps.
	if !sweepPays([][]int{make([]int, items)}, items) || sweepPays([][]int{make([]int, items-1)}, items) {
		t.Fatal("catalogue-sweep rule boundary moved")
	}

	rawPRME := NewPRME(users, items, dim, r.Uint64())
	rawPRME.SetRawRelevance(true)
	for _, c := range []struct {
		name string
		m    interface {
			Recommender
			TargetRelevancer
		}
	}{
		{"gmf", NewGMF(users, items, dim, r.Uint64())},
		{"prme", NewPRME(users, items, dim, r.Uint64())},
		{"prme-raw", rawPRME},
		{"bprmf", NewBPRMF(users, items, dim, r.Uint64())},
		{"neumf", NewNeuMF(users, items, dim, r.Uint64())},
	} {
		for _, batch := range [][][]int{sweep, small} {
			got := make([]float64, len(batch))
			for owner := 0; owner < users; owner++ {
				c.m.RelevanceTargets(owner, batch, got)
				for ti, target := range batch {
					if want := c.m.Relevance(owner, target); math.Float64bits(got[ti]) != math.Float64bits(want) {
						t.Fatalf("%s owner %d target %d of %d: RelevanceTargets %v != Relevance %v",
							c.name, owner, ti, len(batch), got[ti], want)
					}
				}
			}
		}
	}
}
