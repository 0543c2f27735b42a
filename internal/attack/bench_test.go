package attack

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
)

// BenchmarkCIAEndRound prices one CIA re-scoring round at Table II's
// foursquare sizing — 150 observed senders, 150 targets (every user's
// training set, ~45 items each) over a 700-item catalogue, dim 8 — on
// one worker, for GMF and PRME: the batched path (one catalogue sweep
// per sender) against the per-target path (one Relevance gather per
// sender × target). The one-target cells score a single user's training
// set, as the single-target CIA experiments do: there the batched path
// stays below RelevanceTargets' catalogue-sweep rule and must cost what
// the per-target path costs.
func BenchmarkCIAEndRound(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 150, NumItems: 700, NumCommunities: 5,
		MeanItemsPerUser: 45, MinItemsPerUser: 10, Affinity: 0.85, ZipfExponent: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	paths := []struct {
		name string
		wrap func(*RecommenderEval) Evaluator
	}{
		{"batched", func(ev *RecommenderEval) Evaluator { return ev }},
		{"per-target", func(ev *RecommenderEval) Evaluator { return perTargetEval{ev} }},
	}
	for _, fam := range []struct {
		name    string
		factory model.Factory
	}{
		{"gmf", model.NewGMFFactory(d.NumUsers, d.NumItems, 8)},
		{"prme", model.NewPRMEFactory(d.NumUsers, d.NumItems, 8)},
	} {
		for _, ts := range []struct {
			name    string
			targets [][]int
		}{{"all-users", d.Train}, {"one-target", d.Train[:1]}} {
			for _, path := range paths {
				b.Run(fam.name+"/"+ts.name+"/"+path.name, func(b *testing.B) {
					c := New(Config{Beta: 0.99, K: 8, NumUsers: d.NumUsers, Workers: 1,
						Eval: path.wrap(NewRecommenderEval(fam.factory(0), ts.targets))})
					for u := 0; u < d.NumUsers; u++ {
						c.Observe(u, fam.factory(uint64(u+1)).Params())
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						// Every sender changed, as after a full-participation round.
						for u := 0; u < d.NumUsers; u++ {
							c.dirty[u] = struct{}{}
						}
						c.EndRound()
					}
				})
			}
		}
	}
	// Share-less: payloads omit the user table and every target is
	// scored against its own fictive user, one gather per target. The
	// movielens cell is fl-shareless-chaos's sizing (140 users × 260
	// items, ~40 items per target).
	ml, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 140, NumItems: 260, NumCommunities: 4,
		MeanItemsPerUser: 40, MinItemsPerUser: 10, Affinity: 0.85, ZipfExponent: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, cell := range []struct {
		name string
		d    *dataset.Dataset
	}{{"gmf/all-users/shareless", d}, {"gmf/movielens/shareless", ml}} {
		b.Run(cell.name, func(b *testing.B) {
			d := cell.d
			f := model.NewGMFFactory(d.NumUsers, d.NumItems, 8)
			ev := NewShareLessEval(f(0), d.Train)
			ev.RefreshFictive(f(0).Params(), 5, mathx.NewRand(1))
			c := New(Config{Beta: 0.99, K: 8, NumUsers: d.NumUsers, Workers: 1, Eval: ev})
			private := f(0).PrivateEntries()
			for u := 0; u < d.NumUsers; u++ {
				c.Observe(u, f(uint64(u+1)).Params().Without(private...))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u := 0; u < d.NumUsers; u++ {
					c.dirty[u] = struct{}{}
				}
				c.EndRound()
			}
		})
	}
}

// BenchmarkRefreshFictive prices one Share-less refit — every target's
// fictive user fitted for 5 epochs, as RunFLCIA does each round — for
// GMF at the movielens-like bench sizing (140 users × 260 items, ~40
// items per target, dim 8), on an evaluator alone and on a group of
// two (the evaluator and one fork), whose fits run on two goroutines.
// One refit before the timer grows the plans, so the figures are those
// of every later round.
func BenchmarkRefreshFictive(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 140, NumItems: 260, NumCommunities: 4,
		MeanItemsPerUser: 40, MinItemsPerUser: 10, Affinity: 0.85, ZipfExponent: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	f := model.NewGMFFactory(d.NumUsers, d.NumItems, 8)
	state := f(1).Params()
	for _, group := range []int{1, 2} {
		b.Run(fmt.Sprintf("gmf/group=%d", group), func(b *testing.B) {
			ev := NewShareLessEval(f(0), d.Train)
			for len(ev.group.members) < group {
				ev.Fork()
			}
			rng := mathx.NewRand(1)
			ev.RefreshFictive(state, 5, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.RefreshFictive(state, 5, rng)
			}
		})
	}
}
