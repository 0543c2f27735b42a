package attack

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// A full-model Score copies in only the rows its Relevance call reads.
// Poisoning every other scratch value with NaN must leave every score
// bit-identical to scoring a full copy of the state.
func TestRowScopedScoreMatchesFullCopy(t *testing.T) {
	const users, items, dim = 9, 40, 6
	rawPRME := func(seed uint64) model.Recommender {
		m := model.NewPRME(users, items, dim, seed)
		m.SetRawRelevance(true)
		return m
	}
	families := []struct {
		name    string
		factory func(seed uint64) model.Recommender
	}{
		{"gmf", func(seed uint64) model.Recommender { return model.NewGMF(users, items, dim, seed) }},
		{"prme", func(seed uint64) model.Recommender { return model.NewPRME(users, items, dim, seed) }},
		{"prme-raw", rawPRME},
		{"bprmf", func(seed uint64) model.Recommender { return model.NewBPRMF(users, items, dim, seed) }},
		{"neumf", func(seed uint64) model.Recommender { return model.NewNeuMF(users, items, dim, seed) }},
	}
	targets := [][]int{{3, 17, 29}, {}, {0}, {39, 38, 5, 12, 22, 31}, {7, 7, 8}}
	r := mathx.NewRand(9)
	for _, fam := range families {
		factory := fam.factory
		t.Run(fam.name, func(t *testing.T) {
			scratch := factory(1)
			poison(scratch.Params())
			ev := NewRecommenderEval(scratch, targets)
			ref := factory(2)
			for load := 0; load < 6; load++ {
				state := factory(uint64(100 + load)).Params()
				ev.Load(state)
				ref.Params().CopyFrom(state)
				for i := 0; i < 12; i++ {
					sender, tgt := r.IntN(users), r.IntN(len(targets))
					if load%3 == 1 && i == 6 {
						// A catalogue sweep in between copies the whole
						// state; later row copies must agree with it.
						ev.ScoreTargets(sender, make([]float64, len(targets)))
					}
					got := ev.Score(sender, tgt)
					want := ref.Relevance(sender, targets[tgt])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("load %d: Score(%d, %d) = %v, full copy %v", load, sender, tgt, got, want)
					}
				}
			}
		})
	}
}

// poison fills every parameter with NaN.
func poison(s *param.Set) {
	for i := 0; i < s.Len(); i++ {
		mathx.Fill(s.At(i).Data, math.NaN())
	}
}

// TestRefreshFictiveGroupsMatch refits every family's fictive users on
// groups of one to three evaluators, where the caller plans while the
// other members fit, and through a fork rather than the evaluator that
// made it. Over two refits against different states, every fictive
// user must match the one-evaluator refit bit for bit. The targets mix
// an empty and a single-item target with every user's training set.
// Run under -race, this covers the overlapped planning.
func TestRefreshFictiveGroupsMatch(t *testing.T) {
	d := attackDataset(t)
	targets := append([][]int{d.Train[0], nil, {3}}, d.Train[1:]...)
	families := []struct {
		name    string
		factory model.Factory
	}{
		{"gmf", model.NewGMFFactory(d.NumUsers, d.NumItems, 8)},
		{"bprmf", model.NewBPRMFFactory(d.NumUsers, d.NumItems, 8)},
		{"neumf", model.NewNeuMFFactory(d.NumUsers, d.NumItems, 8)},
		{"prme", model.NewPRMEFactory(d.NumUsers, d.NumItems, 8)},
	}
	for _, fam := range families {
		f := fam.factory
		private := f(0).PrivateEntries()
		states := []*param.Set{f(1).Params().Without(private...), f(2).Params().Without(private...)}
		refits := func(group int, viaFork bool) [][][]float64 {
			ev := NewShareLessEval(f(0), targets)
			for len(ev.group.members) < group {
				ev.Fork()
			}
			driver := ev
			if viaFork {
				driver = ev.group.members[1]
			}
			rng := mathx.NewRand(4)
			var out [][][]float64
			for _, s := range states {
				driver.RefreshFictive(s, 3, rng)
				snap := make([][]float64, len(targets))
				for ti := range targets {
					snap[ti] = slices.Clone(ev.Fictive(ti))
				}
				out = append(out, snap)
			}
			return out
		}
		want := refits(1, false)
		for _, c := range []struct {
			group   int
			viaFork bool
		}{{2, false}, {3, false}, {2, true}} {
			got := refits(c.group, c.viaFork)
			for r := range want {
				for ti := range targets {
					if !slices.Equal(got[r][ti], want[r][ti]) {
						t.Fatalf("%s group=%d viaFork=%v refit %d target %d: fictive user differs", fam.name, c.group, c.viaFork, r, ti)
					}
				}
			}
		}
		// RefreshFictiveOne is a batch of one: target 0 is planned first,
		// so it draws what the full refit drew for it.
		one := NewShareLessEval(f(0), targets)
		one.RefreshFictiveOne(0, states[0], 3, mathx.NewRand(4))
		if !slices.Equal(one.Fictive(0), want[0][0]) {
			t.Fatalf("%s: RefreshFictiveOne differs from the group refit", fam.name)
		}
	}
}

// TestRefreshFictivePlanPanicReleasesFitters makes planning panic
// midway (a target that covers the whole catalogue leaves no negative
// to draw) on a group of two: the panic must reach the caller after the
// fork's fitter has stopped, rather than leave it blocked.
func TestRefreshFictivePlanPanicReleasesFitters(t *testing.T) {
	const items = 6
	f := model.NewGMFFactory(4, items, 4)
	ev := NewShareLessEval(f(0), [][]int{{0, 1}, {2}, {0, 1, 2, 3, 4, 5}, {3}})
	ev.Fork()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the planning panic")
			}
		}()
		ev.RefreshFictive(f(1).Params(), 2, mathx.NewRand(1))
	}()
	stopped := make(chan struct{})
	go func() {
		ev.group.fitting.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("the fork's fitter is still waiting for a plan")
	}
	if n := len(ev.group.ready); n != 0 {
		t.Fatalf("%d entries left in the plan queue", n)
	}
}

// TestRefreshFictiveWarmAllocs holds a warm refit to the allocations
// it cannot avoid: once the plans have grown, it allocates only the
// fitted vectors, one per target.
func TestRefreshFictiveWarmAllocs(t *testing.T) {
	d := attackDataset(t)
	f := model.NewGMFFactory(d.NumUsers, d.NumItems, 8)
	ev := NewShareLessEval(f(0), d.Train)
	state := f(1).Params()
	rng := mathx.NewRand(1)
	ev.RefreshFictive(state, 5, rng)
	if a := testing.AllocsPerRun(10, func() { ev.RefreshFictive(state, 5, rng) }); a > float64(len(d.Train)) {
		t.Fatalf("warm refit: %v allocations for %d targets", a, len(d.Train))
	}
}
