package attack

import (
	"math"
	"slices"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

func attackDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 30, NumItems: 100, NumCommunities: 3,
		MeanItemsPerUser: 18, MinItemsPerUser: 6, Affinity: 0.9, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// trainedModels trains one GMF model per user (as GL nodes would) and
// returns their payload snapshots.
func trainedModels(t *testing.T, d *dataset.Dataset, epochs int) []*param.Set {
	t.Helper()
	r := mathx.NewRand(1)
	out := make([]*param.Set, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		m := model.NewGMF(d.NumUsers, d.NumItems, 8, 100) // same init for all
		for e := 0; e < epochs; e++ {
			m.TrainLocal(d, u, model.TrainOptions{Rand: r})
		}
		out[u] = m.Params().Clone()
	}
	return out
}

func allTargets(d *dataset.Dataset) [][]int { return d.Train }

func TestNewCIAValidation(t *testing.T) {
	ev := NewRecommenderEval(model.NewGMF(2, 3, 2, 1), [][]int{{0}})
	bad := []func(){
		func() { New(Config{K: 5, NumUsers: 10}) },                       // no eval
		func() { New(Config{Eval: ev, K: 0, NumUsers: 10}) },             // bad K
		func() { New(Config{Eval: ev, K: 5, NumUsers: 10, Beta: 1}) },    // bad beta
		func() { New(Config{Eval: ev, K: 5, NumUsers: 10, Workers: 2}) }, // workers without NewEval
		func() { NewRecommenderEval(model.NewGMF(2, 3, 2, 1), nil) },     // no targets
	}
	for i, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

// The headline behaviour: given per-user trained models, CIA recovers
// the Jaccard ground-truth communities far better than random.
func TestCIARecoversCommunities(t *testing.T) {
	d := attackDataset(t)
	payloads := trainedModels(t, d, 12)
	const k = 8
	targets := allTargets(d)
	truths := evalx.TrueCommunities(d, k)

	cia := New(Config{
		Beta:     0.9,
		K:        k,
		NumUsers: d.NumUsers,
		Eval:     NewRecommenderEval(model.NewGMF(d.NumUsers, d.NumItems, 8, 0), targets),
	})
	for u, p := range payloads {
		cia.Observe(u, p)
	}
	cia.EndRound()
	accs := cia.Accuracies(truths)
	mean := mathx.Mean(accs)
	random := evalx.RandomBound(k, d.NumUsers)
	// With K=8 of 30 users the random bound is already 0.27, so "far
	// better than random" means at least doubling it.
	if mean < 2*random {
		t.Fatalf("CIA mean accuracy %.3f < 2x random bound %.3f", mean, random)
	}
}

func TestCIAPredictSelfInOwnCommunity(t *testing.T) {
	d := attackDataset(t)
	payloads := trainedModels(t, d, 12)
	const k = 8
	cia := New(Config{
		Beta: 0.9, K: k, NumUsers: d.NumUsers,
		Eval: NewRecommenderEval(model.NewGMF(d.NumUsers, d.NumItems, 8, 0), allTargets(d)),
	})
	for u, p := range payloads {
		cia.Observe(u, p)
	}
	cia.EndRound()
	// A user's own trained model should almost always rank in the
	// predicted community for their own training set.
	hits := 0
	for a := 0; a < d.NumUsers; a++ {
		for _, u := range cia.Predict(a) {
			if u == a {
				hits++
				break
			}
		}
	}
	if hits < d.NumUsers*3/4 {
		t.Fatalf("self-identification only %d/%d", hits, d.NumUsers)
	}
}

func TestCIAMomentumMatchesEquation4(t *testing.T) {
	mk := func(v float64) *param.Set {
		s := param.New()
		s.AddVector("x", []float64{v})
		return s
	}
	ev := &stubEval{targets: 1}
	cia := New(Config{Beta: 0.5, K: 1, NumUsers: 3, Eval: ev})
	cia.Observe(0, mk(10)) // v0 = 10 (first observation)
	if got := cia.State(0).Get("x")[0]; got != 10 {
		t.Fatalf("v after first obs = %v, want 10", got)
	}
	cia.Observe(0, mk(20)) // v = 0.5*10 + 0.5*20 = 15
	if got := cia.State(0).Get("x")[0]; got != 15 {
		t.Fatalf("v after second obs = %v, want 15", got)
	}
	if cia.State(1) != nil {
		t.Fatal("unobserved sender has a state")
	}
	if cia.NumObserved() != 1 {
		t.Fatal("NumObserved wrong")
	}
}

// stubEval scores a loaded state by its single parameter value.
type stubEval struct {
	targets int
	loaded  float64
}

func (s *stubEval) Load(state *param.Set)       { s.loaded = state.Get("x")[0] }
func (s *stubEval) Score(sender, t int) float64 { return s.loaded }
func (s *stubEval) NumTargets() int             { return s.targets }

func TestCIAPredictOnlyRanksObserved(t *testing.T) {
	ev := &stubEval{targets: 1}
	cia := New(Config{Beta: 0, K: 5, NumUsers: 10, Eval: ev})
	for _, u := range []int{2, 7} {
		s := param.New()
		s.AddVector("x", []float64{float64(u)})
		cia.Observe(u, s)
	}
	cia.EndRound()
	pred := cia.Predict(0)
	if len(pred) != 2 {
		t.Fatalf("predicted %d users, want 2 (only observed)", len(pred))
	}
	if pred[0] != 7 || pred[1] != 2 {
		t.Fatalf("ranking = %v, want [7 2]", pred)
	}
	seen := cia.Seen()
	if len(seen) != 2 {
		t.Fatalf("Seen = %v", seen)
	}
}

func TestCIAUpperBoundSemantics(t *testing.T) {
	truth := map[int]struct{}{1: {}, 2: {}, 3: {}, 4: {}}
	seen := map[int]struct{}{1: {}, 9: {}}
	if got := evalx.UpperBound(seen, truth); got != 0.25 {
		t.Fatalf("upper bound %v, want 0.25", got)
	}
}

func TestCIAParallelMatchesSerial(t *testing.T) {
	d := attackDataset(t)
	payloads := trainedModels(t, d, 6)
	const k = 8
	targets := allTargets(d)

	run := func(workers int) []float64 {
		cfg := Config{
			Beta: 0.9, K: k, NumUsers: d.NumUsers,
			Eval:    NewRecommenderEval(model.NewGMF(d.NumUsers, d.NumItems, 8, 0), targets),
			Workers: workers,
		}
		if workers > 1 {
			cfg.NewEval = func() Evaluator {
				return NewRecommenderEval(model.NewGMF(d.NumUsers, d.NumItems, 8, 0), targets)
			}
		}
		cia := New(cfg)
		for u, p := range payloads {
			cia.Observe(u, p)
		}
		cia.EndRound()
		return cia.Accuracies(evalx.TrueCommunities(d, k))
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel scoring diverged at target %d: %v != %v", i, serial[i], parallel[i])
		}
	}
}

func TestCIAShareLessAdaptation(t *testing.T) {
	d := attackDataset(t)
	const k = 5
	// Train per-user models, then strip user embeddings (share-less
	// payloads).
	fullPayloads := trainedModels(t, d, 12)
	scratchRef := model.NewGMF(d.NumUsers, d.NumItems, 8, 0)
	partial := make([]*param.Set, len(fullPayloads))
	for u, p := range fullPayloads {
		partial[u] = p.Without(scratchRef.PrivateEntries()...)
	}
	targets := allTargets(d)
	ev := NewShareLessEval(model.NewGMF(d.NumUsers, d.NumItems, 8, 0), targets)
	// Fit fictive users against one representative payload.
	ev.RefreshFictive(partial[0], 10, mathx.NewRand(3))

	cia := New(Config{Beta: 0.9, K: k, NumUsers: d.NumUsers, Eval: ev})
	for u, p := range partial {
		cia.Observe(u, p)
	}
	cia.EndRound()
	mean := mathx.Mean(cia.Accuracies(evalx.TrueCommunities(d, k)))
	random := evalx.RandomBound(k, d.NumUsers)
	if mean < 1.5*random {
		t.Fatalf("share-less CIA accuracy %.3f not above random %.3f", mean, random)
	}
	if !ev.ShareLess() {
		t.Fatal("evaluator should report share-less mode")
	}
}

func TestShareLessEvalRequiresFictiveFit(t *testing.T) {
	ev := NewShareLessEval(model.NewGMF(3, 4, 2, 1), [][]int{{0, 1}})
	s := model.NewGMF(3, 4, 2, 2).Params().Clone()
	ev.Load(s)
	defer func() {
		if recover() == nil {
			t.Fatal("Score before RefreshFictive must panic")
		}
	}()
	ev.Score(0, 0)
}

func TestRefreshFictiveOnFullEvalPanics(t *testing.T) {
	ev := NewRecommenderEval(model.NewGMF(3, 4, 2, 1), [][]int{{0}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ev.RefreshFictive(model.NewGMF(3, 4, 2, 2).Params().Clone(), 1, mathx.NewRand(1))
}

// Momentum ablation: with beta=0 the state equals the latest
// observation exactly.
func TestCIAZeroBetaTracksLatest(t *testing.T) {
	ev := &stubEval{targets: 1}
	cia := New(Config{Beta: 0, K: 1, NumUsers: 2, Eval: ev})
	mk := func(v float64) *param.Set {
		s := param.New()
		s.AddVector("x", []float64{v})
		return s
	}
	cia.Observe(0, mk(5))
	cia.Observe(0, mk(-3))
	if got := cia.State(0).Get("x")[0]; got != -3 {
		t.Fatalf("beta=0 state = %v, want -3", got)
	}
}

// perTargetEval hides RecommenderEval's batched ScoreTargets, so CIA
// takes the per-(sender, target) Score path: the reference the batched
// path must reproduce.
type perTargetEval struct{ ev *RecommenderEval }

func (p perTargetEval) Load(s *param.Set)           { p.ev.Load(s) }
func (p perTargetEval) Score(sender, t int) float64 { return p.ev.Score(sender, t) }
func (p perTargetEval) NumTargets() int             { return p.ev.NumTargets() }

// decoratedModel stands for a decorator that embeds a Recommender: it
// forwards only Recommender's methods, hiding model.TargetRelevancer,
// and counts the Relevance calls that reach it.
type decoratedModel struct {
	model.Recommender
	calls *int
}

func (m decoratedModel) Relevance(owner int, items []int) float64 {
	*m.calls++
	return m.Recommender.Relevance(owner, items)
}

// TestScoreTargetsDecoratedScratch checks RecommenderEval.ScoreTargets
// on a scratch model that hides the batched relevance: it scores every
// target through the decorator's own Relevance, one call per target,
// and writes what the undecorated batched path writes, bit for bit.
func TestScoreTargetsDecoratedScratch(t *testing.T) {
	d := attackDataset(t)
	targets := allTargets(d)
	f := model.NewGMFFactory(d.NumUsers, d.NumItems, 8)
	var calls int
	plain := NewRecommenderEval(f(0), targets)
	decorated := NewRecommenderEval(decoratedModel{f(0), &calls}, targets)
	want, got := make([]float64, len(targets)), make([]float64, len(targets))
	for s := 0; s < 3; s++ {
		state := f(uint64(s + 1)).Params()
		plain.Load(state)
		decorated.Load(state)
		plain.ScoreTargets(s, want)
		decorated.ScoreTargets(s, got)
		for ti := range want {
			if math.Float64bits(got[ti]) != math.Float64bits(want[ti]) {
				t.Fatalf("sender %d target %d: decorated %v != batched %v", s, ti, got[ti], want[ti])
			}
		}
	}
	if calls != 3*len(targets) {
		t.Fatalf("decorator saw %d Relevance calls, want %d", calls, 3*len(targets))
	}
}

// TestCIABatchedMatchesPerTarget holds the batched EndRound (one
// catalogue sweep per sender) to the per-target Score path: the same
// score matrix bit for bit and the same Predict output for every
// target, over three momentum rounds that each leave a different third
// of the senders unobserved, for GMF and PRME at 1 and 2 workers.
func TestCIABatchedMatchesPerTarget(t *testing.T) {
	if _, ok := Evaluator(perTargetEval{}).(targetScorer); ok {
		t.Fatal("perTargetEval exposes the batched path")
	}
	d := attackDataset(t)
	targets := allTargets(d)
	for _, fam := range []struct {
		name    string
		factory model.Factory
	}{
		{"gmf", model.NewGMFFactory(d.NumUsers, d.NumItems, 8)},
		{"prme", model.NewPRMEFactory(d.NumUsers, d.NumItems, 8)},
	} {
		// Independently initialized models stand in for each sender's
		// successive uploads.
		uploads := make([][]*param.Set, 3)
		for r := range uploads {
			uploads[r] = make([]*param.Set, d.NumUsers)
			for u := range uploads[r] {
				uploads[r][u] = fam.factory(uint64(100*r + u + 1)).Params()
			}
		}
		run := func(workers int, wrap func(*RecommenderEval) Evaluator) *CIA {
			newEval := func() Evaluator { return wrap(NewRecommenderEval(fam.factory(0), targets)) }
			cfg := Config{Beta: 0.9, K: 8, NumUsers: d.NumUsers, Eval: newEval(), Workers: workers}
			if workers > 1 {
				cfg.NewEval = newEval
			}
			c := New(cfg)
			for r, round := range uploads {
				for u, p := range round {
					if (u+r)%3 != 0 {
						c.Observe(u, p)
					}
				}
				c.EndRound()
			}
			return c
		}
		for _, workers := range []int{1, 2} {
			batched := run(workers, func(ev *RecommenderEval) Evaluator { return ev })
			perTarget := run(workers, func(ev *RecommenderEval) Evaluator { return perTargetEval{ev} })
			for ti := range batched.scores {
				for s, v := range batched.scores[ti] {
					if w := perTarget.scores[ti][s]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s workers=%d target %d sender %d: batched %v != per-target %v",
							fam.name, workers, ti, s, v, w)
					}
				}
				if got, want := batched.Predict(ti), perTarget.Predict(ti); !slices.Equal(got, want) {
					t.Fatalf("%s workers=%d target %d: batched Predict %v != per-target %v",
						fam.name, workers, ti, got, want)
				}
			}
		}
	}
}
