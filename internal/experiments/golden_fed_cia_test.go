package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/param"
)

// The FedAvg full-sharing CIA cells pin Table II's attack output: after
// every round, every relevance score the server adversary holds, every
// target's predicted community and its accuracy, chained through one
// digest, then the final global model. The scores come from the batched
// catalogue sweep (Gemv/GemvRows/DotNormRows, SigmoidInto) that CIA
// runs on forked evaluators.

// scoreTable is an Evaluator that records every score its inner
// evaluator returns into scores[t][sender]. Forks share the table;
// concurrent workers score disjoint senders, so they write disjoint
// cells.
type scoreTable struct {
	inner  *attack.RecommenderEval
	scores [][]float64
}

func (e *scoreTable) Load(state *param.Set) { e.inner.Load(state) }
func (e *scoreTable) NumTargets() int       { return e.inner.NumTargets() }

func (e *scoreTable) Score(sender, t int) float64 {
	s := e.inner.Score(sender, t)
	e.scores[t][sender] = s
	return s
}

func (e *scoreTable) ScoreTargets(sender int, dst []float64) {
	e.inner.ScoreTargets(sender, dst)
	for t, s := range dst {
		e.scores[t][sender] = s
	}
}

func (e *scoreTable) Fork() attack.Evaluator {
	return &scoreTable{inner: e.inner.Fork().(*attack.RecommenderEval), scores: e.scores}
}

// fedCIADigest digests flObserver's rounds: the score table, then each
// target's prediction and accuracy.
type fedCIADigest struct {
	*flObserver
	table *scoreTable
	h     hash.Hash
}

func (o fedCIADigest) OnRoundEnd(round int) {
	o.flObserver.OnRoundEnd(round)
	var buf [8]byte
	for _, row := range o.table.scores {
		for _, s := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
			o.h.Write(buf[:])
		}
	}
	for t, acc := range o.cia.Accuracies(o.truths) {
		predicted := o.cia.Predict(t)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(predicted)))
		o.h.Write(buf[:])
		for _, u := range predicted {
			binary.LittleEndian.PutUint64(buf[:], uint64(u))
			o.h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(acc))
		o.h.Write(buf[:])
	}
}

// goldenFedCIARun runs Table II's cell for family on dataset (FedAvg,
// full sharing, every user a target, K = 5%) for 5 rounds on the given
// backend and worker count, with CIA scoring on the same number of
// workers, and returns the digest chain.
func goldenFedCIARun(t *testing.T, backend string, workers int, dataset, family string) string {
	t.Helper()
	spec := BenchSpec()
	spec.Rounds = 5
	spec.Workers = workers
	spec.Transport = backend
	d, err := MakeDataset(dataset, spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor(family, d)
	factory, err := MakeFactory(family, d, spec)
	if err != nil {
		t.Fatal(err)
	}
	k := spec.K(d.NumUsers)
	table := &scoreTable{inner: newEval(factory, d.Train, defense.FullSharing{}), scores: make([][]float64, len(d.Train))}
	for i := range table.scores {
		table.scores[i] = make([]float64, d.NumUsers)
	}
	obs := fedCIADigest{table: table, h: sha256.New(), flObserver: &flObserver{
		cia: attack.New(attack.Config{
			Beta: spec.Beta, K: k, NumUsers: d.NumUsers, Eval: table, Workers: workers,
		}),
		truths: evalx.TrueCommunities(d, k),
	}}
	sim, tr, err := newFed(spec, fed.Config{Dataset: d, Factory: factory, Policy: defense.FullSharing{}, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sim.Run()
	if _, err := sim.Global().Params().WriteTo(obs.h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", obs.h.Sum(nil))
}

// goldenFedCIACells are Table II's foursquare cells: each must reproduce
// its inproc workers-1 digest on every backend at workers 1 and 4.
var goldenFedCIACells = []struct {
	name, dataset, family string
}{
	{"cia-fed/foursquare-gmf", "foursquare", "gmf"},
	{"cia-fed/foursquare-prme", "foursquare", "prme"},
}

// goldenFedCIAHashes runs every FedAvg full-sharing CIA cell on inproc,
// wire and socket at workers 1 and 4, fails on any disagreement and
// returns one hash per cell.
func goldenFedCIAHashes(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range goldenFedCIACells {
		ref := goldenFedCIARun(t, "inproc", 1, c.dataset, c.family)
		for _, backend := range []string{"inproc", "wire", "socket"} {
			for _, workers := range []int{1, 4} {
				if backend == "inproc" && workers == 1 {
					continue
				}
				if h := goldenFedCIARun(t, backend, workers, c.dataset, c.family); h != ref {
					t.Fatalf("%s: %s at workers %d hash %s differs from inproc at workers 1 %s",
						c.name, backend, workers, h, ref)
				}
			}
		}
		out[c.name] = ref
	}
	return out
}
