package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/param"
)

// The attack golden cells pin what the adversaries of a CIA run infer,
// which the model digests of golden_test.go never see. Each cell builds
// the run the experiment runners build (newFLRun, newGLRun), steps it
// round by round and chains one digest: after every round, under
// Share-less every fictive user e_A, then for every adversary and each
// of its targets the score row, the predicted community and its
// accuracy; after the last round every final model.

// ciaCell is one attack golden cell: a FedAvg (variant 0) or gossip
// run of family on dataset, every user a target, generated at
// BenchSpec's seed and simulated at seed for rounds rounds of epochs
// local epochs each.
type ciaCell struct {
	name            string
	variant         gossip.Variant
	dataset, family string
	shareLess       bool
	rounds, epochs  int
	seed            uint64
}

// goldenCIACells are Table II's FedAvg attack at K = 5%, Table III's
// per-node gossip attack, and the Share-less adversaries of both
// protocols refitting their fictive users every round.
var goldenCIACells = []ciaCell{
	{name: "cia-fed/foursquare-gmf", dataset: "foursquare", family: "gmf", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-fed/foursquare-prme", dataset: "foursquare", family: "prme", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-fed/foursquare-bprmf", dataset: "foursquare", family: "bprmf", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-fed/foursquare-neumf", dataset: "foursquare", family: "neumf", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-gossip/rand-gossip-gmf", variant: gossip.RandGossip, dataset: "movielens", family: "gmf", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-gossip/pers-gossip-prme", variant: gossip.PersGossip, dataset: "gowalla", family: "prme", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-gossip/rand-gossip-prme", variant: gossip.RandGossip, dataset: "gowalla", family: "prme", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-gossip/pers-gossip-gmf", variant: gossip.PersGossip, dataset: "movielens", family: "gmf", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-shareless/fed-gmf", dataset: "movielens", family: "gmf", shareLess: true, rounds: 4, epochs: 1, seed: 7},
	{name: "cia-shareless/gossip-gmf", variant: gossip.RandGossip, dataset: "movielens", family: "gmf", shareLess: true, rounds: 6, epochs: 1, seed: 7},
}

// goldenCIAHashes runs every attack cell on inproc, wire and socket at
// workers 1 and 4, fails on any disagreement and returns one hash per
// cell.
func goldenCIAHashes(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range goldenCIACells {
		ref := goldenCIARun(t, c, "inproc", 1)
		for _, backend := range []string{"inproc", "wire", "socket"} {
			for _, workers := range []int{1, 4} {
				if backend == "inproc" && workers == 1 {
					continue
				}
				if h := goldenCIARun(t, c, backend, workers); h != ref {
					t.Fatalf("%s: %s at workers %d hash %s differs from inproc at workers 1 %s",
						c.name, backend, workers, h, ref)
				}
			}
		}
		out[c.name] = ref
	}
	return out
}

// goldenCIARun builds cell c's run on backend at workers (CIA scoring
// on as many), steps it and returns its digest chain.
func goldenCIARun(t *testing.T, c ciaCell, backend string, workers int) string {
	t.Helper()
	spec := BenchSpec()
	d, err := MakeDataset(c.dataset, spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor(c.family, d)
	spec.Rounds, spec.GLRounds, spec.LocalEpochs, spec.Seed = c.rounds, c.rounds, c.epochs, c.seed
	spec.Workers, spec.Transport = workers, backend
	var policy defense.Policy
	if c.shareLess {
		policy = defense.ShareLess{Tau: DefaultShareLessTau}
	}
	var r *ciaRun
	var models func() []*param.Set
	if c.variant == 0 {
		factory, err := MakeFactory(c.family, d, spec)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := newFLRun(FLOpts{Data: d, Policy: policy, Spec: spec}, factory, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, models = &fl.ciaRun, func() []*param.Set { return []*param.Set{fl.fed.Global().Params()} }
	} else {
		gl, err := newGLRun(GLOpts{Data: d, Family: c.family, Policy: policy, Variant: c.variant, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		r, models = &gl.ciaRun, func() []*param.Set {
			out := make([]*param.Set, d.NumUsers)
			for u := range out {
				out[u] = gl.gossip.Node(u).Params()
			}
			return out
		}
	}
	defer r.Close()
	h := sha256.New()
	for round := 0; round < c.rounds; round++ {
		r.RunRound()
		digestRound(h, r)
	}
	for _, p := range models() {
		if _, err := p.WriteTo(h); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestRound folds one round of r's attack output into h.
func digestRound(h hash.Hash, r *ciaRun) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if r.ev.ShareLess() {
		for j := 0; j < r.ev.NumTargets(); j++ {
			for _, v := range r.ev.Fictive(j) {
				put(math.Float64bits(v))
			}
		}
	}
	per := r.perAdversary()
	for i, cia := range r.advs {
		for t := 0; t < per; t++ {
			for _, s := range cia.Scores(t) {
				put(math.Float64bits(s))
			}
			predicted := cia.Predict(t)
			put(uint64(len(predicted)))
			for _, u := range predicted {
				put(uint64(u))
			}
			put(math.Float64bits(evalx.Accuracy(predicted, r.truths[i*per+t])))
		}
	}
}
