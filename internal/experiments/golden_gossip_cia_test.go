package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/transport"
)

// The full-sharing gossip CIA cells pin Table III's attack output: every
// relevance score an adversary computes, and after every round each
// node's predicted community and its accuracy, chained through one
// digest, then every node's final model.

// scoreDigest is a targetView that folds every score it returns into h.
// Per-node CIAs score serially, in node then sender order, so the chain
// is the same for every worker count.
type scoreDigest struct {
	targetView
	h hash.Hash
}

func (v *scoreDigest) Score(sender, t int) float64 {
	s := v.targetView.Score(sender, t)
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(sender))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s))
	v.h.Write(buf[:])
	return s
}

// gossipCIADigest digests glObserver's per-node rounds.
type gossipCIADigest struct {
	*glObserver
	h hash.Hash
}

func (o gossipCIADigest) OnRoundEnd(round int) {
	o.glObserver.OnRoundEnd(round)
	var buf [8]byte
	for a, cia := range o.perNode {
		predicted := cia.Predict(0)
		binary.LittleEndian.PutUint64(buf[:], uint64(len(predicted)))
		o.h.Write(buf[:])
		for _, u := range predicted {
			binary.LittleEndian.PutUint64(buf[:], uint64(u))
			o.h.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(evalx.Accuracy(predicted, o.truths[a])))
		o.h.Write(buf[:])
	}
}

// goldenGossipCIARun runs variant × family on dataset under full sharing
// with RunGLCIA's per-node adversaries on the given backend and worker
// count, and digests every round's predictions and accuracies plus the
// final model of every node.
func goldenGossipCIARun(t *testing.T, backend string, workers int, variant gossip.Variant, dataset, family string) string {
	t.Helper()
	spec := BenchSpec()
	spec.Workers = workers
	d, err := MakeDataset(dataset, spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor(family, d)
	factory, err := MakeFactory(family, d, spec)
	if err != nil {
		t.Fatal(err)
	}
	n, k := d.NumUsers, spec.K(d.NumUsers)
	ev := attack.NewRecommenderEval(factory(0), d.Train)
	obs := gossipCIADigest{h: sha256.New(), glObserver: &glObserver{
		ev:      ev,
		truths:  evalx.TrueCommunities(d, k),
		rec:     evalx.NewRecorder(),
		rng:     mathx.NewRand(7 ^ 0x90551b),
		perNode: make([]*attack.CIA, n),
	}}
	for a := range obs.perNode {
		obs.perNode[a] = attack.New(attack.Config{
			Beta: spec.Beta, K: k, NumUsers: n, Eval: &scoreDigest{targetView{ev: ev, t: a}, obs.h},
		})
	}
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sim, err := gossip.New(gossip.Config{
		Dataset:   d,
		Factory:   factory,
		Variant:   variant,
		Rounds:    5,
		Train:     model.TrainOptions{Epochs: spec.LocalEpochs},
		Workers:   workers,
		Transport: tr,
		Observer:  obs,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.sim = sim
	sim.Run()
	for u := 0; u < n; u++ {
		if _, err := sim.Node(u).Params().WriteTo(obs.h); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", obs.h.Sum(nil))
}

// goldenGossipCIACells are the full-sharing gossip CIA cells: each must
// reproduce its inproc workers-1 digest on every backend at workers 1
// and 4.
var goldenGossipCIACells = []struct {
	name            string
	variant         gossip.Variant
	dataset, family string
}{
	{"cia-gossip/rand-gossip-gmf", gossip.RandGossip, "movielens", "gmf"},
	{"cia-gossip/pers-gossip-prme", gossip.PersGossip, "gowalla", "prme"},
}

// goldenGossipCIAHashes runs every full-sharing gossip CIA cell on
// inproc, wire and socket at workers 1 and 4, fails on any disagreement
// and returns one hash per cell.
func goldenGossipCIAHashes(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, c := range goldenGossipCIACells {
		ref := goldenGossipCIARun(t, "inproc", 1, c.variant, c.dataset, c.family)
		for _, backend := range []string{"inproc", "wire", "socket"} {
			for _, workers := range []int{1, 4} {
				if backend == "inproc" && workers == 1 {
					continue
				}
				if h := goldenGossipCIARun(t, backend, workers, c.variant, c.dataset, c.family); h != ref {
					t.Fatalf("%s: %s at workers %d hash %s differs from inproc at workers 1 %s",
						c.name, backend, workers, h, ref)
				}
			}
		}
		out[c.name] = ref
	}
	return out
}
