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
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/transport"
)

// The Share-less golden cells pin the adversary's side of a Share-less
// run, which the model digests above never see: after every round, the
// bits of every fictive user vector e_A and every target's inferred
// community (CIA.Predict), for a FedAvg server adversary refitting all
// targets each round and for per-node gossip adversaries each refitting
// its own target.

// digestFictive folds target t's fictive vector and predicted
// community into h.
func digestFictive(h hash.Hash, ev *attack.RecommenderEval, t int, predicted []int) {
	var buf [8]byte
	vec := ev.Fictive(t)
	binary.LittleEndian.PutUint64(buf[:], uint64(len(vec)))
	h.Write(buf[:])
	for _, v := range vec {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(predicted)))
	h.Write(buf[:])
	for _, u := range predicted {
		binary.LittleEndian.PutUint64(buf[:], uint64(u))
		h.Write(buf[:])
	}
}

// shareLessFedDigest digests flObserver's rounds.
type shareLessFedDigest struct {
	*flObserver
	h hash.Hash
}

func (o shareLessFedDigest) OnRoundEnd(round int) {
	o.flObserver.OnRoundEnd(round)
	for t := range o.truths {
		digestFictive(o.h, o.ev, t, o.cia.Predict(t))
	}
}

// goldenShareLessFedRun runs the reference movielens GMF federation
// under Share-less with RunFLCIA's adversary (every user a target, CIA
// on spec.Workers workers) and digests every round's fictive users and
// predicted communities.
func goldenShareLessFedRun(t *testing.T) string {
	t.Helper()
	spec := BenchSpec()
	spec.Workers = 2
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	factory := model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim)
	k := spec.K(d.NumUsers)
	ev := attack.NewShareLessEval(factory(0), d.Train)
	obs := shareLessFedDigest{h: sha256.New(), flObserver: &flObserver{
		cia: attack.New(attack.Config{
			Beta: spec.Beta, K: k, NumUsers: d.NumUsers, Eval: ev, Workers: spec.Workers,
		}),
		ev:            ev,
		truths:        evalx.TrueCommunities(d, k),
		rec:           evalx.NewRecorder(),
		rng:           mathx.NewRand(7 ^ 0x51ce),
		fictiveEpochs: 5,
	}}
	tr, err := transport.New("inproc")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sim, err := fed.New(fed.Config{
		Dataset:   d,
		Factory:   factory,
		Policy:    defense.ShareLess{Tau: DefaultShareLessTau},
		Rounds:    4,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   spec.Workers,
		Transport: tr,
		Observer:  obs,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.sim = sim
	sim.Run()
	return fmt.Sprintf("%x", obs.h.Sum(nil))
}

// shareLessGossipDigest digests glObserver's per-node rounds.
type shareLessGossipDigest struct {
	*glObserver
	h hash.Hash
}

func (o shareLessGossipDigest) OnRoundEnd(round int) {
	o.glObserver.OnRoundEnd(round)
	for a, cia := range o.perNode {
		digestFictive(o.h, o.ev, a, cia.Predict(0))
	}
}

// goldenShareLessGossipRun runs rand-gossip GMF on movielens under
// Share-less with RunGLCIA's per-node adversaries and digests every
// round's fictive users and predicted communities.
func goldenShareLessGossipRun(t *testing.T) string {
	t.Helper()
	spec := BenchSpec()
	spec.Workers = 2
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	factory := model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim)
	n, k := d.NumUsers, spec.K(d.NumUsers)
	ev := attack.NewShareLessEval(factory(0), d.Train)
	obs := shareLessGossipDigest{h: sha256.New(), glObserver: &glObserver{
		ev:            ev,
		truths:        evalx.TrueCommunities(d, k),
		rec:           evalx.NewRecorder(),
		rng:           mathx.NewRand(7 ^ 0x90551b),
		fictiveEpochs: 5,
		shareLess:     true,
		perNode:       make([]*attack.CIA, n),
	}}
	for a := range obs.perNode {
		obs.perNode[a] = attack.New(attack.Config{
			Beta: spec.Beta, K: k, NumUsers: n, Eval: &targetView{ev: ev, t: a},
		})
	}
	tr, err := transport.New("inproc")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sim, err := gossip.New(gossip.Config{
		Dataset:   d,
		Factory:   factory,
		Policy:    defense.ShareLess{Tau: DefaultShareLessTau},
		Variant:   gossip.RandGossip,
		Rounds:    6,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   spec.Workers,
		Transport: tr,
		Observer:  obs,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.sim = sim
	sim.Run()
	return fmt.Sprintf("%x", obs.h.Sum(nil))
}
