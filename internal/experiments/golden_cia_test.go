package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"maps"
	"math"
	"strings"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
)

// Every tolerance-0 check of the package runs through one harness:
// runCell builds a cell's run the way the experiment runners build it
// (newFLRun, newGLRun), steps it round by round and digests it. After
// every round it folds, under Share-less, every fictive user e_A; then
// for every adversary and each of its targets the score row, the
// predicted community and its accuracy; then the round's utility
// sample when the cell records one. After the last round it folds
// every final model and reads the resilience counters from the run's
// registry.

// ciaCell is one golden cell: a FedAvg (variant 0) or gossip run of
// family on dataset, every user a target, generated at BenchSpec's
// seed and simulated at seed for rounds rounds of epochs local epochs
// each, under knobs (its Transport and TransportAddr are the replay's).
type ciaCell struct {
	name            string
	variant         gossip.Variant
	dataset, family string
	shareLess       bool
	rounds, epochs  int
	seed            uint64
	knobs           Knobs
	// utility is sampled after every round (HR@HRK against numNeg
	// negatives, or F1@HRK); zero samples none.
	utility UtilityKind
	numNeg  int
	// exercised names the resilience counters the deployment must
	// drive above zero: a plan too tame to pin anything fails the run.
	exercised []string
}

// fedGMFCell is the reference FedAvg GMF workload under k.
func fedGMFCell(name string, k Knobs, exercised ...string) ciaCell {
	return ciaCell{name: name, dataset: "movielens", family: "gmf", rounds: 4, epochs: 1, seed: 7,
		knobs: k, utility: UtilityHR, numNeg: 20, exercised: exercised}
}

// goldenCells are, first, the model cells: the reference FedAvg GMF
// workload dense, compressed, under the chaos fault plan and under
// churn and Byzantine populations against the robust aggregators, and
// the reference gossip PRME workload, each recording its utility
// curve. Then the attack cells: Table II's FedAvg attack at K = 5%,
// Table III's per-node gossip attack, and the Share-less adversaries
// of both protocols refitting their fictive users every round (FedAvg
// for every model family, whose fictive fits differ).
var goldenCells = []ciaCell{
	fedGMFCell("fed-gmf", Knobs{}),
	{name: "gossip-prme", variant: gossip.RandGossip, dataset: "gowalla", family: "prme", rounds: 5, epochs: 1, seed: 7, utility: UtilityF1},
	// Every fault family active. Its 4 rounds skip clients, lose
	// uploads and exclude stragglers; no round blacks out.
	fedGMFCell("fed-gmf-faulty", Knobs{
		Faults:            "seed=3,drop=0.1,send-loss=0.1,deliver-loss=0.1,bcast-fail=0.1,slow=0.3,slow-latency=500ms",
		StragglerDeadline: "100ms",
		Quorum:            0.3,
	}, "resilience_deliver_failures", "resilience_upload_failures", "resilience_stragglers"),
	fedGMFCell("fed-gmf-compressed8", Knobs{Compression: "8bit"}),
	fedGMFCell("fed-gmf-compressed16", Knobs{Compression: "16bit"}),
	// Heavy churn (≥20% round-over-round turnover; see
	// TestResilienceScenarioTurnover), 10% sign-flip adversaries and
	// the trimmed mean.
	fedGMFCell("fed-gmf-churn", Knobs{
		Churn:        "seed=5,initial=0.8,leave=0.25,join=0.5,stale-bound=2",
		Byzantine:    "kind=sign-flip,frac=0.1,seed=1",
		Aggregator:   "trimmed-mean",
		TrimFraction: 0.2,
	}, "resilience_joins", "resilience_leaves", "resilience_rejoins", "resilience_byzantine_uploads"),
	fedGMFCell("fed-gmf-byz-median", Knobs{Byzantine: "kind=scaled-noise,frac=0.2,scale=2,seed=2", Aggregator: "median"},
		"resilience_byzantine_uploads"),
	// The clip bound lies below the honest delta norms, so the cell
	// also pins the clip accounting.
	fedGMFCell("fed-gmf-byz-clip", Knobs{Byzantine: "kind=sign-flip,frac=0.2,seed=3", Aggregator: "norm-clip", ClipNorm: 0.5},
		"resilience_byzantine_uploads", "resilience_clipped_uploads"),

	{name: "cia-fed/foursquare-gmf", dataset: "foursquare", family: "gmf", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-fed/foursquare-prme", dataset: "foursquare", family: "prme", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-fed/foursquare-bprmf", dataset: "foursquare", family: "bprmf", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-fed/foursquare-neumf", dataset: "foursquare", family: "neumf", rounds: 5, epochs: 2, seed: 1},
	{name: "cia-gossip/rand-gossip-gmf", variant: gossip.RandGossip, dataset: "movielens", family: "gmf", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-gossip/pers-gossip-prme", variant: gossip.PersGossip, dataset: "gowalla", family: "prme", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-gossip/rand-gossip-prme", variant: gossip.RandGossip, dataset: "gowalla", family: "prme", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-gossip/pers-gossip-gmf", variant: gossip.PersGossip, dataset: "movielens", family: "gmf", rounds: 5, epochs: 2, seed: 7},
	{name: "cia-shareless/fed-gmf", dataset: "movielens", family: "gmf", shareLess: true, rounds: 4, epochs: 1, seed: 7},
	{name: "cia-shareless/fed-prme", dataset: "movielens", family: "prme", shareLess: true, rounds: 4, epochs: 1, seed: 7},
	{name: "cia-shareless/fed-bprmf", dataset: "movielens", family: "bprmf", shareLess: true, rounds: 4, epochs: 1, seed: 7},
	{name: "cia-shareless/fed-neumf", dataset: "movielens", family: "neumf", shareLess: true, rounds: 4, epochs: 1, seed: 7},
	{name: "cia-shareless/gossip-gmf", variant: gossip.RandGossip, dataset: "movielens", family: "gmf", shareLess: true, rounds: 6, epochs: 1, seed: 7},
}

// goldenCell returns the cell called name.
func goldenCell(t *testing.T, name string) ciaCell {
	t.Helper()
	for _, c := range goldenCells {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no golden cell %q", name)
	return ciaCell{}
}

// replay is one deployment of a cell: the backend and worker count
// (CIA scoring runs on as many), optionally an external worker to
// dial, the obs surface to record into, and a hook run between two
// rounds.
type replay struct {
	backend string
	workers int
	addr    string
	trace   *obs.Tracer
	metrics *obs.Registry
	between func(round int)
}

// replays are the deployments every golden cell must agree on:
// inproc, wire and socket at workers 1 and 4.
var replays = []replay{
	{backend: "inproc", workers: 1}, {backend: "inproc", workers: 4},
	{backend: "wire", workers: 1}, {backend: "wire", workers: 4},
	{backend: "socket", workers: 1}, {backend: "socket", workers: 4},
}

func (p replay) String() string { return fmt.Sprintf("%s at workers %d", p.backend, p.workers) }

// cellDigest is what a cell pins: the running hash over every round's
// output and the final models (chain), one digest per round and
// component, the final models' digest, and the resilience counters
// that ended above zero (an absent counter is zero).
type cellDigest struct {
	Chain    string           `json:"chain"`
	Rounds   []roundDigest    `json:"rounds"`
	Models   string           `json:"models"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// roundDigest is one round's digest per component; a component the
// round does not produce is absent.
type roundDigest map[string]string

// components names a round's components in the order digester.round folds
// them into the chain.
var components = []string{"fictive", "scores", "predictions", "accuracy", "utility"}

// runCell builds cell c's run under p, steps it and digests it. It
// returns the digest and the run's result.
func runCell(t *testing.T, c ciaCell, p replay) (cellDigest, RunResult) {
	t.Helper()
	spec := BenchSpec()
	d, err := MakeDataset(c.dataset, spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor(c.family, d)
	spec.Rounds, spec.GLRounds, spec.LocalEpochs, spec.Seed, spec.NumNeg = c.rounds, c.rounds, c.epochs, c.seed, c.numNeg
	k := c.knobs
	k.Transport, k.TransportAddr = p.backend, p.addr
	if spec, err = k.Apply(spec); err != nil {
		t.Fatal(err)
	}
	spec.Workers, spec.Trace, spec.Metrics = p.workers, p.trace, p.metrics
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
		fl, err := newFLRun(FLOpts{Data: d, Policy: policy, Spec: spec, Utility: c.utility}, factory, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, models = &fl.ciaRun, func() []*param.Set { return []*param.Set{fl.fed.Global().Params()} }
	} else {
		gl, err := newGLRun(GLOpts{Data: d, Family: c.family, Policy: policy, Variant: c.variant, Spec: spec, Utility: c.utility})
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
	dg := &digester{chain: sha256.New(), parts: map[string]hash.Hash{}}
	var out cellDigest
	for round := 0; round < c.rounds; round++ {
		r.RunRound()
		out.Rounds = append(out.Rounds, dg.round(r))
		if p.between != nil && round < c.rounds-1 {
			p.between(round)
		}
	}
	m := sha256.New()
	for _, model := range models() {
		if _, err := model.WriteTo(io.MultiWriter(dg.chain, m)); err != nil {
			t.Fatal(err)
		}
	}
	out.Chain, out.Models = fmt.Sprintf("%x", dg.chain.Sum(nil)), short(m)
	res := r.result()
	out.Counters = map[string]int64{}
	for name, v := range res.Metrics {
		if strings.HasPrefix(name, "resilience_") && v != 0 {
			out.Counters[name] = int64(v)
		}
	}
	for _, name := range c.exercised {
		if out.Counters[name] == 0 {
			t.Fatalf("%s: the deployment never drove %s above zero: %v", c.name, name, out.Counters)
		}
	}
	return out, res
}

// digester folds a run's output into the running chain and, per
// component, into a digest of the component's own.
type digester struct {
	chain hash.Hash
	parts map[string]hash.Hash
	buf   [8]byte
}

func (dg *digester) put(component string, v uint64) {
	binary.LittleEndian.PutUint64(dg.buf[:], v)
	dg.chain.Write(dg.buf[:])
	h := dg.parts[component]
	if h == nil {
		h = sha256.New()
		dg.parts[component] = h
	}
	h.Write(dg.buf[:])
}

// round folds the round r just ran and returns its component digests.
func (dg *digester) round(r *ciaRun) roundDigest {
	if r.ev.ShareLess() {
		for j := 0; j < r.ev.NumTargets(); j++ {
			for _, v := range r.ev.Fictive(j) {
				dg.put("fictive", math.Float64bits(v))
			}
		}
	}
	per := r.perAdversary()
	for i, cia := range r.advs {
		for t := 0; t < per; t++ {
			for _, s := range cia.Scores(t) {
				dg.put("scores", math.Float64bits(s))
			}
			predicted := cia.Predict(t)
			dg.put("predictions", uint64(len(predicted)))
			for _, u := range predicted {
				dg.put("predictions", uint64(u))
			}
			dg.put("accuracy", math.Float64bits(evalx.Accuracy(predicted, r.truths[i*per+t])))
		}
	}
	if n := len(r.utility); n > 0 {
		dg.put("utility", math.Float64bits(r.utility[n-1]))
	}
	out := roundDigest{}
	for _, c := range components {
		if h := dg.parts[c]; h != nil {
			out[c] = short(h)
		}
	}
	clear(dg.parts)
	return out
}

// short is the first 16 hex digits of h's sum: enough to tell where
// two runs part, while the chain pins every bit.
func short(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

// firstDiff names the first place got departs from want: the earliest
// round and, within it, the first component in fold order; then the
// final models, the counters and the chain. "" when they agree.
func firstDiff(got, want cellDigest) string {
	for r := range max(len(got.Rounds), len(want.Rounds)) {
		var g, w roundDigest
		if r < len(got.Rounds) {
			g = got.Rounds[r]
		}
		if r < len(want.Rounds) {
			w = want.Rounds[r]
		}
		for _, c := range components {
			if g[c] != w[c] {
				return fmt.Sprintf("first diverges at round %d, component %s (%q, want %q)", r, c, g[c], w[c])
			}
		}
	}
	switch {
	case got.Models != want.Models:
		return fmt.Sprintf("final models differ (%s, want %s)", got.Models, want.Models)
	case !maps.Equal(got.Counters, want.Counters):
		return fmt.Sprintf("counters %v, want %v", got.Counters, want.Counters)
	case got.Chain != want.Chain:
		return fmt.Sprintf("chain %s, want %s", got.Chain, want.Chain)
	}
	return ""
}
