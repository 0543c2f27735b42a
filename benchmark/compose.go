package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/experiments"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// workers is the parallelism of fed/gossip rounds and CIA scoring: the
// number of cores of the 2-core machine the bounds were calibrated on.
const workers = 2

// cellSpec is one table cell of a workload: a CIA run on one dataset ×
// model pair under one deployment.
type cellSpec struct {
	Dataset, Family string
	// Variant selects a gossip run; the zero value is a FedAvg run.
	Variant gossip.Variant
	// Transport is a transport.NewOptions backend name. The "faulty:"
	// prefix injects transport.DefaultFaultPlan.
	Transport   string
	Compression param.Compression
	ShareLess   bool
	Straggler   time.Duration
	Quorum      float64
	// Utility records HR@K after every round.
	Utility bool
}

// spec is the experiments sizing of the cell at one seed: BenchSpec
// with the cell's deployment knobs.
func (c cellSpec) spec(seed uint64) experiments.Spec {
	s := experiments.BenchSpec()
	s.Workers = workers
	s.Seed = seed
	s.Transport = c.Transport
	s.Compression = c.Compression
	s.StragglerDeadline = c.Straggler
	s.Quorum = c.Quorum
	return s
}

func (c cellSpec) policy() defense.Policy {
	if c.ShareLess {
		return defense.ShareLess{Tau: experiments.DefaultShareLessTau}
	}
	return defense.FullSharing{}
}

// setting is the cell's row label, in the style of the paper tables.
func (c cellSpec) setting() string {
	if c.Variant != 0 {
		return c.Variant.String()
	}
	label := "FL"
	if c.Transport != "" && c.Transport != "inproc" {
		label += " " + c.Transport
	}
	if c.Compression.Enabled() {
		label += " " + c.Compression.String()
	}
	if c.ShareLess {
		label += " share-less"
	}
	return label
}

// faultPlan is the plan the simulators consult for straggler latencies
// and peer reachability: the one the "faulty:" prefix puts on the
// transport, or nil.
func (c cellSpec) faultPlan() *transport.FaultPlan {
	if !strings.HasPrefix(c.Transport, transport.FaultyPrefix) {
		return nil
	}
	p := transport.DefaultFaultPlan()
	return &p
}

// cell is one built workload cell: a protocol simulation with its CIA
// adversary attached, driven round by round by the benchmark.
type cell struct {
	rounds  int
	fed     *fed.Simulation
	gossip  *gossip.Simulation
	tr      transport.Transport
	rec     *evalx.Recorder
	random  float64
	upper   func() float64
	utility []float64
	// probes, tracer and reg are set on traced cells only.
	probes *probes
	tracer *obs.Tracer
	reg    *obs.Registry
}

func (c *cell) runRound() {
	if c.fed != nil {
		c.fed.RunRound()
		return
	}
	c.gossip.RunRound()
}

// result summarizes the attack over the rounds run so far.
func (c *cell) result() evalx.Result { return c.rec.Summarize(c.random, c.upper()) }

// failedTransfers counts the transfers the protocol lost: fed upload,
// delivery and blackout failures, or gossip lost pushes.
func (c *cell) failedTransfers() int64 {
	if c.fed != nil {
		r := c.fed.Resilience()
		return r.UploadFailures + r.DeliverFailures + r.BlackoutRounds
	}
	return c.gossip.Resilience().LostPushes
}

func (c *cell) close() error { return c.tr.Close() }

// build composes a cell at the given sizing exactly as
// experiments.RunFLCIA/RunGLCIA do (compose_test.go holds the two to
// identical results). A non-nil p wraps the model factory, the defense
// policy, the transport and the observer in its timing decorators and
// traces the simulation's phases.
func build(c cellSpec, s experiments.Spec, p *probes) (*cell, error) {
	d, err := experiments.MakeDataset(c.Dataset, s)
	if err != nil {
		return nil, err
	}
	experiments.SplitFor(c.Family, d)
	factory, err := experiments.MakeFactory(c.Family, d, s)
	if err != nil {
		return nil, err
	}
	tr, err := transport.NewOptions(s.Transport, transport.Options{Compression: s.Compression})
	if err != nil {
		return nil, err
	}
	policy := c.policy()
	out := &cell{rec: evalx.NewRecorder(), probes: p}
	if p != nil {
		factory = p.wrapFactory(factory)
		policy = timedPolicy{policy, p}
		tr = timedTransport{tr, p}
		out.reg = obs.NewRegistry()
	}
	out.tr = tr
	k := s.K(d.NumUsers)
	out.random = evalx.RandomBound(k, d.NumUsers)
	if c.Variant == 0 {
		err = out.buildFed(c, s, d, factory, policy, k)
	} else {
		err = out.buildGossip(c, s, d, factory, policy, k)
	}
	if err != nil {
		tr.Close()
		return nil, err
	}
	return out, nil
}

func (out *cell) buildFed(c cellSpec, s experiments.Spec, d *dataset.Dataset, factory model.Factory, policy defense.Policy, k int) error {
	targets := d.Train
	ev := attack.NewRecommenderEval(factory(0), targets)
	if c.ShareLess {
		ev = attack.NewShareLessEval(factory(0), targets)
	}
	cfg := attack.Config{Beta: s.Beta, K: k, NumUsers: d.NumUsers, Eval: ev}
	if !c.ShareLess && s.Workers > 1 {
		cfg.Workers = s.Workers
		cfg.NewEval = func() attack.Evaluator { return attack.NewRecommenderEval(factory(0), targets) }
	}
	adv := &flAdversary{
		cia:    attack.New(cfg),
		ev:     ev,
		truths: evalx.TrueCommunities(d, k),
		rec:    out.rec,
		// The fictive-user stream seed matches experiments.RunFLCIA.
		rng:   mathx.NewRand(s.Seed ^ 0x51ce),
		epoch: 5,
	}
	var observer fed.Observer = adv
	var utility *meter
	if out.probes != nil {
		adv.refit, adv.endRound, adv.accuracy = &out.probes.refit, &out.probes.endRound, &out.probes.accuracy
		utility = &out.probes.utility
		observer = timedFedObserver{adv, out.probes}
		out.tracer = obs.NewTracer(spanCapacity(s.Rounds, d.NumUsers))
	}
	var onRound func(int, *fed.Simulation)
	if c.Utility {
		onRound = func(_ int, sim *fed.Simulation) {
			t := utility.start()
			out.utility = append(out.utility, sim.UtilityHR(s.HRK, s.NumNeg))
			utility.stop(t, nil)
		}
	}
	sim, err := fed.New(fed.Config{
		Dataset:           d,
		Factory:           factory,
		Policy:            policy,
		Rounds:            s.Rounds,
		Train:             model.TrainOptions{Epochs: s.LocalEpochs},
		Workers:           s.Workers,
		Transport:         out.tr,
		FaultPlan:         c.faultPlan(),
		StragglerDeadline: s.StragglerDeadline,
		Quorum:            s.Quorum,
		Tracer:            out.tracer,
		Observer:          observer,
		OnRound:           onRound,
		Seed:              s.Seed,
	})
	if err != nil {
		return err
	}
	adv.sim = sim
	sim.RegisterMetrics(out.reg)
	out.fed, out.rounds = sim, s.Rounds
	out.upper = func() float64 {
		seen := adv.cia.Seen()
		var sum float64
		for _, truth := range adv.truths {
			sum += evalx.UpperBound(seen, truth)
		}
		return sum / float64(len(adv.truths))
	}
	return nil
}

func (out *cell) buildGossip(c cellSpec, s experiments.Spec, d *dataset.Dataset, factory model.Factory, policy defense.Policy, k int) error {
	if c.ShareLess || c.Utility {
		return fmt.Errorf("benchmark: gossip cells run Table III's full-sharing attack without utility")
	}
	n := d.NumUsers
	ev := attack.NewRecommenderEval(factory(0), d.Train)
	adv := &glAdversary{truths: evalx.TrueCommunities(d, k), rec: out.rec, perNode: make([]*attack.CIA, n)}
	for a := range adv.perNode {
		adv.perNode[a] = attack.New(attack.Config{
			Beta: s.Beta, K: k, NumUsers: n,
			Eval: &targetView{ev: ev, t: a},
		})
	}
	var observer gossip.Observer = adv
	if out.probes != nil {
		adv.endRound, adv.accuracy = &out.probes.endRound, &out.probes.accuracy
		observer = timedGossipObserver{adv, out.probes}
		out.tracer = obs.NewTracer(spanCapacity(s.GLRounds, n))
	}
	sim, err := gossip.New(gossip.Config{
		Dataset:   d,
		Factory:   factory,
		Policy:    policy,
		Variant:   c.Variant,
		Rounds:    s.GLRounds,
		Train:     model.TrainOptions{Epochs: s.LocalEpochs},
		Workers:   s.Workers,
		Transport: out.tr,
		FaultPlan: c.faultPlan(),
		Tracer:    out.tracer,
		Observer:  observer,
		Seed:      s.Seed,
	})
	if err != nil {
		return err
	}
	sim.RegisterMetrics(out.reg)
	out.gossip, out.rounds = sim, s.GLRounds
	out.upper = func() float64 {
		var sum float64
		for a, cia := range adv.perNode {
			sum += evalx.UpperBound(cia.Seen(), adv.truths[a])
		}
		return sum / float64(len(adv.perNode))
	}
	return nil
}

// spanCapacity sizes a traced cell's span rings so none wraps: a ring
// never receives more than one span per phase per participant (plus
// the round-level spans) per round.
func spanCapacity(rounds, participants int) int {
	return rounds * (participants + 1) * int(obs.PhaseEval+1)
}

// flAdversary is the honest-but-curious FL server (Alg. 1): it folds
// every upload into the CIA momentum states and records per-target
// accuracy after each round. Under Share-less it re-fits the fictive
// users against the current global item embeddings first (§IV-C).
type flAdversary struct {
	cia    *attack.CIA
	ev     *attack.RecommenderEval
	sim    *fed.Simulation
	truths []map[int]struct{}
	rec    *evalx.Recorder
	rng    *rand.Rand
	epoch  int
	// Traced cells time the round-end steps; nil meters read no clock.
	refit, endRound, accuracy *meter
}

func (o *flAdversary) OnUpload(msg fed.Message) { o.cia.Observe(msg.From, msg.Params) }

func (o *flAdversary) OnRoundEnd(int) {
	t := o.refit.start()
	if o.ev.ShareLess() {
		o.ev.RefreshFictive(o.sim.Global().Params(), o.epoch, o.rng)
	}
	t = o.refit.stop(t, nil)
	o.cia.EndRound()
	t = o.endRound.stop(t, nil)
	o.rec.Record(o.cia.Accuracies(o.truths))
	o.accuracy.stop(t, nil)
}

// glAdversary places one CIA adversary on every gossip node (Alg. 2),
// each targeting its own training set, and records the accuracy of all
// placements after each round.
type glAdversary struct {
	perNode            []*attack.CIA
	truths             []map[int]struct{}
	rec                *evalx.Recorder
	endRound, accuracy *meter
}

func (o *glAdversary) OnReceive(msg gossip.Message) {
	o.perNode[msg.To].Observe(msg.From, msg.Params)
}

func (o *glAdversary) OnRoundEnd(int) {
	accs := make([]float64, len(o.perNode))
	for a, cia := range o.perNode {
		t := o.endRound.start()
		cia.EndRound()
		t = o.endRound.stop(t, nil)
		accs[a] = evalx.Accuracy(cia.Predict(0), o.truths[a])
		o.accuracy.stop(t, nil)
	}
	o.rec.Record(accs)
}

// targetView exposes target t of a shared evaluator, so the per-node
// CIA instances share one scratch model.
type targetView struct {
	ev *attack.RecommenderEval
	t  int
}

func (v *targetView) Load(s *param.Set)           { v.ev.Load(s) }
func (v *targetView) Score(sender, _ int) float64 { return v.ev.Score(sender, v.t) }
func (v *targetView) NumTargets() int             { return 1 }
