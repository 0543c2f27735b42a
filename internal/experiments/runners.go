package experiments

import (
	"math/rand/v2"
	"slices"
	"strings"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// UtilityKind selects the recommendation-quality metric recorded per
// round.
type UtilityKind int

const (
	// UtilityHR is the leave-one-out hit ratio (GMF).
	UtilityHR UtilityKind = iota + 1
	// UtilityF1 is the held-out top-K F1 (PRME).
	UtilityF1
	// UtilityNone skips utility evaluation.
	UtilityNone
)

// RunResult bundles the attack and utility outcome of one protocol run.
type RunResult struct {
	Attack  evalx.Result
	Utility []float64 // one value per round (empty with UtilityNone)
	// TransportName and Traffic record which round-transport backend
	// carried the run and what it cost (messages, bytes, RPC
	// round-trips), so wire vs socket overhead is visible per run.
	TransportName string
	Traffic       transport.Stats
	// Resilience summarizes the run's non-zero fault, churn and
	// Byzantine counters as key=value pairs (fed.Resilience.String /
	// gossip.Resilience.String; "" for an uneventful run).
	Resilience string
	// Metrics is the end-of-run snapshot of the run's obs registry
	// (the same counters the transport/resilience accessors expose,
	// under the metric names in OBSERVABILITY.md). Always populated:
	// runs without a Spec.Metrics registry gather into a private one.
	Metrics obs.Snapshot
}

// runRegistry returns the registry a run should register its metric
// views into: the spec's shared one, or a fresh private registry so
// the run's RunResult.Metrics snapshot is populated either way.
func runRegistry(s Spec) *obs.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return obs.NewRegistry()
}

// newTransport builds the transport a run's spec asks for: a loopback
// or in-process backend via transport.New, or a connection to an
// external worker process when TransportAddr is set; a FaultPlan (or
// the "faulty:" name prefix) wraps it in the deterministic fault
// injector, and Retry tunes the socket backends' RPC policy. The
// caller owns the instance and must Close it when the run is done.
func newTransport(s Spec) (transport.Transport, error) {
	o := transport.Options{Plan: s.FaultPlan, Retry: s.Retry, Compression: s.Compression}
	if s.TransportAddr != "" {
		return transport.DialOptions(s.Transport, s.TransportAddr, o)
	}
	return transport.NewOptions(s.Transport, o)
}

// effectivePlan is the fault plan the protocol simulators should see:
// the spec's explicit plan, or the default one implied by a bare
// "faulty:" transport prefix (nil when no faults are configured).
func effectivePlan(s Spec) *transport.FaultPlan {
	if s.FaultPlan != nil {
		return s.FaultPlan
	}
	if strings.HasPrefix(s.Transport, transport.FaultyPrefix) {
		p := transport.DefaultFaultPlan()
		return &p
	}
	return nil
}

// BestUtility returns the best per-round utility (0 when not recorded).
func (r RunResult) BestUtility() float64 {
	if len(r.Utility) == 0 {
		return 0
	}
	return mathx.Max(r.Utility)
}

// fictiveEpochs is the e_A fit length of every Share-less refit.
const fictiveEpochs = 5

// newEval builds the evaluator a CIA over targets scores with: the
// fictive-user evaluator under Share-less (partial models carry no user
// rows), the full-model one otherwise.
func newEval(factory model.Factory, targets [][]int, policy defense.Policy) *attack.RecommenderEval {
	if isShareLess(policy) {
		return attack.NewShareLessEval(factory(0), targets)
	}
	return attack.NewRecommenderEval(factory(0), targets)
}

// newFed builds the FedAvg federation every FL experiment attacks. cfg
// carries only the run's own fields (dataset, factory, policy,
// observer, OnRound, client fraction, dropout); the spec fills in the
// rest: length, local epochs, workers, seed, the transport and every
// deployment knob (faults, straggler deadline, quorum, churn,
// Byzantine, aggregation rule, tracer). The simulation's metric views
// go into runRegistry(s). The caller owns the returned transport and
// must Close it when the run is done.
func newFed(s Spec, cfg fed.Config) (*fed.Simulation, transport.Transport, error) {
	tr, err := newTransport(s)
	if err != nil {
		return nil, nil, err
	}
	cfg.Rounds = s.Rounds
	cfg.Train = model.TrainOptions{Epochs: s.LocalEpochs}
	cfg.Workers = s.Workers
	cfg.Seed = s.Seed
	cfg.Transport = tr
	cfg.FaultPlan = effectivePlan(s)
	cfg.StragglerDeadline = s.StragglerDeadline
	cfg.Quorum = s.Quorum
	cfg.ChurnPlan = s.ChurnPlan
	cfg.Byzantine = s.Byzantine
	cfg.Aggregator = s.Aggregator
	cfg.TrimFraction = s.TrimFraction
	cfg.ClipNorm = s.ClipNorm
	cfg.Tracer = s.Trace
	sim, err := fed.New(cfg)
	if err != nil {
		tr.Close()
		return nil, nil, err
	}
	sim.RegisterMetrics(runRegistry(s))
	return sim, tr, nil
}

// FLOpts parameterizes a federated CIA run. Every user plays the
// adversary (V_target = their training set), exactly as in §VI-A.
type FLOpts struct {
	Data    *dataset.Dataset
	Family  string // "gmf" | "prme"
	Policy  defense.Policy
	Spec    Spec
	Utility UtilityKind
	// ClientFraction overrides the per-round client sampling fraction
	// when > 0 (default: full participation, the paper's setting).
	ClientFraction float64
	// DropoutProb injects client upload failures when > 0.
	DropoutProb float64
}

// RunFLCIA trains a FedAvg federation with a server-side CIA adversary
// and returns the attack metrics (Table II shape) plus the per-round
// utility curve.
func RunFLCIA(o FLOpts) (RunResult, error) {
	factory, err := MakeFactory(o.Family, o.Data, o.Spec)
	if err != nil {
		return RunResult{}, err
	}
	return runFLCIA(o, factory)
}

// runFLCIA is RunFLCIA over an explicit model factory (o.Family is
// ignored), for ablation-modified models no family name describes.
func runFLCIA(o FLOpts, factory model.Factory) (RunResult, error) {
	if o.Policy == nil {
		o.Policy = defense.FullSharing{}
	}
	k := o.Spec.K(o.Data.NumUsers)
	truths := evalx.TrueCommunities(o.Data, k)
	ev := newEval(factory, o.Data.Train, o.Policy)
	// CIA scores (and, under Share-less, refits) on forks of ev, one
	// per worker: Workers == 0 resolves to runtime.NumCPU() inside
	// attack.New.
	cia := attack.New(attack.Config{
		Beta:     o.Spec.Beta,
		K:        k,
		NumUsers: o.Data.NumUsers,
		Eval:     ev,
		Workers:  o.Spec.Workers,
	})
	flObs := &flObserver{cia: cia, truths: truths, rec: evalx.NewRecorder()}
	var sim *fed.Simulation
	if ev.ShareLess() {
		// Re-fit e_A against the freshest item embeddings the server
		// holds (§IV-C); under full participation every sender is
		// re-scored this round anyway.
		rng := mathx.NewRand(o.Spec.Seed ^ 0x51ce)
		flObs.refit = func(int) { ev.RefreshFictive(sim.Global().Params(), fictiveEpochs, rng) }
	}
	// Pin the registry so newFed registers into the one snapshotted below.
	o.Spec.Metrics = runRegistry(o.Spec)
	var utility []float64
	sim, tr, err := newFed(o.Spec, fed.Config{
		Dataset:        o.Data,
		Factory:        factory,
		Policy:         o.Policy,
		ClientFraction: o.ClientFraction,
		DropoutProb:    o.DropoutProb,
		Observer:       flObs,
		// Utility sweeps run on the simulator's deterministic parallel
		// evaluation engine (Spec.Workers, per-(seed, round, user)
		// negative streams), so the recorded curve is independent of the
		// worker count, of the attack evaluation above and of how often
		// it is sampled.
		OnRound: func(round int, s *fed.Simulation) {
			switch o.Utility {
			case UtilityHR:
				utility = append(utility, s.UtilityHR(o.Spec.HRK, o.Spec.NumNeg))
			case UtilityF1:
				utility = append(utility, s.UtilityF1(o.Spec.HRK))
			}
		},
	})
	if err != nil {
		return RunResult{}, err
	}
	defer tr.Close()
	sim.Run()

	// The FL server's upper bound is 1 under full participation; with
	// sampling or dropout it is whatever coverage it accumulated.
	var upper float64
	seen := cia.Seen()
	for _, truth := range truths {
		upper += evalx.UpperBound(seen, truth)
	}
	upper /= float64(len(truths))
	res := flObs.rec.Summarize(evalx.RandomBound(k, o.Data.NumUsers), upper)
	return RunResult{
		Attack: res, Utility: utility,
		TransportName: tr.Name(), Traffic: tr.Stats(),
		Resilience: sim.Resilience().String(),
		Metrics:    o.Spec.Metrics.Snapshot(),
	}, nil
}

// flObserver adapts a CIA instance to the fed.Observer interface:
// Alg. 1's loop over received models, then per round an optional
// fictive-user refit before scoring and, when rec is set, accuracy
// recording against truths.
type flObserver struct {
	cia    *attack.CIA
	refit  func(round int)
	truths []map[int]struct{}
	rec    *evalx.Recorder
}

func (o *flObserver) OnUpload(msg fed.Message) { o.cia.Observe(msg.From, msg.Params) }

func (o *flObserver) OnRoundEnd(round int) {
	if o.refit != nil {
		o.refit(round)
	}
	o.cia.EndRound()
	if o.rec != nil {
		o.rec.Record(o.cia.Accuracies(o.truths))
	}
}

// GLOpts parameterizes a gossip CIA run.
type GLOpts struct {
	Data    *dataset.Dataset
	Family  string
	Policy  defense.Policy
	Variant gossip.Variant
	Spec    Spec
	Utility UtilityKind
	// ColluderFrac > 0 switches from the every-placement
	// single-adversary protocol (§VI-B) to a single random coalition
	// controlling that fraction of nodes (§VI-D).
	ColluderFrac float64
	// MomentumOff disables the attack momentum (β = 0), the Table VI
	// ablation.
	MomentumOff bool
	// StaticGraph freezes the communication graph (no view refresh) —
	// the ablation for the paper's claim that gossip's privacy stems
	// from its randomness and dynamics (§X).
	StaticGraph bool
}

// RunGLCIA trains a gossip network with CIA adversaries and returns
// attack metrics plus the utility curve. In single-adversary mode
// every node is (independently) an adversary targeting its own
// training set and the AAC averages over placements; in colluder mode
// one coalition attacks every target simultaneously.
func RunGLCIA(o GLOpts) (RunResult, error) {
	if o.Policy == nil {
		o.Policy = defense.FullSharing{}
	}
	beta := o.Spec.Beta
	if o.MomentumOff {
		beta = 0
	}
	factory, err := MakeFactory(o.Family, o.Data, o.Spec)
	if err != nil {
		return RunResult{}, err
	}
	n := o.Data.NumUsers
	k := o.Spec.K(n)
	truths := evalx.TrueCommunities(o.Data, k)
	ev := newEval(factory, o.Data.Train, o.Policy)
	glObs := &glObserver{
		ev:        ev,
		truths:    truths,
		rec:       evalx.NewRecorder(),
		rng:       mathx.NewRand(o.Spec.Seed ^ 0x90551b),
		shareLess: ev.ShareLess(),
	}
	if o.ColluderFrac > 0 {
		nc := int(o.ColluderFrac * float64(n))
		if nc < 1 {
			nc = 1
		}
		glObs.colluders = mathx.SampleWithoutReplacement(glObs.rng, n, nc)
		slices.Sort(glObs.colluders)
		glObs.coalition = attack.New(attack.Config{
			Beta: beta, K: k, NumUsers: n, Eval: ev, Workers: o.Spec.Workers,
		})
	} else {
		glObs.perNode = make([]*attack.CIA, n)
		for a := 0; a < n; a++ {
			glObs.perNode[a] = attack.New(attack.Config{
				Beta: beta, K: k, NumUsers: n,
				Eval: &targetView{ev: ev, t: a},
			})
		}
	}

	glRounds := o.Spec.GLRounds
	if glRounds == 0 {
		glRounds = o.Spec.Rounds
	}
	tr, err := newTransport(o.Spec)
	if err != nil {
		return RunResult{}, err
	}
	defer tr.Close()
	var utility []float64
	sim, err := gossip.New(gossip.Config{
		Dataset:     o.Data,
		Factory:     factory,
		Policy:      o.Policy,
		Variant:     o.Variant,
		Rounds:      glRounds,
		StaticGraph: o.StaticGraph,
		Train:       model.TrainOptions{Epochs: o.Spec.LocalEpochs},
		Workers:     o.Spec.Workers,
		Transport:   tr,
		FaultPlan:   effectivePlan(o.Spec),
		ChurnPlan:   o.Spec.ChurnPlan,
		Byzantine:   o.Spec.Byzantine,
		Tracer:      o.Spec.Trace,
		Observer:    glObs,
		OnRound: func(round int, s *gossip.Simulation) {
			switch o.Utility {
			case UtilityHR:
				utility = append(utility, s.UtilityHR(o.Spec.HRK, o.Spec.NumNeg))
			case UtilityF1:
				utility = append(utility, s.UtilityF1(o.Spec.HRK))
			}
		},
		Seed: o.Spec.Seed,
	})
	if err != nil {
		return RunResult{}, err
	}
	glObs.sim = sim
	reg := runRegistry(o.Spec)
	sim.RegisterMetrics(reg)
	sim.Run()

	res := glObs.rec.Summarize(evalx.RandomBound(k, n), glObs.meanUpperBound())
	return RunResult{
		Attack: res, Utility: utility,
		TransportName: tr.Name(), Traffic: tr.Stats(),
		Resilience: sim.Resilience().String(),
		Metrics:    reg.Snapshot(),
	}, nil
}

// targetView exposes a single target of a shared multi-target
// evaluator, so per-placement CIA instances can share one scratch
// model.
type targetView struct {
	ev *attack.RecommenderEval
	t  int
}

func (v *targetView) Load(s *param.Set)           { v.ev.Load(s) }
func (v *targetView) Score(sender, _ int) float64 { return v.ev.Score(sender, v.t) }
func (v *targetView) NumTargets() int             { return 1 }

// glObserver adapts CIA instances to gossip traffic (Alg. 2).
type glObserver struct {
	sim    *gossip.Simulation
	ev     *attack.RecommenderEval
	truths []map[int]struct{}
	rec    *evalx.Recorder
	rng    *rand.Rand

	// single-adversary mode: one CIA per placement.
	perNode []*attack.CIA
	// colluder mode: one coalition fed by all colluders' inboxes;
	// colluders is sorted ascending.
	colluders []int
	coalition *attack.CIA

	shareLess bool
}

func (o *glObserver) OnReceive(msg gossip.Message) {
	if o.coalition != nil {
		if _, ok := slices.BinarySearch(o.colluders, msg.To); ok {
			o.coalition.Observe(msg.From, msg.Params)
		}
		return
	}
	o.perNode[msg.To].Observe(msg.From, msg.Params)
}

func (o *glObserver) OnRoundEnd(round int) {
	if o.coalition != nil {
		if o.shareLess {
			// The coalition refreshes every target's e_A against the
			// lowest-id colluder's item embeddings.
			o.ev.RefreshFictive(o.sim.Node(o.colluders[0]).Params(), fictiveEpochs, o.rng)
		}
		o.coalition.EndRound()
		o.rec.Record(o.coalition.Accuracies(o.truths))
		return
	}
	accs := make([]float64, len(o.perNode))
	for a, cia := range o.perNode {
		if o.shareLess {
			o.ev.RefreshFictiveOne(a, o.sim.Node(a).Params(), fictiveEpochs, o.rng)
		}
		cia.EndRound()
		accs[a] = evalx.Accuracy(cia.Predict(0), o.truths[a])
	}
	o.rec.Record(accs)
}

// meanUpperBound is the §V-C accuracy upper bound averaged over
// adversaries (placements or coalition targets) at the end of the run.
func (o *glObserver) meanUpperBound() float64 {
	if o.coalition != nil {
		seen := o.coalition.Seen()
		var sum float64
		for _, truth := range o.truths {
			sum += evalx.UpperBound(seen, truth)
		}
		return sum / float64(len(o.truths))
	}
	var sum float64
	for a, cia := range o.perNode {
		sum += evalx.UpperBound(cia.Seen(), o.truths[a])
	}
	return sum / float64(len(o.perNode))
}

func isShareLess(p defense.Policy) bool {
	_, ok := p.(defense.ShareLess)
	return ok
}

// utilityFor maps a model family to its paper utility metric.
func utilityFor(family string) UtilityKind {
	if family == "prme" {
		return UtilityF1
	}
	return UtilityHR
}
