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
// or in-process backend via transport.NewOptions, or a connection to an
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
	if _, ok := policy.(defense.ShareLess); ok {
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
	r, err := newFLRun(o, factory, nil, 0)
	if err != nil {
		return RunResult{}, err
	}
	return r.runToEnd(), nil
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
	r, err := newGLRun(o)
	if err != nil {
		return RunResult{}, err
	}
	return r.runToEnd(), nil
}

// ciaRun is what every CIA run holds, whatever the protocol: the
// simulation with its transport and metric registry, the evaluator the
// adversaries score with, the adversaries, and the recorders of their
// per-round accuracy and of the utility curve. advs lists the
// adversaries (the FedAvg server, one per gossip node, or one
// coalition), each attacking the same number of targets; numbering
// the targets in that order gives the run's target index j, which keys
// truths[j] and the evaluator's target (and fictive user) j.
type ciaRun struct {
	sim    simulation
	rounds int
	tr     transport.Transport
	reg    *obs.Registry
	ev     *attack.RecommenderEval
	advs   []*attack.CIA
	k, n   int
	truths []map[int]struct{} // nil: no accuracy is recorded
	rec    *evalx.Recorder
	// kind selects the utility sampled after every round: HR@hrK
	// against numNeg negatives, or F1@hrK.
	kind        UtilityKind
	hrK, numNeg int
	utility     []float64
}

// simulation is the protocol simulator a ciaRun steps.
type simulation interface {
	RunRound()
	Round() int
	UtilityHR(k, numNeg int) float64
	UtilityF1(k int) float64
}

// RunRound runs the next protocol round. The adversaries observe its
// traffic, score at its end and record their accuracy.
func (r *ciaRun) RunRound() { r.sim.RunRound() }

// run steps through every remaining round.
func (r *ciaRun) run() {
	for r.sim.Round() < r.rounds {
		r.RunRound()
	}
}

// runToEnd runs every remaining round, summarizes the run and closes
// it.
func (r *ciaRun) runToEnd() RunResult {
	defer r.Close()
	r.run()
	return r.result()
}

// Close releases the run's transport.
func (r *ciaRun) Close() error { return r.tr.Close() }

// result summarizes the rounds run so far.
func (r *ciaRun) result() RunResult {
	return RunResult{
		Attack:        r.rec.Summarize(evalx.RandomBound(r.k, r.n), r.upperBound()),
		Utility:       r.utility,
		TransportName: r.tr.Name(),
		Traffic:       r.tr.Stats(),
		Metrics:       r.reg.Snapshot(),
	}
}

// perAdversary is the number of targets each adversary attacks.
func (r *ciaRun) perAdversary() int { return r.ev.NumTargets() / len(r.advs) }

// record appends the round's accuracy of every target to rec.
func (r *ciaRun) record() {
	if r.truths == nil {
		return
	}
	per := r.perAdversary()
	accs := make([]float64, 0, len(r.truths))
	for i, cia := range r.advs {
		accs = append(accs, cia.Accuracies(r.truths[i*per:(i+1)*per])...)
	}
	r.rec.Record(accs)
}

// upperBound is the §V-C accuracy upper bound averaged over targets,
// from what each adversary has observed so far. The FL server's is 1
// under full participation; with sampling or dropout it is whatever
// coverage it accumulated.
func (r *ciaRun) upperBound() float64 {
	per := r.perAdversary()
	var sum float64
	for i, cia := range r.advs {
		seen := cia.Seen()
		for _, truth := range r.truths[i*per : (i+1)*per] {
			sum += evalx.UpperBound(seen, truth)
		}
	}
	return sum / float64(len(r.truths))
}

// sampleUtility records the round's utility. The sweeps run on the
// simulator's deterministic parallel evaluation engine (Spec.Workers,
// per-(seed, round, user) negative streams), so the curve is
// independent of the worker count, of the attack and of how often it
// is sampled.
func (r *ciaRun) sampleUtility() {
	switch r.kind {
	case UtilityHR:
		r.utility = append(r.utility, r.sim.UtilityHR(r.hrK, r.numNeg))
	case UtilityF1:
		r.utility = append(r.utility, r.sim.UtilityF1(r.hrK))
	}
}

// flRun is a FedAvg federation under a server-side CIA adversary
// (Alg. 1), built by newFLRun and stepped with RunRound. Every FedAvg
// experiment with a server CIA runs through it.
type flRun struct {
	ciaRun
	fed *fed.Simulation
	cia *attack.CIA
	// refit re-fits the fictive users before the adversary scores
	// (Share-less, §IV-C); nil skips it.
	refit func(round int)
	// also observes every upload and round end after the adversary:
	// the MIA or AIA of an experiment comparing attacks on the same
	// uploads.
	also fed.Observer
}

// newFLRun builds a FedAvg run whose server adversary infers, at
// community size k, the communities of the target item sets. Nil
// targets are §VI-A's protocol: every user's training set is a target,
// k is Spec.K, and the accuracy against the true communities is
// recorded; a caller passing targets sets truths itself to record.
// Under Share-less the adversary re-fits every fictive user each round
// against the freshest global item embeddings, on a stream of its own.
// The caller steps the run and must Close it.
func newFLRun(o FLOpts, factory model.Factory, targets [][]int, k int) (*flRun, error) {
	if o.Policy == nil {
		o.Policy = defense.FullSharing{}
	}
	n := o.Data.NumUsers
	r := &flRun{ciaRun: ciaRun{kind: o.Utility, hrK: o.Spec.HRK, numNeg: o.Spec.NumNeg, rounds: o.Spec.Rounds, k: k, n: n, rec: evalx.NewRecorder()}}
	if targets == nil {
		targets = o.Data.Train
		r.k = o.Spec.K(n)
		r.truths = evalx.TrueCommunities(o.Data, r.k)
	}
	r.ev = newEval(factory, targets, o.Policy)
	// CIA scores on forks of ev, one per worker.
	r.cia = attack.New(attack.Config{Beta: o.Spec.Beta, K: r.k, NumUsers: n, Eval: r.ev, Workers: o.Spec.Workers})
	r.advs = []*attack.CIA{r.cia}
	if r.ev.ShareLess() {
		r.refitFrom(mathx.NewRand(o.Spec.Seed ^ 0x51ce))
	}
	// Pin the registry so newFed registers into the one result snapshots.
	o.Spec.Metrics = runRegistry(o.Spec)
	r.reg = o.Spec.Metrics
	sim, tr, err := newFed(o.Spec, fed.Config{
		Dataset:        o.Data,
		Factory:        factory,
		Policy:         o.Policy,
		ClientFraction: o.ClientFraction,
		DropoutProb:    o.DropoutProb,
		Observer:       r,
		OnRound:        func(int, *fed.Simulation) { r.sampleUtility() },
	})
	if err != nil {
		return nil, err
	}
	r.fed, r.sim, r.tr = sim, sim, tr
	return r, nil
}

// refitFrom makes the adversary re-fit every fictive user each round
// against the global model's item embeddings, drawing from rng.
func (r *flRun) refitFrom(rng *rand.Rand) {
	r.refit = func(int) { r.ev.RefreshFictive(r.fed.Global().Params(), fictiveEpochs, rng) }
}

func (r *flRun) OnUpload(msg fed.Message) {
	r.cia.Observe(msg.From, msg.Params)
	if r.also != nil {
		r.also.OnUpload(msg)
	}
}

func (r *flRun) OnRoundEnd(round int) {
	if r.refit != nil {
		r.refit(round)
	}
	r.cia.EndRound()
	r.record()
	if r.also != nil {
		r.also.OnRoundEnd(round)
	}
}

// glRun is a gossip network under CIA adversaries (Alg. 2), built by
// newGLRun and stepped with RunRound: one adversary per node targeting
// its own training set (§VI-B), or one coalition fed by every
// colluder's inbox and targeting every user (§VI-D).
type glRun struct {
	ciaRun
	gossip *gossip.Simulation
	// rng draws the coalition and the Share-less refits.
	rng *rand.Rand
	// colluders, sorted ascending, feed the coalition advs[0]; nil in
	// single-adversary mode, where advs[a] is node a's adversary.
	colluders []int
}

// newGLRun builds the gossip run o describes. The caller steps it and
// must Close it.
func newGLRun(o GLOpts) (*glRun, error) {
	if o.Policy == nil {
		o.Policy = defense.FullSharing{}
	}
	beta := o.Spec.Beta
	if o.MomentumOff {
		beta = 0
	}
	factory, err := MakeFactory(o.Family, o.Data, o.Spec)
	if err != nil {
		return nil, err
	}
	n := o.Data.NumUsers
	k := o.Spec.K(n)
	rounds := o.Spec.GLRounds
	if rounds == 0 {
		rounds = o.Spec.Rounds
	}
	r := &glRun{
		ciaRun: ciaRun{
			kind: o.Utility, hrK: o.Spec.HRK, numNeg: o.Spec.NumNeg, rounds: rounds, k: k, n: n,
			truths: evalx.TrueCommunities(o.Data, k),
			rec:    evalx.NewRecorder(),
			ev:     newEval(factory, o.Data.Train, o.Policy),
		},
		rng: mathx.NewRand(o.Spec.Seed ^ 0x90551b),
	}
	if o.ColluderFrac > 0 {
		nc := max(int(o.ColluderFrac*float64(n)), 1)
		r.colluders = mathx.SampleWithoutReplacement(r.rng, n, nc)
		slices.Sort(r.colluders)
		r.advs = []*attack.CIA{attack.New(attack.Config{
			Beta: beta, K: k, NumUsers: n, Eval: r.ev, Workers: o.Spec.Workers,
		})}
	} else {
		r.advs = make([]*attack.CIA, n)
		for a := range r.advs {
			r.advs[a] = attack.New(attack.Config{
				Beta: beta, K: k, NumUsers: n,
				Eval: &targetView{ev: r.ev, t: a},
			})
		}
	}
	tr, err := newTransport(o.Spec)
	if err != nil {
		return nil, err
	}
	sim, err := gossip.New(gossip.Config{
		Dataset:     o.Data,
		Factory:     factory,
		Policy:      o.Policy,
		Variant:     o.Variant,
		Rounds:      rounds,
		StaticGraph: o.StaticGraph,
		Train:       model.TrainOptions{Epochs: o.Spec.LocalEpochs},
		Workers:     o.Spec.Workers,
		Transport:   tr,
		FaultPlan:   effectivePlan(o.Spec),
		ChurnPlan:   o.Spec.ChurnPlan,
		Byzantine:   o.Spec.Byzantine,
		Tracer:      o.Spec.Trace,
		Observer:    r,
		OnRound:     func(int, *gossip.Simulation) { r.sampleUtility() },
		Seed:        o.Spec.Seed,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	r.reg = runRegistry(o.Spec)
	sim.RegisterMetrics(r.reg)
	r.gossip, r.sim, r.tr = sim, sim, tr
	return r, nil
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

func (r *glRun) OnReceive(msg gossip.Message) {
	if r.colluders == nil {
		r.advs[msg.To].Observe(msg.From, msg.Params)
		return
	}
	if _, ok := slices.BinarySearch(r.colluders, msg.To); ok {
		r.advs[0].Observe(msg.From, msg.Params)
	}
}

func (r *glRun) OnRoundEnd(int) {
	shareLess := r.ev.ShareLess()
	for a, cia := range r.advs {
		if shareLess && r.colluders != nil {
			// The coalition refreshes every target's e_A against the
			// lowest-id colluder's item embeddings.
			r.ev.RefreshFictive(r.gossip.Node(r.colluders[0]).Params(), fictiveEpochs, r.rng)
		} else if shareLess {
			r.ev.RefreshFictiveOne(a, r.gossip.Node(a).Params(), fictiveEpochs, r.rng)
		}
		cia.EndRound()
	}
	r.record()
}

// utilityFor maps a model family to its paper utility metric.
func utilityFor(family string) UtilityKind {
	if family == "prme" {
		return UtilityF1
	}
	return UtilityHR
}
