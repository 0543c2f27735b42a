// Package fed simulates Federated Recommender Systems (§III-B): the
// classic FedAvg loop in which selected clients download the global
// model, train locally on their private interactions, and upload their
// models to a central server that aggregates them.
//
// The simulator is single-process and round-synchronous, which is
// exactly the abstraction level of the paper's protocols. The
// honest-but-curious server adversary is modelled with an Observer
// that sees every upload (Alg. 1, line 6).
//
// User-embedding aggregation follows standard FedRec practice: the
// global table takes user u's row from client u's upload (only the
// owner ever trains that row; averaging it with N−1 stale copies would
// dilute it to nothing). All other shared entries aggregate as
// data-size-weighted deltas, i.e. classic FedAvg.
package fed

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/parx"
	"github.com/collablearn/ciarec/internal/transport"
)

// Message is one client upload as seen by the server (and therefore by
// a server-side adversary).
type Message struct {
	Round  int
	From   int
	Params *param.Set
}

// Observer receives the traffic a server-side adversary can see.
// msg.Params is only valid for the duration of the OnUpload call: the
// simulator recycles payload storage as soon as the upload is folded
// (or, under a robust aggregator, once the round is aggregated), so
// implementations must clone anything they retain.
// Calls are never concurrent and always arrive in the round's sampling
// order (ascending client index under full participation; the
// sampler's draw order under ClientFraction < 1) — identical for every
// Workers setting. OnUpload fires from the round's streaming-fold
// goroutine while later clients may still be training, strictly
// ordered before the same round's OnRoundEnd, which (like OnRound)
// comes from the goroutine running the simulation.
type Observer interface {
	// OnUpload is called for every client upload, before aggregation.
	OnUpload(msg Message)
	// OnRoundEnd is called after aggregation each round.
	OnRoundEnd(round int)
}

// Config parameterizes a federated simulation.
type Config struct {
	Dataset *dataset.Dataset
	Factory model.Factory
	// Policy defaults to defense.FullSharing.
	Policy defense.Policy

	// Rounds is the number of FedAvg rounds (required, > 0).
	Rounds int
	// ClientFraction is the fraction of clients sampled per round
	// (default 1: full participation, as in the paper's FL setting).
	ClientFraction float64
	// DropoutProb is the probability that a sampled client fails mid-
	// round (trains but never uploads — a crash or network partition).
	// The server aggregates whatever arrives; droppers keep their
	// private state. Used for failure-injection testing.
	DropoutProb float64
	// Train is the local-training option template; its Rand field is
	// ignored (each client owns a generator).
	Train model.TrainOptions

	// Workers bounds the number of goroutines running per-client local
	// training, the robust aggregators' coordinate reduce and the
	// UtilityHR/UtilityF1 sweeps concurrently. 0 defaults to
	// runtime.NumCPU(); negative forces serial execution. Results are
	// byte-identical whatever the worker count: every client owns its
	// RNG stream and private state, round-level randomness (sampling,
	// dropout) is drawn before dispatch, uploads are observed and folded
	// in the round's sampling order, and utility evaluation derives one
	// counter-based stream per (seed, round, user).
	Workers int

	// Transport carries all parameter traffic: the global-model
	// broadcast each sampled client downloads and the upload it sends
	// back, through the payload codec it was built with (dense float64
	// by default; transport.Options.Compression selects the sparse+
	// quantized CPQ1 codec). nil defaults to a fresh dense
	// transport.Inproc (pointer passing).
	// Pass transport.NewWire() to round-trip every transfer through the
	// binary wire codec, or a transport.NewOptions("socket", …) or
	// transport.DialOptions instance to push it through the framed RPC
	// protocol over a real socket (loopback or an external ciaworker
	// process) — results are byte-identical on every backend (the
	// replay harness, TestReplay, enforces it). The caller keeps
	// ownership: the simulation never closes the transport. Instances
	// accumulate per-simulation traffic stats, so do not share one
	// across simulations.
	Transport transport.Transport

	// FaultPlan is the declarative failure scenario the simulator
	// consults for protocol-level decisions the transport cannot make —
	// today, each sampled client's virtual latency for the straggler
	// deadline. Message loss itself flows through the transport: wrap it
	// in transport.NewFaulty with the same plan (or use the "faulty:"
	// backend prefix) and the simulator treats the injected transfer
	// errors as lost uploads, skipped clients and blackout rounds. nil
	// disables straggler modelling.
	FaultPlan *transport.FaultPlan
	// StragglerDeadline is the server's per-round upload deadline: a
	// sampled client whose virtual latency (FaultPlan.Latency) exceeds
	// it uploads too late — the adversary still observes the upload, but
	// aggregation excludes it (partial aggregation over the timely
	// survivors, reweighted by FedAvg's data-size weights). 0 disables
	// the deadline.
	StragglerDeadline time.Duration
	// Quorum is the minimum fraction of the round's sampled clients
	// whose uploads must arrive in time for aggregation to proceed;
	// below it the round keeps the previous global model (counted in
	// Resilience.QuorumMisses). 0 disables the check — any non-empty
	// set of arrivals aggregates, the pre-resilience behaviour.
	Quorum float64

	// ChurnPlan drives deterministic participant churn: each round,
	// present clients leave and absent ones (re)join as pure functions
	// of (plan seed, round, client), so membership can grow and shrink
	// mid-run without consuming any simulator RNG. An absent client's
	// state (its RNG, private rows and last-received snapshot) is
	// frozen; a rejoiner resumes from that stale snapshot — it
	// downloads the current global model like everyone else, but its
	// never-shared private rows are as old as its departure. nil (or a
	// disabled plan) is byte-identical to no churn at all.
	ChurnPlan *transport.ChurnPlan
	// Byzantine, when non-nil with Fraction > 0, turns a deterministic
	// subset of clients into active adversaries that corrupt every
	// upload they send (sign-flip, scaled noise or collusion echo; see
	// attack.Byzantine). Corruption happens after the defense policy
	// builds the outgoing payload — the adversary ignores the policy's
	// honesty, not its entry selection — and before the transport, so
	// the server-side Observer sees the corrupted traffic exactly as a
	// real adversary would send it.
	Byzantine *attack.Byzantine
	// Aggregator selects the server's aggregation rule (the zero value
	// is classic FedAvg; see Aggregator for the robust rules).
	Aggregator Aggregator
	// TrimFraction is AggTrimmedMean's per-end trim, in [0, 0.5).
	// 0 means the default, 0.1.
	TrimFraction float64
	// ClipNorm is AggNormClip's per-upload L2 bound (required > 0 when
	// that aggregator is selected).
	ClipNorm float64

	// Tracer optionally records phase spans (train/encode/send/
	// aggregate/broadcast/eval) for every round. nil disables tracing;
	// the simulation's outputs are byte-identical either way — the
	// tracer is write-only from the simulation's point of view (the
	// obsleak analyzer enforces it).
	Tracer *obs.Tracer

	// Observer optionally receives all uploads (the adversary hook).
	Observer Observer
	// OnRound is called after every round with the live simulation,
	// e.g. to record utility curves.
	OnRound func(round int, s *Simulation)

	Seed uint64
}

func (c *Config) validate() error {
	if c.Dataset == nil {
		return fmt.Errorf("fed: Config.Dataset is required")
	}
	if c.Factory == nil {
		return fmt.Errorf("fed: Config.Factory is required")
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("fed: Config.Rounds must be positive, got %d", c.Rounds)
	}
	if c.ClientFraction < 0 || c.ClientFraction > 1 {
		return fmt.Errorf("fed: Config.ClientFraction %v out of [0,1]", c.ClientFraction)
	}
	if c.DropoutProb < 0 || c.DropoutProb >= 1 {
		return fmt.Errorf("fed: Config.DropoutProb %v out of [0,1)", c.DropoutProb)
	}
	if c.Quorum < 0 || c.Quorum > 1 {
		return fmt.Errorf("fed: Config.Quorum %v out of [0,1]", c.Quorum)
	}
	if c.StragglerDeadline < 0 {
		return fmt.Errorf("fed: Config.StragglerDeadline %v is negative", c.StragglerDeadline)
	}
	switch c.Aggregator {
	case AggFedAvg, AggMedian, AggTrimmedMean, AggNormClip:
	default:
		return fmt.Errorf("fed: Config.Aggregator %d unknown", int(c.Aggregator))
	}
	if c.TrimFraction < 0 || c.TrimFraction >= 0.5 {
		return fmt.Errorf("fed: Config.TrimFraction %v out of [0, 0.5)", c.TrimFraction)
	}
	if c.Aggregator == AggNormClip && c.ClipNorm <= 0 {
		return fmt.Errorf("fed: Config.ClipNorm must be positive for the norm-clip aggregator, got %v", c.ClipNorm)
	}
	if c.FaultPlan != nil {
		if err := c.FaultPlan.Validate(); err != nil {
			return fmt.Errorf("fed: %w", err)
		}
	}
	if c.ChurnPlan != nil {
		if err := c.ChurnPlan.Validate(); err != nil {
			return fmt.Errorf("fed: %w", err)
		}
	}
	if c.Byzantine != nil {
		if err := c.Byzantine.Validate(); err != nil {
			return fmt.Errorf("fed: %w", err)
		}
	}
	return nil
}

// clientState is the per-client persistent state: its RNG and, under
// Share-less, its private (never-shared) user-embedding rows.
type clientState struct {
	rng *rand.Rand
	// privateRows maps private entry name → the client's own row.
	// Empty until first populated; absent entries mean "use global".
	privateRows map[string][]float64
}

// Simulation is a running federated system. Create with New, then call
// Run (or RunRound repeatedly).
type Simulation struct {
	cfg     Config
	global  model.Recommender
	scratch model.Recommender // reusable client/eval workspace (worker 0)
	clients []clientState
	rng     *rand.Rand
	round   int
	tr      transport.Transport

	privateEntries []string
	privateSet     map[string]struct{}

	workers   int
	scratches []model.Recommender // per-worker client workspaces
	snapshots []*param.Set        // per-worker pre-training snapshots (see clientRound)
	pool      param.Buffers       // payload free-list
	payloads  []*param.Set        // per-round payload hand-off to the folder, by sample index
	dropped   []bool              // per-round dropout decisions, by sample index
	fold      *folder             // the server's streaming aggregator, reused every round

	// Aggregation state: one accumulator region per entry (offsets into
	// aggBuf) and the robust reduce's reusable chunk work-list.
	aggBuf    []float64
	aggOff    []int
	aggChunks []aggChunk

	// Utility-evaluation state: the deterministic parallel engine plus,
	// per worker, the user whose private rows are currently installed in
	// that worker's scratch model (-1 = scratch needs a global re-sync).
	eval     *model.Eval
	evalPrev []int

	// Churn membership fold (nil when no ChurnPlan is active) and the
	// reusable present-id scratch.
	membership *transport.Membership
	presentIDs []int

	// Resilience accounting. deliverFailures, uploadFailures and
	// byzantineUploads are incremented from worker goroutines (atomic);
	// stragglers and clippedUploads only from the folder goroutine, and
	// the rest from the goroutine running the simulation — the folder
	// drains before RunRound returns, so reads between rounds are safe.
	deliverFailures  atomic.Int64
	uploadFailures   atomic.Int64
	byzantineUploads atomic.Int64
	stragglers       int64
	quorumMisses     int64
	blackoutRounds   int64
	clippedUploads   int64
}

// Resilience is the simulation's accumulated fault accounting.
type Resilience struct {
	// BlackoutRounds counts rounds whose global-model broadcast failed
	// outright: no client trained, the global model stood still.
	BlackoutRounds int64
	// DeliverFailures counts sampled clients that never received the
	// round's global model (they skip the round entirely).
	DeliverFailures int64
	// UploadFailures counts uploads lost in transit after training (the
	// server, and the adversary, never saw them).
	UploadFailures int64
	// Stragglers counts uploads that arrived past StragglerDeadline:
	// observed by the adversary, excluded from aggregation.
	Stragglers int64
	// QuorumMisses counts rounds whose timely arrivals fell below
	// Quorum, keeping the previous global model.
	QuorumMisses int64
	// Joins, Leaves and Rejoins are the ChurnPlan membership
	// transitions (a rejoin — a client returning after participating
	// before — is also counted as a join).
	Joins   int64
	Leaves  int64
	Rejoins int64
	// ByzantineUploads counts uploads corrupted by the Byzantine
	// adversary population before sending.
	ByzantineUploads int64
	// ClippedUploads counts uploads whose delta the norm-clip
	// aggregator scaled down to ClipNorm.
	ClippedUploads int64
}

// Resilience returns the accumulated fault accounting.
func (s *Simulation) Resilience() Resilience {
	r := Resilience{
		BlackoutRounds:   s.blackoutRounds,
		DeliverFailures:  s.deliverFailures.Load(),
		UploadFailures:   s.uploadFailures.Load(),
		ByzantineUploads: s.byzantineUploads.Load(),
		Stragglers:       s.stragglers,
		QuorumMisses:     s.quorumMisses,
		ClippedUploads:   s.clippedUploads,
	}
	if s.membership != nil {
		r.Joins = s.membership.Joins()
		r.Leaves = s.membership.Leaves()
		r.Rejoins = s.membership.Rejoins()
	}
	return r
}

// New builds a federated simulation from cfg.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = defense.FullSharing{}
	}
	if cfg.ClientFraction == 0 {
		cfg.ClientFraction = 1
	}
	if cfg.TrimFraction == 0 {
		cfg.TrimFraction = 0.1
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.NewInproc()
	}
	rng := mathx.NewRand(cfg.Seed)
	global := cfg.Factory(rng.Uint64())
	if global.NumUsers() != cfg.Dataset.NumUsers {
		return nil, fmt.Errorf("fed: model has %d users, dataset has %d",
			global.NumUsers(), cfg.Dataset.NumUsers)
	}
	if global.NumItems() != cfg.Dataset.NumItems {
		return nil, fmt.Errorf("fed: model has %d items, dataset has %d",
			global.NumItems(), cfg.Dataset.NumItems)
	}
	s := &Simulation{
		cfg:            cfg,
		global:         global,
		scratch:        global.Clone(),
		clients:        make([]clientState, cfg.Dataset.NumUsers),
		rng:            rng,
		tr:             cfg.Transport,
		privateEntries: global.PrivateEntries(),
		workers:        parx.Workers(cfg.Workers),
	}
	// A round never runs more concurrent clients than the dataset has
	// users, so don't build scratch models beyond that.
	if s.workers > cfg.Dataset.NumUsers {
		s.workers = cfg.Dataset.NumUsers
	}
	s.privateSet = make(map[string]struct{}, len(s.privateEntries))
	for _, n := range s.privateEntries {
		s.privateSet[n] = struct{}{}
	}
	// One accumulator region per entry: the fold sums shared entries'
	// deltas into theirs and stashes routed private rows in theirs.
	gp := global.Params()
	s.aggOff = make([]int, gp.Len())
	var total int
	for ei := 0; ei < gp.Len(); ei++ {
		s.aggOff[ei] = total
		total += len(gp.At(ei).Data)
	}
	s.aggBuf = make([]float64, total)
	s.fold = newFolder(s)
	s.scratches = []model.Recommender{s.scratch}
	for w := 1; w < s.workers; w++ {
		s.scratches = append(s.scratches, global.Clone())
	}
	// The same eval seed constant as the historical shared evalRng, now
	// feeding per-(round, user) counter-derived streams.
	s.eval = model.NewEval(cfg.Dataset, s.workers, cfg.Seed^0xabcdef)
	s.evalPrev = make([]int, len(s.scratches))
	s.snapshots = make([]*param.Set, len(s.scratches))
	for u := range s.clients {
		s.clients[u] = clientState{
			rng:         mathx.Split(rng),
			privateRows: make(map[string][]float64),
		}
	}
	// The membership fold consumes no simulator RNG, so building it (or
	// not) leaves every stream above untouched.
	if cfg.ChurnPlan != nil && cfg.ChurnPlan.Enabled() {
		s.membership = transport.NewMembership(*cfg.ChurnPlan, cfg.Dataset.NumUsers)
	}
	return s, nil
}

// Global returns the live global model (do not mutate).
func (s *Simulation) Global() model.Recommender { return s.global }

// Round returns the number of completed rounds.
func (s *Simulation) Round() int { return s.round }

// Run executes all configured rounds.
func (s *Simulation) Run() {
	for s.round < s.cfg.Rounds {
		s.RunRound()
	}
}

// RunRound executes a single FedAvg round: sample clients, local
// training (on the worker pool) streamed into the folder — which
// observes and aggregates each upload in sampling order as soon as it
// and every earlier one resolved — then callbacks.
//
// Determinism: the round RNG is consumed in exactly the same order as
// a serial round (sampling, then one dropout draw per sampled client),
// every client trains with its own RNG on its own state, and uploads
// are observed and aggregated in the round's sampling order — so the
// outcome is byte-identical for every Workers setting. Fault handling
// preserves this: transfer failures from a FaultPlan-driven transport
// are pure functions of (plan seed, round, participant), and straggler
// latencies are virtual, so a (seed, plan) pair pins the exact output
// on every backend.
//
// Failure taxonomy (all counted in Resilience):
//
//   - broadcast open fails → blackout round: nobody trains, the global
//     model stands still, callbacks still fire.
//   - a client's broadcast delivery fails → the client skips the round
//     (no training, no upload).
//   - a client's upload Send fails → the upload is lost in transit;
//     neither the server nor the adversary sees it.
//   - an upload arrives past StragglerDeadline → the adversary observes
//     it, aggregation excludes it.
//   - timely arrivals fall below Quorum → the round keeps the previous
//     global model (the observer still saw the arrivals).
func (s *Simulation) RunRound() {
	round := s.round
	if s.membership != nil {
		// Apply the round's churn transitions before sampling. Pure
		// plan functions — no simulator RNG consumed.
		s.membership.Advance(round)
	}
	n := s.cfg.Dataset.NumUsers
	sampled := s.sampleClients(n)

	// Pre-draw dropout decisions so the shared round RNG is not touched
	// from worker goroutines. Drawn before the broadcast so a blackout
	// round consumes the round RNG exactly like a normal round — the
	// continuation stays comparable to a fault-free run.
	s.dropped = s.dropped[:0]
	for range sampled {
		s.dropped = append(s.dropped, s.cfg.DropoutProb > 0 && mathx.Bernoulli(s.rng, s.cfg.DropoutProb))
	}

	// Local training, fanned out over the worker pool. Each worker owns
	// a scratch model; each client owns its RNG and private rows. All
	// parameter traffic — the global-model download and the upload back
	// — rides the transport: the broadcast is encoded once here, each
	// client decodes/installs it and sends its payload inside the
	// parallel region (transport stats are atomic sums, so totals do not
	// depend on worker interleaving), and the order-sensitive effects
	// (observation, aggregation) are applied by the folder goroutine in
	// sample order.
	s.payloads = s.payloads[:0]
	for range sampled {
		s.payloads = append(s.payloads, nil)
	}
	// Span ring convention: parallel workers record on their parx index
	// (0..workers-1), the sequential coordinator phases on ring
	// s.workers, the streaming folder goroutine on s.workers+1.
	encStart := s.cfg.Tracer.Start()
	bcast, err := s.tr.OpenBroadcast(round, s.global.Params())
	s.cfg.Tracer.Span(s.workers, obs.PhaseEncode, round, obs.RoundLevel, encStart)
	if err != nil {
		// Blackout round: the server could not stage the global model.
		s.blackoutRounds++
		s.finishRound(round)
		return
	}
	s.fold.start(round, sampled)
	parx.ForEach(s.workers, len(sampled), func(w, i int) {
		payload := s.clientRound(round, sampled[i], w, s.scratches[w], bcast)
		switch {
		case payload == nil:
			// Delivery failed: the client skipped the round.
		case s.dropped[i]:
			// Failure injection: the client crashed before uploading.
			// Its local training (and private state) already happened.
			s.pool.Put(payload)
		default:
			sendStart := s.cfg.Tracer.Start()
			sent, err := s.tr.Send(round, sampled[i], payload, &s.pool)
			s.cfg.Tracer.Span(w, obs.PhaseSend, round, sampled[i], sendStart)
			if err != nil {
				// Upload lost in transit (payload already recycled).
				s.uploadFailures.Add(1)
			} else {
				s.payloads[i] = sent
			}
		}
		s.fold.resolve(i)
	})
	bcast.Close()
	aggStart := s.cfg.Tracer.Start()
	s.fold.finish()
	s.cfg.Tracer.Span(s.workers, obs.PhaseAggregate, round, obs.RoundLevel, aggStart)
	s.finishRound(round)
}

// finishRound fires the end-of-round callbacks and advances the round
// counter (shared by normal and blackout rounds).
func (s *Simulation) finishRound(round int) {
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnRoundEnd(round)
	}
	s.round++
	if s.cfg.OnRound != nil {
		s.cfg.OnRound(round, s)
	}
}

// isStraggler reports whether client u's round upload misses the
// straggler deadline: its virtual latency under the fault plan exceeds
// StragglerDeadline. Pure, deterministic, backend-independent.
func (s *Simulation) isStraggler(round, u int) bool {
	if s.cfg.StragglerDeadline <= 0 || s.cfg.FaultPlan == nil {
		return false
	}
	return s.cfg.FaultPlan.Latency(round, u) > s.cfg.StragglerDeadline
}

func (s *Simulation) sampleClients(n int) []int {
	if s.membership != nil {
		// Churn: only present clients are eligible. Under full
		// participation no RNG is consumed (exactly like the static
		// path); under a fraction the sampler draws from the present
		// set in ascending-id order, so the draw sequence is a pure
		// function of (seed, membership) — backend- and worker-
		// independent.
		s.presentIDs = s.membership.AppendPresent(s.presentIDs[:0])
		present := s.presentIDs
		if s.cfg.ClientFraction >= 1 || len(present) == 0 {
			return present
		}
		k := int(s.cfg.ClientFraction * float64(len(present)))
		if k < 1 {
			k = 1
		}
		idx := mathx.SampleWithoutReplacement(s.rng, len(present), k)
		sampled := make([]int, len(idx))
		for i, j := range idx {
			sampled[i] = present[j]
		}
		return sampled
	}
	if s.cfg.ClientFraction >= 1 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	k := int(s.cfg.ClientFraction * float64(n))
	if k < 1 {
		k = 1
	}
	return mathx.SampleWithoutReplacement(s.rng, n, k)
}

// clientRound simulates client u's round on the given scratch model:
// install the broadcast global model (plus persistent private rows),
// train locally, build the outgoing payload via the policy. It touches
// only client u's state, the concurrency-safe payload pool and the
// (concurrency-safe, read-only) broadcast handle, so distinct clients
// may run concurrently on distinct scratch models. A failed delivery
// means the client never got this round's model: it returns nil
// without training (its RNG and private state untouched, so the
// failure is purely a skipped round).
func (s *Simulation) clientRound(round, u, w int, m model.Recommender, bcast transport.Broadcast) *param.Set {
	st := &s.clients[u]
	dlvStart := s.cfg.Tracer.Start()
	err := bcast.Deliver(u, m.Params())
	s.cfg.Tracer.Span(w, obs.PhaseBroadcast, round, u, dlvStart)
	if err != nil {
		s.deliverFailures.Add(1)
		return nil
	}
	s.installPrivateRows(m, u)

	// The pre-training snapshot is the model the client just installed:
	// the Share-less drift reference, the DP-SGD/sparsification delta
	// baseline and a Byzantine adversary's echo reference. Only those
	// read it, and never past this call, so it lives in a per-worker
	// buffer and is skipped when nothing reads it.
	var prev *param.Set
	byz := s.cfg.Byzantine != nil && s.cfg.Byzantine.IsAdversary(u)
	if byz || s.cfg.Policy.ReadsSnapshot() {
		s.snapshots[w] = m.Params().CloneInto(s.snapshots[w])
		prev = s.snapshots[w]
	}
	opt := s.cfg.Train
	opt.Rand = st.rng
	s.cfg.Policy.PrepareTrain(&opt, m, prev)
	trainStart := s.cfg.Tracer.Start()
	m.TrainLocal(s.cfg.Dataset, u, opt)
	s.cfg.Tracer.Span(w, obs.PhaseTrain, round, u, trainStart)

	s.capturePrivateRows(m, u)
	payload := s.cfg.Policy.Outgoing(m, prev, st.rng, &s.pool)
	if byz {
		// Active adversary: corrupt the outgoing payload in place,
		// reflecting around / echoing the model this client received.
		// Deterministic (counter-based streams only) and applied before
		// the transport, so the Observer sees the corrupted upload.
		s.cfg.Byzantine.Corrupt(round, u, payload, prev)
		s.byzantineUploads.Add(1)
	}
	return payload
}

// installPrivateRows copies the client's persisted private rows into
// the working model (no-op until they have been captured once).
func (s *Simulation) installPrivateRows(m model.Recommender, u int) {
	st := &s.clients[u]
	for _, name := range s.privateEntries {
		row, ok := st.privateRows[name]
		if !ok {
			continue
		}
		e := m.Params().Entry(name)
		copy(e.Data[u*e.Cols:(u+1)*e.Cols], row)
	}
}

// capturePrivateRows persists the client's own private rows after
// training so they survive across rounds even when never shared.
func (s *Simulation) capturePrivateRows(m model.Recommender, u int) {
	st := &s.clients[u]
	for _, name := range s.privateEntries {
		e := m.Params().Entry(name)
		row := st.privateRows[name]
		if row == nil {
			row = make([]float64, e.Cols)
			st.privateRows[name] = row
		}
		copy(row, e.Data[u*e.Cols:(u+1)*e.Cols])
	}
}

// routedRow marks a private user-table row captured from a streamed
// upload. Row routing must wait until the round's quorum is known, so
// row u of entry ei is stashed at row u of that entry's accumulator
// region (only client u's upload routes to row u, and each client
// uploads at most once a round) while the rest of the payload is
// folded and recycled.
type routedRow struct{ ei, u int }

// folder is the server's streaming aggregator (Alg. 1's observe-then-
// aggregate step). Workers signal each sample index once its upload
// resolved (arrived, dropped, lost or skipped); the folder's goroutine
// advances a cursor through the sampling order, and for every arrival
// in turn observes it, excludes it if it straggled, and folds its
// weighted delta into the accumulator (raw data-size weights — the
// 1/totalW normalization is applied once at the end, when totalW is
// known) before recycling the payload. Live payloads are bounded by
// the out-of-order window between the cursor and the fastest worker,
// and observation overlaps training. The global model is only read
// during the round (concurrently with broadcast deliveries — also
// reads) and only written in finish, after the parallel region and the
// broadcast close.
//
// The robust rules (median, trimmed mean) need every upload's column
// at once, so they stage the payloads instead (still consumed in
// sampling order) and finish runs aggregateRobust over them. Norm-clip
// streams like FedAvg, scaling each fold by its clip factor — the
// global model is stable for the whole round, so the factor is
// computable on arrival.
//
// Determinism: the fold order is the sampling order whatever the
// worker interleaving, and every float operation sequence is fixed, so
// a run is byte-identical across Workers settings and backends.
//
// One folder serves every round of a Simulation: its channel, flags
// and routing list are sized for a full-participation round up front.
type folder struct {
	s       *Simulation
	round   int
	sampled []int
	ch      chan int      // resolved sample indices; NumUsers bounds a round's sends, so resolve never blocks
	done    chan struct{} // the fold goroutine's drain signal
	ready   []bool        // by sample index: resolved, not yet consumed
	touched []bool        // per entry: accumulator region zeroed and folded into
	timely  int
	totalW  float64
	routed  []routedRow
	stage   []upload // robust rules only: the timely uploads, in order
}

func newFolder(s *Simulation) *folder {
	n := s.cfg.Dataset.NumUsers
	return &folder{
		s:       s,
		ch:      make(chan int, n),
		done:    make(chan struct{}),
		ready:   make([]bool, n),
		touched: make([]bool, s.global.Params().Len()),
		routed:  make([]routedRow, 0, n*len(s.privateEntries)),
	}
}

// start resets the per-round state and launches the round's fold
// goroutine.
func (f *folder) start(round int, sampled []int) {
	f.round, f.sampled = round, sampled
	clear(f.ready)
	clear(f.touched)
	f.timely, f.totalW = 0, 0
	f.routed = f.routed[:0]
	go f.run()
}

// resolve signals that sample index i's outcome is final (s.payloads[i]
// holds the arrival, or nil). Called once per index, from workers; the
// channel send publishes the payload write to the folder goroutine.
func (f *folder) resolve(i int) { f.ch <- i }

func (f *folder) run() {
	next := 0
	for n := len(f.sampled); next < n; {
		f.ready[<-f.ch] = true
		for next < n && f.ready[next] {
			f.consume(next)
			next++
		}
	}
	f.done <- struct{}{}
}

// consume processes one resolved sample index in cursor order:
// observation, straggler exclusion, then staging (robust rules) or
// private-row capture plus accumulator fold and recycle.
func (f *folder) consume(i int) {
	s := f.s
	payload := s.payloads[i]
	s.payloads[i] = nil
	if payload == nil {
		return // dropped, skipped or lost before arrival
	}
	u := f.sampled[i]
	foldStart := s.cfg.Tracer.Start()
	defer s.cfg.Tracer.Span(s.workers+1, obs.PhaseAggregate, f.round, u, foldStart)
	if s.cfg.Observer != nil {
		s.cfg.Observer.OnUpload(Message{Round: f.round, From: u, Params: payload})
	}
	if s.isStraggler(f.round, u) {
		// Too late for aggregation; the adversary saw it anyway.
		s.stragglers++
		s.pool.Put(payload)
		return
	}
	w := float64(len(s.cfg.Dataset.Train[u]))
	f.timely++
	f.totalW += w
	if s.cfg.Aggregator.robust() {
		// Stage for the order-statistic reduce; finish recycles.
		f.stage = append(f.stage, upload{from: u, payload: payload})
		return
	}
	factor := 1.0
	if s.cfg.Aggregator == AggNormClip {
		var clipped bool
		factor, clipped = s.clipFactor(payload)
		if clipped {
			s.clippedUploads++
		}
	}
	gp := s.global.Params()
	for ei := 0; ei < gp.Len(); ei++ {
		ge := gp.At(ei)
		if !payload.Has(ge.Name) {
			continue
		}
		acc := s.aggBuf[s.aggOff[ei] : s.aggOff[ei]+len(ge.Data)]
		if _, isUserTable := s.privateSet[ge.Name]; isUserTable {
			pe := payload.Entry(ge.Name)
			copy(acc[u*ge.Cols:(u+1)*ge.Cols], pe.Data[u*pe.Cols:(u+1)*pe.Cols])
			f.routed = append(f.routed, routedRow{ei: ei, u: u})
			continue
		}
		if !f.touched[ei] {
			mathx.Zero(acc)
			f.touched[ei] = true
		}
		mathx.AxpyDiff(w*factor, payload.Get(ge.Name), ge.Data, acc)
	}
	s.pool.Put(payload)
}

// finish waits for the fold goroutine to drain, then applies the
// round's aggregate to the global model — unless the timely arrivals
// missed quorum, in which case the accumulator, the stashed private
// rows and any staged uploads are discarded and the previous global
// model stands.
func (f *folder) finish() {
	<-f.done
	s := f.s
	switch {
	case s.cfg.Quorum > 0 && f.timely < int(math.Ceil(s.cfg.Quorum*float64(len(f.sampled)))):
		s.quorumMisses++
	case f.timely == 0:
	case s.cfg.Aggregator.robust():
		s.aggregateRobust(f.stage)
	default:
		f.apply()
	}
	for i := range f.stage {
		s.pool.Put(f.stage[i].payload)
		f.stage[i].payload = nil
	}
	f.stage = f.stage[:0]
}

// apply installs the routed private rows and adds the normalized
// accumulated deltas to the global model.
func (f *folder) apply() {
	s := f.s
	totalW := f.totalW
	if totalW == 0 {
		totalW = 1
	}
	gp := s.global.Params()
	for _, r := range f.routed {
		ge := gp.At(r.ei)
		lo := r.u * ge.Cols
		copy(ge.Data[lo:lo+ge.Cols], s.aggBuf[s.aggOff[r.ei]+lo:s.aggOff[r.ei]+lo+ge.Cols])
	}
	for ei, touched := range f.touched {
		if !touched {
			continue
		}
		ge := gp.At(ei)
		mathx.Axpy(1/totalW, s.aggBuf[s.aggOff[ei]:s.aggOff[ei]+len(ge.Data)], ge.Data)
	}
}

// UtilityHR computes the mean leave-one-out hit ratio across users,
// honouring Share-less privacy: each user is evaluated with the global
// model plus their own private rows. The sweep fans out over the worker
// pool with one negative-sampling stream per (seed, round, user), so
// the value is byte-identical for every Workers setting and depends
// only on the seed, the current round and the model — never on how
// often (or whether) earlier rounds were evaluated.
func (s *Simulation) UtilityHR(k, numNeg int) float64 {
	s.beginUtilitySweep()
	evalStart := s.cfg.Tracer.Start()
	hr := s.eval.HR(s.round, s.evalModel, k, numNeg)
	s.cfg.Tracer.Span(s.workers, obs.PhaseEval, s.round, obs.RoundLevel, evalStart)
	return hr
}

// UtilityF1 computes the mean top-k F1 across users, honouring
// Share-less privacy like UtilityHR.
func (s *Simulation) UtilityF1(k int) float64 {
	s.beginUtilitySweep()
	evalStart := s.cfg.Tracer.Start()
	f1 := s.eval.F1(s.evalModel, k)
	s.cfg.Tracer.Span(s.workers, obs.PhaseEval, s.round, obs.RoundLevel, evalStart)
	return f1
}

// beginUtilitySweep marks every worker scratch as stale: training
// rounds reuse the same scratch models, so each worker's first
// evaluated user triggers a full re-sync from the global parameters.
func (s *Simulation) beginUtilitySweep() {
	for w := range s.evalPrev {
		s.evalPrev[w] = -1
	}
}

// evalModel prepares worker w's scratch as the model user u would serve
// recommendations with: the global model overlaid with u's private
// rows. After the first user, only the previous user's private rows are
// restored from the global table instead of re-copying every parameter
// — evaluation never mutates parameters, so the scratch stays a faithful
// copy of the global model elsewhere.
func (s *Simulation) evalModel(w, u int) model.Recommender {
	m := s.scratches[w]
	if s.evalPrev[w] < 0 {
		m.Params().CopyFrom(s.global.Params())
	} else {
		s.restoreGlobalRows(m, s.evalPrev[w])
	}
	s.evalPrev[w] = u
	s.installPrivateRows(m, u)
	return m
}

// restoreGlobalRows undoes installPrivateRows for user u by copying the
// global table's rows back into the scratch model.
func (s *Simulation) restoreGlobalRows(m model.Recommender, u int) {
	for _, name := range s.privateEntries {
		ge := s.global.Params().Entry(name)
		e := m.Params().Entry(name)
		copy(e.Data[u*e.Cols:(u+1)*e.Cols], ge.Data[u*ge.Cols:(u+1)*ge.Cols])
	}
}
