// Package gossip simulates Gossip-Learning recommender systems
// (§III-C): every user keeps a local model and exchanges it with
// neighbours over a dynamic directed communication graph.
//
// Two protocol variants from the paper are implemented:
//
//   - Rand-Gossip (Hegedűs et al.): uniform random peer sampling;
//   - Pers-Gossip (Pepper, Belal et al.): performance-aware peer
//     sampling with an exploration ratio.
//
// The simulation is round-based: at each round every awake node pushes
// its (policy-filtered) model to one sampled out-neighbour; nodes then
// aggregate their inbox with uniform weights and run local training
// steps — the (1) cast, (2) aggregate, (3) train sequence of §III-C.
// An Observer (the adversary of Alg. 2) sees every delivered message in
// sender order on one goroutine that runs alongside (2) and (3), so
// watching the traffic adds little to the round's wall-clock.
// Views are P-out-regular and refresh at Exp(rate)-distributed
// intervals through a random peer-sampling service, matching the
// paper's experimental setup (P = 3, p ~ Exp(0.1)).
package gossip

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/parx"
	"github.com/collablearn/ciarec/internal/simcore"
	"github.com/collablearn/ciarec/internal/transport"
)

// Variant selects the peer-sampling behaviour.
type Variant int

const (
	// RandGossip samples views uniformly at random.
	RandGossip Variant = iota + 1
	// PersGossip biases views towards peers whose models perform well
	// on the local data, with an exploration ratio.
	PersGossip
)

func (v Variant) String() string {
	switch v {
	case RandGossip:
		return "rand-gossip"
	case PersGossip:
		return "pers-gossip"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Message is one model transfer as seen by the receiving node (and
// therefore by an adversary controlling that node).
type Message struct {
	Round    int
	From, To int
	Params   *param.Set
}

// Observer receives every delivered message; adversary implementations
// filter on To (the node(s) they control).
//
// OnReceive calls come from a single goroutine, in ascending sender
// order within a round, and run while the nodes aggregate their inboxes
// and train. OnReceive must therefore not read any node's model
// (Simulation.Node); the message is all it may look at. msg.Params is
// read-only and stays valid until OnRoundEnd returns: the simulator
// recycles payload storage afterwards, so implementations must clone
// anything they retain past the round. OnRoundEnd is called once per
// round after the last OnReceive has returned and every node has
// trained, from the goroutine that called RunRound; it may read node
// models.
type Observer interface {
	OnReceive(msg Message)
	OnRoundEnd(round int)
}

// Config parameterizes a gossip simulation. The fields both
// simulators take (Dataset, Factory, Policy, Rounds, Workers,
// Transport, FaultPlan, ChurnPlan, Byzantine, Tracer, Seed) are
// documented on simcore.Config; the comments here add what gossip
// makes of them.
type Config struct {
	Dataset *dataset.Dataset
	Factory model.Factory
	Policy  defense.Policy
	// Variant defaults to RandGossip.
	Variant Variant

	Rounds int
	// OutDegree is P, the out-view size (default 3, as in the paper).
	OutDegree int
	// ViewRefreshRate is the rate of the exponential law governing
	// per-node view refresh intervals (default 0.1 ⇒ mean 10 rounds).
	ViewRefreshRate float64
	// ExplorationRatio is the Pers-Gossip exploration probability
	// (default 0.4, as in the paper).
	ExplorationRatio float64
	// WakeProb is the per-round probability that a node wakes and
	// pushes its model (default 1).
	WakeProb float64
	// StaticGraph disables view refreshing entirely — the ablation for
	// the claim that gossip's privacy stems from its dynamics.
	StaticGraph bool
	// FaultPlan decides whether a push's chosen receiver is unreachable
	// this round: the push is skipped and the sender's view is left
	// intact, so an outage never corrupts the peer-sampling state.
	// Transport send errors count as lost pushes.
	FaultPlan *transport.FaultPlan

	// ChurnPlan freezes an absent node completely: no view refresh, no
	// wake, no training, no receiving (senders skip absent receivers,
	// counted in Resilience.AbsentSkips). A rejoiner resumes from that
	// stale state under the staleness-bounded merge rule: if it missed
	// more than ChurnPlan.StaleBound rounds and receives at least one
	// push that round, its own model is too stale to vote — the inbox
	// average replaces it outright (counted in Resilience.StaleResets)
	// instead of diluting fresh neighbour state with stale parameters.
	// Within the bound it merges normally (uniform {own} ∪ inbox
	// average).
	ChurnPlan *transport.ChurnPlan
	// Byzantine nodes corrupt every push they send (the collusion echo
	// resends the node's post-aggregation state, carrying no local
	// training signal).
	Byzantine *attack.Byzantine

	// Train is the local-training option template; Rand is ignored.
	Train model.TrainOptions

	// Transport carries the node→neighbour model pushes. A compressing
	// transport codes them absolute, as gossip has no broadcast to delta
	// against.
	Transport transport.Transport

	// Workers bounds the payload construction, inbox aggregation and
	// local training of the nodes. Message delivery happens sequentially
	// in sender order between the parallel phases, and observer
	// callbacks run in sender order on one goroutine alongside
	// aggregation and training (they read only the read-only payloads).
	Workers int

	// Tracer records encode/send/aggregate/train/eval spans.
	Tracer *obs.Tracer

	Observer Observer
	OnRound  func(round int, s *Simulation)

	Seed uint64
}

// validate checks the fields only gossip has, on their defaulted values
// (simcore.New checks the shared ones first).
func (c *Config) validate() error {
	if c.OutDegree < 0 || c.OutDegree >= c.Dataset.NumUsers {
		return fmt.Errorf("gossip: Config.OutDegree %d out of [0, numUsers)", c.OutDegree)
	}
	if c.WakeProb < 0 || c.WakeProb > 1 {
		return fmt.Errorf("gossip: Config.WakeProb %v out of [0,1]", c.WakeProb)
	}
	if c.ExplorationRatio < 0 || c.ExplorationRatio > 1 {
		return fmt.Errorf("gossip: Config.ExplorationRatio %v out of [0,1]", c.ExplorationRatio)
	}
	return nil
}

// node is one gossip participant.
type node struct {
	m           model.Recommender
	rng         *rand.Rand
	view        []int
	nextRefresh int
	inbox       []Message
	// preTrain snapshots the node's parameters after aggregation and
	// before local training: the GL drift reference e_{j,u}^{t-1}, the
	// DP delta baseline and a Byzantine adversary's echo reference. It
	// stays nil for a node nothing reads it for (see New).
	preTrain *param.Set
	// probe is a fixed random item sample used by Pers-Gossip to
	// baseline candidate-model relevance (lazily initialized).
	probe []int
}

// Simulation is a running gossip system. Create with New, then call
// Run (or RunRound repeatedly).
type Simulation struct {
	cfg   Config
	nodes []node
	rng   *rand.Rand
	round int
	// core is the shared frame: defaults, workers, eval engine, churn
	// membership, payload pool and the resilience counters.
	core   *simcore.Core
	pushes []push // per-round staging, indexed by sender
}

// Resilience is the simulation's accumulated fault accounting: one
// field per gossip counter of simcore.Counters, which documents each,
// in table order. The registry reads the counters themselves; this
// struct stays for the benchmark module's readers until ROADMAP item 3
// removes them.
type Resilience struct {
	LostPushes, SkippedPeers, AbsentSkips, Joins, Leaves, Rejoins int64
	StaleResets, ByzantinePushes                                  int64
}

// Resilience returns the accumulated fault accounting.
func (s *Simulation) Resilience() Resilience {
	c := s.core.Counts()
	return Resilience{
		LostPushes:      c[simcore.LostPushes],
		SkippedPeers:    c[simcore.SkippedPeers],
		AbsentSkips:     c[simcore.AbsentSkips],
		Joins:           c[simcore.Joins],
		Leaves:          c[simcore.Leaves],
		Rejoins:         c[simcore.Rejoins],
		StaleResets:     c[simcore.StaleResets],
		ByzantinePushes: c[simcore.ByzantinePushes],
	}
}

// RegisterMetrics installs live views of the simulation's counters
// into reg (see simcore.Core.RegisterMetrics). No-op on a nil registry.
func (s *Simulation) RegisterMetrics(reg *obs.Registry) { s.core.RegisterMetrics(reg) }

// push is one node's (possibly absent) outgoing transfer for the
// current round, computed in parallel and delivered sequentially.
type push struct {
	to      int // -1 when the node stays silent or the message is lost
	payload *param.Set
}

// New builds a gossip simulation from cfg, in the order the simcore
// package doc states: shared fields, then gossip's own. Gossip's
// defaults apply before its checks, so that e.g. a 3-node network is
// rejected (the default out-degree P = 3 requires at least P+1 nodes)
// instead of panicking later.
func New(cfg Config) (*Simulation, error) {
	core, err := simcore.New(simcore.Gossip, simcore.Config{
		Dataset: cfg.Dataset, Factory: cfg.Factory, Policy: cfg.Policy, Rounds: cfg.Rounds,
		Workers: cfg.Workers, Transport: cfg.Transport, FaultPlan: cfg.FaultPlan,
		ChurnPlan: cfg.ChurnPlan, Byzantine: cfg.Byzantine, Tracer: cfg.Tracer, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg.Policy, cfg.Transport = core.Policy, core.Transport
	if cfg.Variant == 0 {
		cfg.Variant = RandGossip
	}
	if cfg.OutDegree == 0 {
		cfg.OutDegree = 3
	}
	if cfg.ViewRefreshRate == 0 {
		cfg.ViewRefreshRate = 0.1
	}
	if cfg.ExplorationRatio == 0 {
		cfg.ExplorationRatio = 0.4
	}
	if cfg.WakeProb == 0 {
		cfg.WakeProb = 1
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := mathx.NewRand(cfg.Seed)
	n := cfg.Dataset.NumUsers
	s := &Simulation{
		cfg:    cfg,
		nodes:  make([]node, n),
		rng:    rng,
		core:   core,
		pushes: make([]push, n),
	}
	for u := 0; u < n; u++ {
		m := cfg.Factory(rng.Uint64())
		if m.NumUsers() != n || m.NumItems() != cfg.Dataset.NumItems {
			return nil, fmt.Errorf("gossip: model shape %d/%d mismatches dataset %d/%d",
				m.NumUsers(), m.NumItems(), n, cfg.Dataset.NumItems)
		}
		s.nodes[u] = node{m: m, rng: mathx.Split(rng)}
		if core.NeedsSnapshot(u) {
			s.nodes[u].preTrain = m.Params().Clone()
		}
	}
	for u := range s.nodes {
		s.refreshView(u)
		s.scheduleRefresh(u)
	}
	return s, nil
}

// Node returns node u's live model (do not mutate).
func (s *Simulation) Node(u int) model.Recommender { return s.nodes[u].m }

// View returns a copy of node u's current out-view.
func (s *Simulation) View(u int) []int {
	return append([]int(nil), s.nodes[u].view...)
}

// Round returns the number of completed rounds.
func (s *Simulation) Round() int { return s.round }

// Run executes all configured rounds.
func (s *Simulation) Run() {
	for s.round < s.cfg.Rounds {
		s.RunRound()
	}
}

// RunRound executes one gossip round.
//
// Per-node work (payload construction, inbox aggregation, local
// training) fans out over the worker pool; message delivery runs
// sequentially in sender order between the parallel phases. The
// observer's OnReceive calls run in sender order on one goroutine
// while the nodes aggregate and train; the round joins that goroutine
// before OnRoundEnd and recycles the payloads after it. Every
// node owns its RNG, so the round is byte-identical for every Workers
// setting.
func (s *Simulation) RunRound() {
	round := s.round
	// Apply the round's churn transitions first: the rest of the round
	// consults a fixed membership.
	s.core.Advance(round)

	// View maintenance via the peer-sampling service. This phase stays
	// sequential: Pers-Gossip scores candidate peers by calling
	// Relevance on *other* nodes' live models, and some model families
	// (NeuMF) run their forward pass through model-owned scratch, so
	// two concurrent refreshes scoring the same candidate would race.
	// Refreshes are Exp(rate)-sparse (~n/10 per round at the paper's
	// rate), so this costs little next to the training phases. Absent
	// nodes are frozen — an overdue refresh waits until they rejoin.
	if !s.cfg.StaticGraph {
		for u := range s.nodes {
			if !s.core.Present(u) {
				continue
			}
			if s.nodes[u].nextRefresh <= round {
				s.refreshView(u)
				s.scheduleRefresh(u)
			}
		}
	}

	// Phase 1a: awake nodes build their outgoing payload and put it on
	// the transport (parallel; wake, peer choice and policy noise draws
	// all come from the sender's own RNG, in the same order as a serial
	// round; transport stats are atomic sums, independent of worker
	// interleaving). Transit loss is the transport's: a Faulty wrapper's
	// failed Send counts as a lost push.
	parx.ForEach(s.core.Workers, len(s.nodes), func(w, u int) {
		nd := &s.nodes[u]
		s.pushes[u] = push{to: -1}
		if !s.core.Present(u) {
			// Absent under churn: frozen before any RNG draw, so the
			// node's stream resumes exactly where it paused.
			return
		}
		if len(nd.view) == 0 || !mathx.Bernoulli(nd.rng, s.cfg.WakeProb) {
			return
		}
		to := nd.view[nd.rng.IntN(len(nd.view))]
		encStart := s.cfg.Tracer.Start()
		payload := s.cfg.Policy.Outgoing(nd.m, nd.preTrain, nd.rng, &s.core.Pool)
		s.cfg.Tracer.Span(w, obs.PhaseEncode, round, u, encStart)
		// Plan- and transport-level faults, churn checks and Byzantine
		// corruption consume no RNG beyond their own counter-based
		// streams, so a fault-free run's draw order is untouched by
		// these code paths.
		if s.cfg.FaultPlan != nil && s.cfg.FaultPlan.Unreachable(round, to) {
			// Receiver down this round: skip the push, keep the view.
			s.core.Add(simcore.SkippedPeers)
			s.core.Pool.Put(payload)
			return
		}
		if !s.core.Present(to) {
			// Receiver left under churn: skip the push, keep the view
			// (the peer may rejoin).
			s.core.Add(simcore.AbsentSkips)
			s.core.Pool.Put(payload)
			return
		}
		s.core.Corrupt(round, u, payload, nd.preTrain)
		sendStart := s.cfg.Tracer.Start()
		sent, err := s.cfg.Transport.Send(round, u, payload, &s.core.Pool)
		s.cfg.Tracer.Span(w, obs.PhaseSend, round, u, sendStart)
		if err != nil {
			s.core.Add(simcore.LostPushes)
			return // push lost in transit (payload already recycled)
		}
		s.pushes[u] = push{to: to, payload: sent}
	})

	// Phase 1b: deliver in sender order (sequential — inbox append
	// order is part of the observable protocol).
	for u, p := range s.pushes {
		if p.to >= 0 {
			s.nodes[p.to].inbox = append(s.nodes[p.to].inbox, Message{Round: round, From: u, To: p.to, Params: p.payload})
		}
	}

	// The observer sees the same messages in the same sender order on
	// its own goroutine, overlapped with phases 2 and 3: it only reads
	// the payloads, which nodes also only read until the join below.
	var observed chan struct{}
	if s.cfg.Observer != nil {
		observed = make(chan struct{})
		go func() {
			defer close(observed)
			for u, p := range s.pushes {
				if p.to >= 0 {
					s.cfg.Observer.OnReceive(Message{Round: round, From: u, To: p.to, Params: p.payload})
				}
			}
		}()
	}

	// Phase 2: aggregate inboxes; Phase 3: local training. Each node
	// touches only its own model, inbox and RNG.
	parx.ForEach(s.core.Workers, len(s.nodes), func(w, u int) {
		nd := &s.nodes[u]
		if !s.core.Present(u) {
			// Absent under churn: no aggregation, no training — the
			// node's model and RNG stay frozen until it rejoins. Its
			// inbox is necessarily empty (senders skip absent peers).
			return
		}
		if len(nd.inbox) > 0 {
			aggStart := s.cfg.Tracer.Start()
			dropOwn := false
			if m := s.core.Membership; m != nil && s.cfg.ChurnPlan.StaleBound > 0 {
				if stale := m.RejoinStaleness(u); stale > s.cfg.ChurnPlan.StaleBound {
					// Staleness-bounded merge: the rejoiner missed more
					// rounds than the bound allows, so its own model is
					// outvoted entirely by the fresh inbox.
					dropOwn = true
					s.core.Add(simcore.StaleResets)
				}
			}
			s.aggregateInbox(nd, dropOwn)
			clear(nd.inbox)
			nd.inbox = nd.inbox[:0]
			s.cfg.Tracer.Span(w, obs.PhaseAggregate, round, u, aggStart)
		}
		if nd.preTrain != nil {
			nd.preTrain = nd.m.Params().CloneInto(nd.preTrain)
		}
		opt := s.cfg.Train
		opt.Rand = nd.rng
		s.cfg.Policy.PrepareTrain(&opt, nd.m, nd.preTrain)
		trainStart := s.cfg.Tracer.Start()
		nd.m.TrainLocal(s.cfg.Dataset, u, opt)
		s.cfg.Tracer.Span(w, obs.PhaseTrain, round, u, trainStart)
	})

	// Join the observer before its round end; payloads stay valid
	// until that returns, then go back to the pool.
	if observed != nil {
		<-observed
		s.cfg.Observer.OnRoundEnd(round)
	}
	for u, p := range s.pushes {
		if p.to >= 0 {
			s.core.Pool.Put(p.payload)
		}
		s.pushes[u] = push{to: -1}
	}
	s.round++
	if s.cfg.OnRound != nil {
		s.cfg.OnRound(round, s)
	}
}

// aggregateInbox merges received payloads into the node's model with
// uniform weights over {own model} ∪ inbox, entry by entry. Entries
// absent from a payload (Share-less user embeddings) keep the node's
// own values — decentralized learning never averages what it never
// receives. dropOwn is the staleness-bounded merge rule for rejoiners
// past ChurnPlan.StaleBound: the node's own entry is excluded from the
// average wherever at least one neighbour sent that entry (entries
// nobody sent keep the stale values — there is nothing fresher).
func (s *Simulation) aggregateInbox(nd *node, dropOwn bool) {
	own := nd.m.Params()
	var buf [8][]float64
	for i := 0; i < own.Len(); i++ {
		oe := own.At(i)
		srcs := buf[:0]
		for _, msg := range nd.inbox {
			if msg.Params.Has(oe.Name) {
				srcs = append(srcs, msg.Params.Get(oe.Name))
			}
		}
		mergeEntry(oe.Data, srcs, dropOwn)
	}
}

// mergeEntry overwrites own with the uniform average of own (left out
// when dropOwn) and srcs. Each coordinate sums own, then srcs in inbox
// order, and is multiplied by 1/count: the additions and the product
// of one Axpy pass per source followed by one Scale pass, so the
// result is bit-identical to them. It takes two sources per pass and
// folds the scaling into the last one; partial sums stored in own are
// exact, so the chunking changes no rounding. With no source own keeps
// its values; under dropOwn a single source is copied.
func mergeEntry(own []float64, srcs [][]float64, dropOwn bool) {
	if len(srcs) == 0 {
		return
	}
	for _, src := range srcs {
		if len(src) != len(own) {
			panic(fmt.Sprintf("gossip: merge length mismatch %d != %d", len(src), len(own)))
		}
	}
	acc, rest, n := own, srcs, len(srcs)+1
	if dropOwn {
		acc, rest, n = srcs[0], srcs[1:], len(srcs)
	}
	if n == 1 {
		copy(own, acc)
		return
	}
	acc = acc[:len(own)]
	for len(rest) > 2 {
		r0, r1 := rest[0][:len(own)], rest[1][:len(own)]
		for j := range own {
			own[j] = acc[j] + r0[j] + r1[j]
		}
		acc, rest = own, rest[2:]
	}
	inv := 1 / float64(n)
	r0 := rest[0][:len(own)]
	if len(rest) == 1 {
		for j := range own {
			own[j] = (acc[j] + r0[j]) * inv
		}
		return
	}
	r1 := rest[1][:len(own)]
	for j := range own {
		own[j] = (acc[j] + r0[j] + r1[j]) * inv
	}
}

// scheduleRefresh draws the node's next view-refresh time from
// Exp(ViewRefreshRate), at least one round away.
func (s *Simulation) scheduleRefresh(u int) {
	delay := int(math.Round(mathx.Exponential(s.nodes[u].rng, s.cfg.ViewRefreshRate)))
	if delay < 1 {
		delay = 1
	}
	s.nodes[u].nextRefresh = s.round + delay
}

// refreshView resamples node u's out-view according to the variant.
func (s *Simulation) refreshView(u int) {
	p := s.cfg.OutDegree
	switch s.cfg.Variant {
	case PersGossip:
		s.nodes[u].view = s.persView(u, p)
	default:
		s.nodes[u].view = s.randView(u, p)
	}
}

// randView draws P distinct peers uniformly, excluding u itself.
func (s *Simulation) randView(u, p int) []int {
	n := len(s.nodes)
	picked := mathx.SampleWithoutReplacement(s.nodes[u].rng, n-1, p)
	view := make([]int, 0, p)
	for _, v := range picked {
		if v >= u {
			v++ // shift over the excluded self index
		}
		view = append(view, v)
	}
	return view
}

// persView implements Pepper-style performance-aware sampling: gather
// a candidate pool (current view plus random peers), rank candidates
// by how well their model scores this node's training items, and fill
// each view slot with the next-best candidate — except that with
// probability ExplorationRatio the slot is filled uniformly at random.
//
// The simulation scores a candidate's live model directly; in a real
// deployment the ranking uses models received earlier, but the
// selection pressure — prefer peers with similar taste — is identical,
// which is the property RQ3 measures.
func (s *Simulation) persView(u, p int) []int {
	nd := &s.nodes[u]
	myItems := s.cfg.Dataset.Train[u]
	pool := make(map[int]struct{}, 3*p)
	for _, v := range nd.view {
		pool[v] = struct{}{}
	}
	for _, v := range s.randView(u, min(2*p, len(s.nodes)-1)) {
		pool[v] = struct{}{}
	}
	// Score = relevance lift of the candidate's model on my items over
	// a random probe set. The subtraction removes the "globally
	// better-trained model" confound so the ranking reflects taste
	// alignment, which is what drives Pepper-style personalization.
	probe := s.probeItems(u)
	candidates := make([]int, 0, len(pool))
	//lint:sorted keys are drained into a slice and sorted immediately below before any order-sensitive use
	for v := range pool {
		candidates = append(candidates, v)
	}
	// Iterate candidates in a defined order: Go map iteration order is
	// random, and letting it leak into the tie-breaking of ArgsortDesc
	// (or the slot-filling below) would make runs irreproducible.
	sort.Ints(candidates)
	scores := make([]float64, 0, len(candidates))
	for _, v := range candidates {
		m := s.nodes[v].m
		scores = append(scores, m.Relevance(u, myItems)-m.Relevance(u, probe))
	}
	order := mathx.ArgsortDesc(scores)

	view := make([]int, 0, p)
	used := map[int]struct{}{u: {}}
	next := 0
	for len(view) < p {
		var pick int
		if mathx.Bernoulli(nd.rng, s.cfg.ExplorationRatio) || next >= len(order) {
			pick = nd.rng.IntN(len(s.nodes))
		} else {
			pick = candidates[order[next]]
			next++
		}
		if _, dup := used[pick]; dup {
			// Fall back to uniform retry; the loop terminates because
			// OutDegree < NumUsers.
			continue
		}
		used[pick] = struct{}{}
		view = append(view, pick)
	}
	return view
}

// probeItems returns node u's fixed random probe set (32 items or the
// whole catalogue if smaller), creating it on first use.
func (s *Simulation) probeItems(u int) []int {
	nd := &s.nodes[u]
	if nd.probe == nil {
		n := s.cfg.Dataset.NumItems
		k := 32
		if k > n {
			k = n
		}
		nd.probe = mathx.SampleWithoutReplacement(nd.rng, n, k)
	}
	return nd.probe
}

// UtilityHR is the mean leave-one-out hit ratio across nodes, each
// evaluated with its own local model (GL has no global model). The
// sweep fans out over the worker pool with one negative-sampling stream
// per (seed, round, node): byte-identical for every Workers setting and
// independent of any other RNG consumption (each node's model is owned
// by exactly one work item, so model-owned forward scratch never races).
func (s *Simulation) UtilityHR(k, numNeg int) float64 {
	return s.core.UtilityHR(s.round, s.nodeModel, k, numNeg)
}

// UtilityF1 is the mean top-k F1 across nodes on their local models.
func (s *Simulation) UtilityF1(k int) float64 {
	return s.core.UtilityF1(s.round, s.nodeModel, k)
}

// nodeModel is the eval engine's pick function: node u evaluates with
// its own model.
func (s *Simulation) nodeModel(_, u int) model.Recommender { return s.nodes[u].m }
