package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// meter accumulates one timed call site of a traced cell: calls,
// failed calls, busy time since the round driver last took it and,
// when sampled, every call's duration. The simulators call the seams
// from their worker goroutines, so a meter is safe for concurrent use.
// A nil meter is the untraced run's: it reads no clock.
type meter struct {
	calls, errors atomic.Int64
	busy          atomic.Int64 // nanoseconds since the last take
	sampled       bool
	mu            sync.Mutex
	lat           []time.Duration
}

func (m *meter) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// stop charges the call that began at start and returns the current
// time, so consecutive steps can chain their measurements.
func (m *meter) stop(start time.Time, err error) time.Time {
	if m == nil {
		return start
	}
	now := time.Now()
	d := now.Sub(start)
	m.calls.Add(1)
	m.busy.Add(int64(d))
	if err != nil {
		m.errors.Add(1)
	}
	if m.sampled {
		m.mu.Lock()
		m.lat = append(m.lat, d)
		m.mu.Unlock()
	}
	return now
}

// take returns and resets the busy time accumulated since the last
// take (one round's worth, as the round driver calls it).
func (m *meter) take() time.Duration { return time.Duration(m.busy.Swap(0)) }

// probes holds a traced cell's meters, one per decorated seam, plus the
// current round's adversary callback timestamps.
type probes struct {
	train, outgoing, send, deliver, bcastOpen   meter
	observe, refit, endRound, accuracy, utility meter
	win                                         window

	// Relevance scoring runs millions of times per pass on the parallel
	// CIA scorers, so each model instance counts into its own tally
	// instead of contending on a shared meter.
	mu      sync.Mutex
	scorers []*scoreTally
}

// scoreTally is one model instance's relevance-scoring count and busy
// time, padded to its own cache line.
type scoreTally struct {
	calls, busy atomic.Int64
	_           [48]byte
}

// takeScore returns and resets the scoring busy time of all instances.
func (p *probes) takeScore() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d int64
	for _, s := range p.scorers {
		d += s.busy.Swap(0)
	}
	return time.Duration(d)
}

func (p *probes) scoreCalls() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, s := range p.scorers {
		n += s.calls.Load()
	}
	return n
}

func (p *probes) wrapModel(m model.Recommender) model.Recommender {
	s := &scoreTally{}
	p.mu.Lock()
	p.scorers = append(p.scorers, s)
	p.mu.Unlock()
	return timedModel{m, p, s}
}

func newProbes() *probes {
	p := &probes{}
	p.train.sampled, p.send.sampled, p.deliver.sampled = true, true, true
	return p
}

// window is when the protocol called the adversary during one round:
// entry of the first observation, return of the last one, and entry and
// return of OnRoundEnd. The round driver reads it after RunRound
// returns and resets it before the next round.
type window struct{ first, last, endIn, endOut time.Time }

func (w *window) observed(in, out time.Time) {
	if w.first.IsZero() {
		w.first = in
	}
	w.last = out
}

// The decorators below wrap the seams the simulators call through. No
// layer type-asserts these interfaces, so wrapping them leaves every
// result unchanged (compose_test.go checks it).

func (p *probes) wrapFactory(f model.Factory) model.Factory {
	return func(seed uint64) model.Recommender { return p.wrapModel(f(seed)) }
}

// timedModel times local training and relevance scoring; every other
// method passes through.
type timedModel struct {
	model.Recommender
	p     *probes
	score *scoreTally
}

func (m timedModel) Clone() model.Recommender { return m.p.wrapModel(m.Recommender.Clone()) }

func (m timedModel) TrainLocal(d *dataset.Dataset, u int, opt model.TrainOptions) {
	t := time.Now()
	m.Recommender.TrainLocal(d, u, opt)
	m.p.train.stop(t, nil)
}

func (m timedModel) Relevance(owner int, items []int) float64 {
	t := time.Now()
	v := m.Recommender.Relevance(owner, items)
	m.scored(t)
	return v
}

func (m timedModel) RelevanceWithUserVec(vec []float64, items []int) float64 {
	t := time.Now()
	v := m.Recommender.RelevanceWithUserVec(vec, items)
	m.scored(t)
	return v
}

func (m timedModel) scored(start time.Time) {
	m.score.calls.Add(1)
	m.score.busy.Add(int64(time.Since(start)))
}

// timedPolicy times the construction of outgoing payloads.
type timedPolicy struct {
	defense.Policy
	p *probes
}

func (x timedPolicy) Outgoing(m model.Recommender, prev *param.Set, rng *rand.Rand, buf *param.Buffers) *param.Set {
	t := time.Now()
	out := x.Policy.Outgoing(m, prev, rng, buf)
	x.p.outgoing.stop(t, nil)
	return out
}

// timedTransport times point-to-point sends and broadcast staging, and
// hands out timed broadcasts.
type timedTransport struct {
	transport.Transport
	p *probes
}

func (x timedTransport) Send(round, from int, payload *param.Set, pool *param.Buffers) (*param.Set, error) {
	t := time.Now()
	out, err := x.Transport.Send(round, from, payload, pool)
	x.p.send.stop(t, err)
	return out, err
}

func (x timedTransport) OpenBroadcast(round int, src *param.Set) (transport.Broadcast, error) {
	t := time.Now()
	b, err := x.Transport.OpenBroadcast(round, src)
	x.p.bcastOpen.stop(t, err)
	if err != nil {
		return nil, err
	}
	return timedBroadcast{b, x.p}, nil
}

type timedBroadcast struct {
	transport.Broadcast
	p *probes
}

func (b timedBroadcast) Deliver(to int, dst *param.Set) error {
	t := time.Now()
	err := b.Broadcast.Deliver(to, dst)
	b.p.deliver.stop(t, err)
	return err
}

// timedFedObserver times the adversary's observations and records the
// round's callback timestamps.
type timedFedObserver struct {
	inner fed.Observer
	p     *probes
}

func (o timedFedObserver) OnUpload(msg fed.Message) {
	t := time.Now()
	o.inner.OnUpload(msg)
	o.p.win.observed(t, o.p.observe.stop(t, nil))
}

func (o timedFedObserver) OnRoundEnd(round int) {
	o.p.win.endIn = time.Now()
	o.inner.OnRoundEnd(round)
	o.p.win.endOut = time.Now()
}

type timedGossipObserver struct {
	inner gossip.Observer
	p     *probes
}

func (o timedGossipObserver) OnReceive(msg gossip.Message) {
	t := time.Now()
	o.inner.OnReceive(msg)
	o.p.win.observed(t, o.p.observe.stop(t, nil))
}

func (o timedGossipObserver) OnRoundEnd(round int) {
	o.p.win.endIn = time.Now()
	o.inner.OnRoundEnd(round)
	o.p.win.endOut = time.Now()
}
