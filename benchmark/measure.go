package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/collablearn/ciarec/internal/experiments"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/obs"
)

// setupReps is how often each cell is set up per pass; the median is
// kept so one slow set-up does not move setup_s.
const setupReps = 3

// pass is one run of every cell of a workload at one seed.
type pass struct {
	seed    uint64
	digests []string
	leakage float64 // mean over cells of Max AAC / random bound
	setup   time.Duration
	rounds  int
	// roundMS is each round's RunRound wall-clock, callbacks included,
	// at nominal machine speed (see probeSpeed); slowdown is the
	// machine's measured slowdown after each round.
	roundMS  []float64
	slowdown []float64
	alloc    uint64 // bytes allocated by the round loops
	wire     int64  // point-to-point plus broadcast bytes
	failed   int64  // transfers the protocol lost
	moved    int64  // transfers delivered
	err      error  // failed correctness check
}

// seconds is the pass's round time at nominal machine speed.
func (p *pass) seconds() float64 { return mathx.Sum(p.roundMS) / 1000 }

// okRatio is the share of attempted transfers that arrived; a pass that
// failed its correctness check delivered nothing usable.
func (p *pass) okRatio() float64 {
	if p.err != nil {
		return 0
	}
	return ratio(float64(p.moved), float64(p.moved+p.failed))
}

// runPass sets up and drives every cell of w at one seed. A non-nil
// layers makes it a traced pass whose per-layer measurements are added
// to it.
func runPass(w *workload, seed uint64, layers *layerStats, log io.Writer) (*pass, error) {
	p := &pass{seed: seed}
	if layers != nil {
		layers.beginPass()
	}
	for _, cs := range w.Cells {
		spec := cs.spec(seed)
		var c *cell
		setups := make([]float64, setupReps)
		for i := range setups {
			if c != nil {
				c.close()
			}
			var pr *probes
			if layers != nil {
				pr = newProbes()
			}
			t := time.Now()
			var err error
			if c, err = build(cs, spec, pr); err != nil {
				return nil, fmt.Errorf("%s: set up %s/%s: %w", w.Name, cs.Dataset, cs.Family, err)
			}
			setups[i] = time.Since(t).Seconds() / slowdown(w.MemoryBound)
		}
		p.setup += time.Duration(mathx.Quantile(setups, 0.5) * float64(time.Second))

		// Collect the set-up garbage now rather than inside this cell's
		// rounds.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < c.rounds; r++ {
			t0 := time.Now()
			c.runRound()
			wall := time.Since(t0)
			s := slowdown(w.MemoryBound)
			p.roundMS = append(p.roundMS, ms(wall)/s)
			p.slowdown = append(p.slowdown, s)
			if layers != nil {
				layers.addRound(c, t0, wall)
			}
		}
		runtime.ReadMemStats(&after)
		p.alloc += after.TotalAlloc - before.TotalAlloc
		p.rounds += c.rounds

		res := c.result()
		st := c.tr.Stats()
		p.wire += st.Bytes + st.BroadcastBytes
		p.moved += st.Messages + st.BroadcastMessages
		p.failed += c.failedTransfers()
		p.leakage += res.MaxAAC / res.RandomBound / float64(len(w.Cells))
		d := digest(res.MaxAAC, res.Best10AAC, c.utility)
		p.digests = append(p.digests, d)
		if layers != nil {
			layers.addCell(c, after.NumGC-before.NumGC)
		} else if log != nil {
			row := experiments.AttackRow{Dataset: cs.Dataset, Model: cs.Family, Setting: cs.setting(), Result: res}
			fmt.Fprintf(log, "seed=%-3d %s  [%s]\n", seed, row, d)
		}
		if err := c.close(); err != nil {
			return nil, fmt.Errorf("%s: close %s transport: %w", w.Name, cs.Transport, err)
		}
	}
	p.err = w.check(p)
	return p, nil
}

// digest is a cell's outcome at the precision the paper tables print:
// Max AAC and Best-10% AAC in 0.1 pp, plus the best utility to 3
// decimals when utility is recorded.
func digest(maxAAC, best10 float64, utility []float64) string {
	d := fmt.Sprintf("%.1f/%.1f", 100*maxAAC, 100*best10)
	if len(utility) > 0 {
		d += fmt.Sprintf(" hr=%.3f", mathx.Max(utility))
	}
	return d
}

// check is the pass's correctness check: exact digests at the reference
// seed, and the workload's leakage floor at every seed.
func (w *workload) check(p *pass) error {
	if p.seed == referenceSeed && !slices.Equal(p.digests, w.Want) {
		return fmt.Errorf("%s seed %d: digests %q, want %q", w.Name, p.seed, p.digests, w.Want)
	}
	if !(p.leakage > w.Floor) {
		return fmt.Errorf("%s seed %d: leakage factor %.2f not above %.2f", w.Name, p.seed, p.leakage, w.Floor)
	}
	return nil
}

// run is the outcome of one benchmark invocation on one workload.
type run struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Passes    int                `json:"passes"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// measure runs passes of w at seeds seed, seed+1, ... until starting
// another would overrun the budget. The untraced passes give the
// end-to-end metrics; an untraced run makes at least three, because
// gl-table3's cost varies by ±7% from seed to seed and its 10-second
// pass would otherwise see one or two seeds per run. A
// traced run follows each untraced pass with a traced pass at the same
// seed, which must reproduce its digests; the traced passes give the
// per-layer metrics and the pairs give the tracing overhead.
func measure(w *workload, seed uint64, budget time.Duration, traced bool, log io.Writer) (*run, error) {
	r := &run{Workload: w.Name, Seed: seed, Traced: traced, Correct: true}
	var plain, tracedPasses []*pass
	var layers *layerStats
	minPasses := 3
	if traced {
		layers = newLayerStats()
		minPasses = 1
	}
	start := time.Now()
	for i := 0; ; i++ {
		p, err := runPass(w, seed+uint64(i), nil, log)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		r.count(p)
		if traced {
			tp, err := runPass(w, seed+uint64(i), layers, nil)
			if err != nil {
				return nil, err
			}
			if tp.err == nil && !slices.Equal(tp.digests, p.digests) {
				tp.err = fmt.Errorf("%s seed %d: traced digests %q differ from untraced %q", w.Name, tp.seed, tp.digests, p.digests)
			}
			tracedPasses = append(tracedPasses, tp)
			r.count(tp)
		}
		elapsed := time.Since(start)
		if i+1 >= minPasses && elapsed+elapsed/time.Duration(i+1) > budget {
			break
		}
	}
	r.Passes = len(plain)
	if traced {
		r.Metrics = layers.metrics(passSeconds(tracedPasses)/passSeconds(plain)-1, tracedPasses)
	} else {
		r.Metrics = endToEnd(plain)
	}
	return r, nil
}

// nominalALU and nominalMemory are how long probeSpeed's floating-point
// loop and memory walk take on an uncontended core of the calibration
// machine (2 vCPUs of an Intel Xeon, Go 1.24).
const (
	nominalALU    = 650 * time.Microsecond
	nominalMemory = 450 * time.Microsecond
)

// slowdown is the factor by which the machine currently runs slower
// than nominal. The calibration machine's cores run at nominal speed
// only part of the time: under load from neighbouring machines the same
// work takes up to twice as long, in spells of under a second to
// minutes. The benchmark measures the slowdown right after every timed
// set-up and round and reports those times at nominal speed, wall-clock
// over slowdown: unscaled, the run-to-run spread of the round timings
// was 9–27%; scaled, it is a few percent. memory adds the memory walk
// to the probe (see workload.MemoryBound).
func slowdown(memory bool) float64 {
	nominal := nominalALU
	if memory {
		nominal += nominalMemory
	}
	return float64(probeSpeed(memory)) / float64(nominal)
}

var (
	probeSink [workers]float64
	// probeBufs are the memory walk's 4 MiB per core, allocated before
	// anything is measured.
	probeBufs = func() (b [workers][]int64) {
		for i := range b {
			b[i] = make([]int64, 1<<19)
		}
		return b
	}()
)

// probeSpeed runs a fixed floating-point loop, then with memory a walk
// over a 4 MiB buffer one cache line at a time, on every worker core at
// once, and returns the mean duration.
func probeSpeed(memory bool) time.Duration {
	var wg sync.WaitGroup
	var d [workers]time.Duration
	for g := range d {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.Now()
			x := 0.0
			for j := 0; j < 1_000_000; j++ {
				x += float64(j) * 1e-9
			}
			if memory {
				b := probeBufs[g]
				for rep := 0; rep < 2; rep++ {
					for j := 0; j < len(b); j += 8 {
						b[j]++
						x += float64(b[(j*7919)&(len(b)-1)])
					}
				}
			}
			probeSink[g] = x
			d[g] = time.Since(t)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / workers
}

// count adds a pass to the run's attempted/failed round totals.
func (r *run) count(p *pass) {
	r.Attempted += int64(p.rounds)
	if p.err != nil {
		r.Correct = false
		r.Failed += int64(p.rounds)
		r.Problems = append(r.Problems, p.err.Error())
	}
}

// endToEnd derives the end-to-end metrics from untraced passes.
func endToEnd(passes []*pass) map[string]float64 {
	var setup, wire, alloc, ok, rounds []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		wire = append(wire, float64(p.wire)/float64(p.rounds))
		alloc = append(alloc, float64(p.alloc)/float64(p.rounds)/(1<<20))
		ok = append(ok, p.okRatio())
		rounds = append(rounds, p.roundMS...)
	}
	return map[string]float64{
		"setup_s":              median(setup),
		"pass_s":               passSeconds(passes),
		"round_p50_ms":         mathx.Quantile(rounds, 0.5),
		"round_p95_ms":         mathx.Quantile(rounds, 0.95),
		"wire_bytes_per_round": median(wire),
		"alloc_mb_per_round":   median(alloc),
		"transfer_ok_ratio":    median(ok),
	}
}

// passSeconds is the median over passes of the round time at nominal
// machine speed.
func passSeconds(passes []*pass) float64 {
	var v []float64
	for _, p := range passes {
		v = append(v, p.seconds())
	}
	return median(v)
}

// layerStats accumulates a traced run's per-layer measurements.
type layerStats struct {
	// perRound holds one value per traced round (ms) for each per-round
	// metric; the metric is its median.
	perRound map[string][]float64
	// perPass holds one map of counts per traced pass; the metric is the
	// median over passes.
	perPass []map[string]float64
	// latency holds every sampled call's duration (µs) per call site.
	latency map[string][]float64
	// Sums behind the ratio metrics.
	parallel, parallelBusy   time.Duration
	poolHits, poolMisses     float64
	raw, moved, rpcs, rounds float64
}

func newLayerStats() *layerStats {
	return &layerStats{perRound: map[string][]float64{}, latency: map[string][]float64{}}
}

func (l *layerStats) beginPass() { l.perPass = append(l.perPass, map[string]float64{}) }

// addRound attributes one traced round. The adversary callbacks split
// the round into contiguous windows — fed: parallel (broadcast, train,
// send), observe, aggregate; gossip: push, deliver, train — followed by
// OnRoundEnd and the utility callback. Whatever they do not cover is
// round.unattributed_ms.
func (l *layerStats) addRound(c *cell, t0 time.Time, wall time.Duration) {
	p := c.probes
	busy := func(name string, m *meter) time.Duration {
		d := m.take()
		l.perRound[name] = append(l.perRound[name], ms(d))
		return d
	}
	train := busy("model.train_busy_ms", &p.train)
	l.perRound["model.score_busy_ms"] = append(l.perRound["model.score_busy_ms"], ms(p.takeScore()))
	outgoing := busy("defense.outgoing_busy_ms", &p.outgoing)
	send := busy("transport.send_busy_ms", &p.send)
	deliver := busy("transport.deliver_busy_ms", &p.deliver)
	busy("transport.bcast_open_ms", &p.bcastOpen)
	busy("attack.observe_ms", &p.observe)
	busy("attack.refit_ms", &p.refit)
	busy("attack.endround_ms", &p.endRound)
	busy("attack.accuracy_ms", &p.accuracy)
	utility := busy("model.utility_ms", &p.utility)

	w := p.win
	p.win = window{}
	if w.first.IsZero() {
		// Nothing was observed: the whole round before OnRoundEnd is
		// the first window.
		w.first, w.last = w.endIn, w.endIn
	}
	names := [3]string{"gossip.push_ms", "gossip.deliver_ms", "gossip.train_ms"}
	if c.fed != nil {
		names = [3]string{"fed.parallel_ms", "fed.observe_window_ms", "fed.aggregate_ms"}
		if c.tr.Compression().Enabled() {
			// Streaming fold: uploads are observed on the fold goroutine
			// while the workers still train, so the parallel window runs
			// to the last observation and the observe window is empty.
			w.first = w.last
		}
		l.parallel += w.first.Sub(t0)
		l.parallelBusy += train + outgoing + send + deliver
	}
	windows := [3]time.Duration{w.first.Sub(t0), w.last.Sub(w.first), w.endIn.Sub(w.last)}
	for i, d := range windows {
		l.perRound[names[i]] = append(l.perRound[names[i]], ms(d))
	}
	attributed := windows[0] + windows[1] + windows[2] + w.endOut.Sub(w.endIn) + utility
	l.perRound["round.unattributed_ms"] = append(l.perRound["round.unattributed_ms"], ms(wall-attributed))
	l.rounds++
}

// addCell folds a finished traced cell's counts, call latencies and
// phase spans into the current pass.
func (l *layerStats) addCell(c *cell, gcCycles uint32) {
	p := c.probes
	counts := l.perPass[len(l.perPass)-1]
	add := func(name string, v float64) { counts[name] += v }
	add("attack.observe_calls", float64(p.observe.calls.Load()))
	add("model.train_calls", float64(p.train.calls.Load()))
	add("model.relevance_calls", float64(p.scoreCalls()))
	add("defense.outgoing_calls", float64(p.outgoing.calls.Load()))
	add("transport.send_calls", float64(p.send.calls.Load()))
	add("transport.send_errors", float64(p.send.errors.Load()))
	add("transport.deliver_calls", float64(p.deliver.calls.Load()))
	add("transport.deliver_errors", float64(p.deliver.errors.Load()))
	st := c.tr.Stats()
	add("transport.retries", float64(st.Retries))
	add("transport.injected_faults", float64(st.InjectedFaults))
	if c.fed != nil {
		r := c.fed.Resilience()
		add("fed.stragglers", float64(r.Stragglers))
		add("fed.quorum_misses", float64(r.QuorumMisses))
	}
	add("obs.dropped_spans", float64(c.tracer.Dropped()))
	add("process.gc_cycles", float64(gcCycles))

	l.raw += float64(st.RawBytes + st.RawBroadcastBytes)
	l.moved += float64(st.Bytes + st.BroadcastBytes)
	l.rpcs += float64(st.RoundTrips)
	snap := c.reg.Snapshot()
	l.poolHits += snap["param_pool_hits_total"]
	l.poolMisses += snap["param_pool_misses_total"]

	for name, m := range map[string]*meter{"model.train": &p.train, "transport.send": &p.send, "transport.deliver": &p.deliver} {
		for _, d := range m.lat {
			l.latency[name] = append(l.latency[name], float64(d)/float64(time.Microsecond))
		}
	}

	// Busy time per phase per round from the simulators' own spans. The
	// utility sweep runs after the round counter advanced, so its eval
	// span carries the next round's number.
	perPhase := make([][]float64, obs.PhaseEval+1)
	for i := range perPhase {
		perPhase[i] = make([]float64, c.rounds)
	}
	for _, s := range c.tracer.Spans() {
		round := s.Round
		if s.Phase == obs.PhaseEval {
			round--
		}
		if round >= 0 && round < c.rounds {
			perPhase[s.Phase][round] += ms(s.Dur)
		}
	}
	for ph, v := range perPhase {
		name := "obs." + obs.Phase(ph).String()
		l.perRound[name] = append(l.perRound[name], v...)
	}
}

// metrics derives the per-layer metrics of the traced passes; overhead
// is their median pass time over the untraced passes', minus one. The
// per-layer times are plain wall-clock: machine.slowdown is the median
// factor by which the machine ran slower than nominal meanwhile.
func (l *layerStats) metrics(overhead float64, traced []*pass) map[string]float64 {
	var slowdown []float64
	for _, p := range traced {
		slowdown = append(slowdown, p.slowdown...)
	}
	m := map[string]float64{"machine.slowdown": median(slowdown)}
	for name, v := range l.perRound {
		m[name] = median(v)
	}
	for _, ph := range []string{"train", "encode", "send", "aggregate", "broadcast", "eval"} {
		v := l.perRound["obs."+ph]
		delete(m, "obs."+ph)
		m["obs."+ph+"_p50_ms"] = quantile(v, 0.5)
		m["obs."+ph+"_p99_ms"] = quantile(v, 0.99)
	}
	for _, name := range []string{"attack.observe_calls", "model.train_calls", "model.relevance_calls",
		"defense.outgoing_calls", "transport.send_calls", "transport.send_errors",
		"transport.deliver_calls", "transport.deliver_errors", "transport.retries",
		"transport.injected_faults", "fed.stragglers", "fed.quorum_misses",
		"obs.dropped_spans", "process.gc_cycles"} {
		var v []float64
		for _, counts := range l.perPass {
			v = append(v, counts[name])
		}
		m[name] = median(v)
	}
	for name, v := range l.latency {
		m[name+"_p50_us"] = quantile(v, 0.5)
		m[name+"_p99_us"] = quantile(v, 0.99)
	}
	m["fed.parallel_idle_share"] = ratio(float64(l.parallel-l.parallelBusy/workers), float64(l.parallel))
	m["param.pool_hit_ratio"] = ratio(l.poolHits, l.poolHits+l.poolMisses)
	m["transport.compression_ratio"] = ratio(l.raw, l.moved)
	m["transport.raw_bytes_per_round"] = ratio(l.raw, l.rounds)
	m["transport.rpc_round_trips_per_round"] = ratio(l.rpcs, l.rounds)
	m["process.peak_rss_mb"] = peakRSSMB()
	m["trace_overhead_pct"] = 100 * overhead
	return m
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is mathx.Quantile (linear interpolation) that reads 0 for a
// metric with no samples on this workload.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return mathx.Quantile(v, q)
}

// ratio is num/den, or 0 where the workload has no denominator.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num/den) {
		return 0
	}
	return num / den
}
