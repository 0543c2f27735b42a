// Package attack implements the paper's Community Inference Attack
// (CIA, §IV) and the two proxy attacks it is compared against: an
// entropy-based membership inference attack (MIA, §VIII-C1) and a
// gradient-classifier attribute inference attack (AIA, §VIII-C2).
//
// CIA is deliberately protocol-agnostic: it consumes (sender, payload)
// observations — the models an honest-but-curious adversary receives —
// and maintains per-sender momentum-averaged models (Eq. 4) that it
// ranks by the relevance score they assign to the target item sets
// (Eq. 3). The same implementation serves the FL server adversary
// (Alg. 1), a single gossip node (Alg. 2), and a colluding coalition
// (one CIA instance fed by every colluder's observations, which is
// exactly the Alg. 2 line-14 multicast).
package attack

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/parx"
)

// Evaluator scores a loaded model state against registered targets.
//
// Concurrency contract: implementations need NOT be safe for
// concurrent use. CIA partitions senders across at most Workers
// goroutines, gives each goroutine its own evaluator (the configured
// Eval plus Workers−1 instances from NewEval, or forks of Eval), and
// guarantees that Load and the Score calls that follow it are issued
// from a single goroutine at a time per evaluator. Evaluators sharing
// read-only state (e.g. target item sets) is fine; sharing a mutable
// scratch model is not.
//
// Worker evaluators: an evaluator that also has the method
//
//	Fork() Evaluator
//
// returning an independent evaluator that scores exactly as it does
// (RecommenderEval: a clone of its scratch model sharing its targets
// and fictive users) stands in for Config.NewEval when that is nil.
//
// Batched scoring: an evaluator that also has the method
//
//	ScoreTargets(sender int, dst []float64)
//
// writing Score(sender, t) for every target t into dst, bit for bit, is
// scored with one such call per loaded state instead of one Score call
// per target. RecommenderEval has it and, in full-model mode on a
// model.TargetRelevancer scratch, sweeps the catalogue once per state;
// evaluators without it, such as a one-target view over a shared
// evaluator, are scored target by target.
type Evaluator interface {
	// Load installs a (momentum-averaged) model state for scoring. An
	// implementation may read state lazily, so state must not change
	// until the last Score (or ScoreTargets) call before the next Load.
	Load(state *param.Set)
	// Score returns the relevance Ŷ of the loaded state, attributed to
	// sender, for registered target index t. Higher = more relevant.
	Score(sender, t int) float64
	// NumTargets returns the number of registered targets.
	NumTargets() int
}

// targetScorer is the optional batched scoring method described on
// Evaluator.
type targetScorer interface {
	ScoreTargets(sender int, dst []float64)
}

// forker is the optional worker-evaluator method described on
// Evaluator.
type forker interface {
	Fork() Evaluator
}

// Config parameterizes one CIA instance.
type Config struct {
	// Beta is the momentum coefficient β of Eq. 4 (paper default 0.99;
	// 0 disables momentum, the Table-VI ablation).
	Beta float64
	// K is the inferred community size.
	K int
	// NumUsers is the number of protocol participants.
	NumUsers int
	// Eval scores momentum states (required).
	Eval Evaluator
	// NewEval optionally supplies the extra evaluators of parallel
	// scoring. When nil and Eval has a Fork method, forks of Eval are
	// used. Workers > 1 requires one or the other.
	NewEval func() Evaluator
	// Workers bounds scoring concurrency. 0 defaults to
	// runtime.NumCPU() when worker evaluators can be made (NewEval is
	// set or Eval forks) and to 1 otherwise; negative forces serial.
	// New builds the Workers−1 extra evaluators up front.
	Workers int
}

// CIA is one adversary instance (or coalition).
type CIA struct {
	cfg     Config
	states  map[int]*param.Set // sender → momentum state v_u
	scores  [][]float64        // [target][sender]
	hasSeen []bool             // sender observed at least once
	dirty   map[int]struct{}   // senders whose state changed since last EndRound
	// evals[w] is worker w's evaluator: cfg.Eval, then the Workers−1
	// built by New. Evaluators carry no state between rounds, so
	// building them once is enough.
	evals []Evaluator
	// rows[w] is worker w's target-score row for batched evaluators,
	// allocated on first use by that worker and kept across rounds.
	rows [][]float64
}

// New builds a CIA instance. It panics on an invalid configuration
// (attacks are constructed by experiments; misconfiguration is a bug).
func New(cfg Config) *CIA {
	if cfg.Eval == nil {
		panic("attack: Config.Eval is required")
	}
	if cfg.K <= 0 || cfg.NumUsers <= 0 {
		panic(fmt.Sprintf("attack: invalid K=%d NumUsers=%d", cfg.K, cfg.NumUsers))
	}
	if cfg.Beta < 0 || cfg.Beta >= 1 {
		panic(fmt.Sprintf("attack: Beta %v out of [0,1)", cfg.Beta))
	}
	if f, ok := cfg.Eval.(forker); ok && cfg.NewEval == nil {
		cfg.NewEval = f.Fork
	}
	if cfg.Workers == 0 {
		if cfg.NewEval != nil {
			cfg.Workers = runtime.NumCPU()
		} else {
			cfg.Workers = 1
		}
	}
	if cfg.Workers < 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > 1 && cfg.NewEval == nil {
		panic("attack: Workers > 1 requires NewEval or a forking Eval")
	}
	evals := make([]Evaluator, cfg.Workers)
	evals[0] = cfg.Eval
	for w := 1; w < cfg.Workers; w++ {
		evals[w] = cfg.NewEval()
	}
	nt := cfg.Eval.NumTargets()
	scores := make([][]float64, nt)
	for t := range scores {
		scores[t] = make([]float64, cfg.NumUsers)
	}
	return &CIA{
		cfg:     cfg,
		states:  make(map[int]*param.Set),
		scores:  scores,
		hasSeen: make([]bool, cfg.NumUsers),
		dirty:   make(map[int]struct{}),
		evals:   evals,
		rows:    make([][]float64, cfg.Workers),
	}
}

// Observe folds a received model payload into the sender's momentum
// state (Alg. 1/2 lines 7-11): v_u ← β·v_u + (1-β)·Θ_u, with v_u
// initialized to the first observation.
func (c *CIA) Observe(sender int, payload *param.Set) {
	st, ok := c.states[sender]
	if !ok {
		c.states[sender] = payload.Clone()
	} else {
		st.Lerp(c.cfg.Beta, payload)
	}
	c.hasSeen[sender] = true
	c.dirty[sender] = struct{}{}
}

// EndRound re-scores every sender whose momentum state changed since
// the previous call (Alg. 1/2 line 12). Call once per protocol round
// before reading predictions.
func (c *CIA) EndRound() {
	if len(c.dirty) == 0 {
		return
	}
	senders := make([]int, 0, len(c.dirty))
	//lint:sorted keys are drained and sorted below; scores are keyed writes of pure (s, t) functions
	for s := range c.dirty {
		senders = append(senders, s)
	}
	clear(c.dirty)
	// Sort so the scoring order cannot depend on map iteration order.
	sort.Ints(senders)

	if c.cfg.Workers == 1 || len(senders) < 2*c.cfg.Workers {
		c.scoreSenders(0, senders)
		return
	}
	parx.ForEach(c.cfg.Workers, len(senders), func(w, i int) {
		c.scoreSenders(w, senders[i:i+1])
	})
}

// scoreSenders re-scores senders on worker w's evaluator: one
// ScoreTargets call per sender (through the worker's row) when it is
// batched, one Score call per (sender, target) otherwise.
func (c *CIA) scoreSenders(w int, senders []int) {
	ev := c.evals[w]
	batch, batched := ev.(targetScorer)
	if !batched {
		for _, s := range senders {
			ev.Load(c.states[s])
			for t := range c.scores {
				c.scores[t][s] = ev.Score(s, t)
			}
		}
		return
	}
	if c.rows[w] == nil {
		c.rows[w] = make([]float64, len(c.scores))
	}
	row := c.rows[w]
	for _, s := range senders {
		ev.Load(c.states[s])
		batch.ScoreTargets(s, row)
		for t, v := range row {
			c.scores[t][s] = v
		}
	}
}

// Predict returns the current inferred community Ĉ for target t: the K
// observed senders with the highest relevance scores (Eq. 3; Alg. 1/2
// AddSorted + Slice), selected by mathx.TopKSelect — descending score,
// ascending id on ties, NaN below every number.
func (c *CIA) Predict(t int) []int {
	return mathx.TopKSelect(c.scores[t], c.hasSeen, c.cfg.K, nil)
}

// Scores returns target t's relevance scores indexed by sender, as of
// the last EndRound (0 for a sender never scored). Callers must not
// mutate the returned row; the next EndRound rewrites it.
func (c *CIA) Scores(t int) []float64 { return c.scores[t] }

// Accuracies returns Accuracy@R (Eq. 6) for every target against the
// provided ground-truth communities (truths[t] for target t). One
// selection buffer serves every target.
func (c *CIA) Accuracies(truths []map[int]struct{}) []float64 {
	if len(truths) != len(c.scores) {
		panic(fmt.Sprintf("attack: %d truths for %d targets", len(truths), len(c.scores)))
	}
	out := make([]float64, len(truths))
	var top []int
	for t := range truths {
		top = mathx.TopKSelect(c.scores[t], c.hasSeen, c.cfg.K, top)
		out[t] = evalx.Accuracy(top, truths[t])
	}
	return out
}

// Seen returns the set of senders observed so far (the input to the
// accuracy upper bound of §V-C).
func (c *CIA) Seen() map[int]struct{} {
	out := make(map[int]struct{}, len(c.states))
	for s := range c.states {
		out[s] = struct{}{}
	}
	return out
}

// NumObserved returns how many distinct senders have been observed.
func (c *CIA) NumObserved() int { return len(c.states) }

// State returns the momentum state for a sender (nil if never
// observed). Exposed for colluder forwarding and tests; callers must
// not mutate the returned set.
func (c *CIA) State(sender int) *param.Set { return c.states[sender] }
