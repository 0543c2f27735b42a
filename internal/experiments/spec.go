// Package experiments contains one runner per table and figure of the
// paper's evaluation, plus the shared workload sizing and the FL/GL
// attack harnesses they are built from. Each runner returns typed rows
// and offers a Render function printing the same layout as the paper.
//
// Every runner takes a Spec. BenchSpec (the default used by the
// repository's benchmarks and CLI) runs scaled-down datasets so each
// experiment finishes in seconds; PaperSpec sizes everything like the
// paper (943–1083 users, tens of thousands of items) for users with
// the patience and memory for full-scale runs.
package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// DefaultShareLessTau is the item-drift regularization factor τ used
// by every Share-less experiment. The paper does not publish its τ;
// this value was selected (see EXPERIMENTS.md) so the Share-less
// defense lands in the paper's Figure-3 regime on all three datasets:
// a large Max-AAC drop at an 8–19% utility cost. Weak τ (≲2) leaves
// item-embedding drift large enough that the fictive-user attack on
// partial models matches or exceeds the full-sharing attack.
const DefaultShareLessTau = 5.0

// Spec is the workload sizing shared by all experiment runners.
type Spec struct {
	// Paper switches the dataset constructors to full paper scale.
	Paper bool

	// Rounds is the number of FL rounds per run.
	Rounds int
	// GLRounds is the number of gossip rounds per run. Gossip needs a
	// much longer horizon than FL: a single adversary observes ~1
	// model per round (vs all N in FL), so its accuracy upper bound
	// grows slowly with time (§V-C; the paper's 81%/72% bounds imply
	// long runs).
	GLRounds int
	// Dim is the embedding dimension.
	Dim int
	// KFrac sizes communities as a fraction of the user count (the
	// paper's K=50 of ~1000 users ≈ 5%).
	KFrac float64
	// Beta is the CIA momentum coefficient. The paper uses 0.99 over
	// long trainings; scaled runs default to 0.9 so the momentum
	// window matches the shorter horizon.
	Beta float64
	// HRK is the utility cut-off (HR@K / F1@K; the paper uses 20).
	HRK int
	// NumNeg is the negative-sample count for HR evaluation (99 in the
	// NCF protocol).
	NumNeg int
	// LocalEpochs is the per-round local-training length.
	LocalEpochs int
	// Workers bounds per-run parallelism: the protocol simulators'
	// client/node training pools, their utility-evaluation sweeps and
	// the robust aggregators' reduce, plus CIA scoring and Share-less
	// refits in FL runs. 0 lets the simulators default to
	// runtime.NumCPU(). Results are independent of the value (see
	// fed.Config.Workers / gossip.Config.Workers).
	Workers int
	// Transport selects the round-transport backend threaded into the
	// protocol simulators: "" or "inproc" (pointer passing), "wire"
	// (every parameter transfer round-trips the binary codec), "socket"
	// (framed RPC over an in-process loopback Unix-domain socket
	// server) or "socket-tcp" (the same over loopback TCP). Results are
	// byte-identical across backends (see internal/transport).
	Transport string
	// TransportAddr, when non-empty, dials an external RPC worker (a
	// running `ciaworker` process) at this address instead of spinning
	// up a loopback server: a socket path for "socket", a host:port for
	// "socket-tcp". Every parameter transfer of the run then crosses OS
	// process boundaries. Only meaningful with the socket backends.
	TransportAddr string
	// FaultPlan, when non-nil, wraps the run's transport in the
	// deterministic fault injector (transport.NewFaulty) and hands the
	// same plan to the protocol simulators for straggler latencies and
	// peer-reachability decisions. Alternatively prefix Transport with
	// "faulty:" for transport.DefaultFaultPlan. A (Seed, FaultPlan)
	// pair pins the run's exact output on every backend.
	FaultPlan *transport.FaultPlan
	// Retry overrides the socket backends' RPC RetryPolicy (nil keeps
	// the defaults: 4 attempts, capped jittered exponential backoff,
	// 30s per-attempt deadline).
	Retry *transport.RetryPolicy
	// Compression, when enabled, runs every parameter transfer through
	// the sparse+quantized delta codec (see internal/param). The zero
	// value keeps the lossless dense codec; compressed runs are still
	// deterministic and byte-identical across backends and worker
	// counts, but quantization moves them off the dense golden hashes
	// (they have their own golden cells).
	Compression param.Compression
	// StragglerDeadline and Quorum parameterize the FL server's partial
	// aggregation (see fed.Config). Zero values disable both.
	StragglerDeadline time.Duration
	Quorum            float64
	// ChurnPlan, when non-nil, drives deterministic participant churn
	// in both protocol simulators: memberships grow and shrink round
	// over round, rejoining participants resume from their stale
	// snapshot (see fed.Config.ChurnPlan / gossip.Config.ChurnPlan).
	ChurnPlan *transport.ChurnPlan
	// Byzantine, when non-nil, turns a deterministic pseudo-random
	// fraction of participants into model-poisoning adversaries (see
	// attack.Byzantine).
	Byzantine *attack.Byzantine
	// Aggregator selects the FL server's aggregation rule (zero value:
	// classic FedAvg; see fed.Aggregator for the robust rules).
	// TrimFraction and ClipNorm parameterize the trimmed-mean and
	// norm-clip rules. Gossip runs ignore all three.
	Aggregator   fed.Aggregator
	TrimFraction float64
	ClipNorm     float64
	// Trace, when non-nil, records phase spans for every simulated
	// round (see internal/obs and OBSERVABILITY.md). Metrics, when
	// non-nil, receives live views of the run's transport, resilience
	// and pool counters (a nil registry makes each runner gather into a
	// private one so RunResult.Metrics is always populated). Neither
	// affects results: all golden hashes are byte-identical with both
	// enabled.
	Trace   *obs.Tracer
	Metrics *obs.Registry
	// Seed drives all generation and training.
	Seed uint64
}

// BenchSpec returns the scaled default configuration.
func BenchSpec() Spec {
	return Spec{
		Rounds:      25,
		GLRounds:    80,
		Dim:         8,
		KFrac:       0.05,
		Beta:        0.9,
		HRK:         10,
		NumNeg:      50,
		LocalEpochs: 2,
		Workers:     4,
		Seed:        1,
	}
}

// PaperSpec returns the paper-scale configuration (expensive: hours of
// CPU and hundreds of MB of momentum state on the larger datasets).
func PaperSpec() Spec {
	s := BenchSpec()
	s.Paper = true
	s.Rounds = 60
	s.GLRounds = 600
	s.Dim = 16
	s.Beta = 0.99
	s.HRK = 20
	s.NumNeg = 99
	return s
}

// K returns the community size for a dataset of n users (rounded, at
// least 2).
func (s Spec) K(n int) int {
	k := int(math.Round(s.KFrac * float64(n)))
	if k < 2 {
		k = 2
	}
	return k
}

// DatasetNames lists the paper's three datasets in table order.
func DatasetNames() []string { return []string{"foursquare", "gowalla", "movielens"} }

// MakeDataset builds the named dataset at the spec's scale. Bench
// datasets mirror the presets' shape (community structure, popularity
// skew, Foursquare categories and health community) at a size where a
// full experiment takes seconds.
func MakeDataset(name string, s Spec) (*dataset.Dataset, error) {
	if s.Paper {
		switch name {
		case "movielens":
			return dataset.MovieLensLike(1, s.Seed), nil
		case "foursquare":
			return dataset.FoursquareLike(1, s.Seed), nil
		case "gowalla":
			return dataset.GowallaLike(1, s.Seed), nil
		}
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	switch name {
	case "movielens":
		return dataset.GenerateSynthetic(dataset.SyntheticConfig{
			Name: "movielens-like", NumUsers: 140, NumItems: 260,
			NumCommunities: 4, MeanItemsPerUser: 40, MinItemsPerUser: 10,
			Affinity: 0.85, ZipfExponent: 0.9, Seed: s.Seed,
		})
	case "foursquare":
		return dataset.GenerateSynthetic(dataset.SyntheticConfig{
			Name: "foursquare-like", NumUsers: 150, NumItems: 700,
			NumCommunities: 5, MeanItemsPerUser: 45, MinItemsPerUser: 10,
			Affinity:         0.85,
			AffinityOverride: map[int]float64{0: 0.9},
			CommunitySizes:   []int{5},
			ZipfExponent:     0.8,
			NumCategories:    len(dataset.FoursquareCategories()),
			CategoryNames:    dataset.FoursquareCategories(),
			Seed:             s.Seed,
		})
	case "gowalla":
		return dataset.GenerateSynthetic(dataset.SyntheticConfig{
			Name: "gowalla-like", NumUsers: 110, NumItems: 600,
			NumCommunities: 4, MeanItemsPerUser: 50, MinItemsPerUser: 10,
			Affinity: 0.85, ZipfExponent: 0.8, Seed: s.Seed,
		})
	}
	return nil, fmt.Errorf("experiments: unknown dataset %q", name)
}

// ModelNames lists the recommendation models evaluated in the paper's
// tables. BPR-MF ("bprmf") and NeuMF ("neumf") are additionally
// supported as extension families (see RunModelFamilyStudy).
func ModelNames() []string { return []string{"gmf", "prme"} }

// MakeFactory returns the model factory for a family name
// ("gmf", "prme", or the extension families "bprmf" and "neumf").
func MakeFactory(family string, d *dataset.Dataset, s Spec) (model.Factory, error) {
	switch family {
	case "gmf":
		return model.NewGMFFactory(d.NumUsers, d.NumItems, s.Dim), nil
	case "prme":
		return model.NewPRMEFactory(d.NumUsers, d.NumItems, s.Dim), nil
	case "bprmf":
		return model.NewBPRMFFactory(d.NumUsers, d.NumItems, s.Dim), nil
	case "neumf":
		dim := s.Dim
		if dim%2 != 0 {
			dim++
		}
		return model.NewNeuMFFactory(d.NumUsers, d.NumItems, dim), nil
	}
	return nil, fmt.Errorf("experiments: unknown model %q", family)
}

// SplitFor applies the model family's evaluation split: leave-one-out
// for GMF (HR@K) and a 20% holdout for PRME (F1@K), per §V-C.
func SplitFor(family string, d *dataset.Dataset) {
	if family == "prme" {
		d.SplitFraction(0.2)
		return
	}
	d.SplitLeaveOneOut(3)
}
