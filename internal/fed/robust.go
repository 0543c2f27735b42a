package fed

import (
	"fmt"
	"math"
	"sort"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/parx"
)

// Aggregator selects the server's aggregation rule. The zero value is
// classic data-size-weighted FedAvg; the robust rules bound what a
// Byzantine minority can do to the aggregate.
type Aggregator int

const (
	// AggFedAvg is the paper's aggregation: data-size-weighted mean of
	// the uploaded deltas. No robustness — a single scaled adversary
	// moves the aggregate arbitrarily.
	AggFedAvg Aggregator = iota
	// AggMedian takes the coordinate-wise median of the uploaded
	// values, one vote per client (weights are ignored: robust
	// statistics and data-size weighting don't compose — a weighted
	// median would let an adversary with a big dataset outvote the
	// honest majority).
	AggMedian
	// AggTrimmedMean sorts each coordinate across uploads, discards the
	// TrimFraction extremes at each end and averages the rest (one vote
	// per client, like AggMedian).
	AggTrimmedMean
	// AggNormClip keeps the weighted FedAvg mean but scales every
	// upload's delta down to an L2 norm of at most ClipNorm first, so
	// no single client can contribute an oversized step.
	AggNormClip
)

// String returns the spec token ParseAggregator accepts.
func (a Aggregator) String() string {
	switch a {
	case AggFedAvg:
		return "fedavg"
	case AggMedian:
		return "median"
	case AggTrimmedMean:
		return "trimmed-mean"
	case AggNormClip:
		return "norm-clip"
	default:
		return fmt.Sprintf("Aggregator(%d)", int(a))
	}
}

// ParseAggregator parses an aggregator name; the empty string selects
// FedAvg (the default).
func ParseAggregator(name string) (Aggregator, error) {
	switch name {
	case "", "fedavg":
		return AggFedAvg, nil
	case "median":
		return AggMedian, nil
	case "trimmed-mean":
		return AggTrimmedMean, nil
	case "norm-clip":
		return AggNormClip, nil
	default:
		return 0, fmt.Errorf("fed: unknown aggregator %q (want fedavg, median, trimmed-mean or norm-clip)", name)
	}
}

// robust reports whether the rule needs every upload staged before it
// can combine them (order statistics need the whole column).
func (a Aggregator) robust() bool { return a == AggMedian || a == AggTrimmedMean }

// trimCount returns how many values to discard from each end of a
// sorted column of m uploads, clamped so at least one value survives.
func trimCount(trim float64, m int) int {
	t := int(trim * float64(m))
	if 2*t >= m {
		t = (m - 1) / 2
	}
	return t
}

// upload is one timely client upload staged for the robust reduce.
type upload struct {
	from    int
	payload *param.Set
}

// aggChunk is one unit of the robust reduce: the element range
// [lo, hi) of parameter entry ei.
type aggChunk struct {
	ei, lo, hi int
}

// aggShard is the robust reduce's chunk size in elements. Entries
// smaller than this (biases, output layers) stay single-chunk;
// paper-scale item tables (tens of thousands of rows) split into
// enough chunks to keep every worker busy.
const aggShard = 2048

// aggregateRobust applies a coordinate-wise order-statistic rule
// (median or trimmed mean) to the uploads: private user-table rows are
// routed exactly like FedAvg (client u is the only voter for its own
// row), and every shared coordinate is replaced by the statistic over
// the uploads that carry the entry. One vote per client — weights are
// deliberately ignored (see Aggregator).
//
// Determinism: chunks partition each entry's coordinates disjointly,
// the per-coordinate gather order is the upload (sampling) order, and
// sort.Float64s is deterministic — so the result is byte-identical for
// every worker count and backend.
func (s *Simulation) aggregateRobust(uploads []upload) {
	globalParams := s.global.Params()
	s.aggChunks = s.aggChunks[:0]
	for ei := 0; ei < globalParams.Len(); ei++ {
		ge := globalParams.At(ei)
		name := ge.Name
		if _, isUserTable := s.privateSet[name]; isUserTable {
			for _, up := range uploads {
				if !up.payload.Has(name) {
					continue
				}
				pe := up.payload.Entry(name)
				u := up.from
				copy(ge.Data[u*ge.Cols:(u+1)*ge.Cols], pe.Data[u*pe.Cols:(u+1)*pe.Cols])
			}
			continue
		}
		var any bool
		for _, up := range uploads {
			if up.payload.Has(name) {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		for lo := 0; lo < len(ge.Data); lo += aggShard {
			hi := lo + aggShard
			if hi > len(ge.Data) {
				hi = len(ge.Data)
			}
			s.aggChunks = append(s.aggChunks, aggChunk{ei: ei, lo: lo, hi: hi})
		}
	}
	trimmed := s.cfg.Aggregator == AggTrimmedMean
	parx.ForEach(s.core.Workers, len(s.aggChunks), func(_, ci int) {
		c := s.aggChunks[ci]
		ge := globalParams.At(c.ei)
		// The carriers of this entry, in upload order, and a per-chunk
		// sort scratch. Robust aggregation trades the FedAvg fold's
		// zero-alloc accumulation for one small slice pair per chunk.
		cols := make([][]float64, 0, len(uploads))
		for ui := range uploads {
			if uploads[ui].payload.Has(ge.Name) {
				cols = append(cols, uploads[ui].payload.Get(ge.Name))
			}
		}
		vals := make([]float64, len(cols))
		gd := ge.Data[c.lo:c.hi]
		for j := range gd {
			for k, col := range cols {
				vals[k] = col[c.lo+j]
			}
			sort.Float64s(vals)
			m := len(vals)
			if trimmed {
				t := trimCount(s.cfg.TrimFraction, m)
				gd[j] = mathx.Mean(vals[t : m-t])
			} else if m%2 == 1 {
				gd[j] = vals[m/2]
			} else {
				gd[j] = 0.5 * (vals[m/2-1] + vals[m/2])
			}
		}
	})
}

// clipFactor returns the norm-clip scale for one upload: 1 when its
// shared-entry delta (vs the current global model) fits inside
// ClipNorm, ClipNorm/‖Δ‖ otherwise. Private user-table rows are
// excluded — they are routed, not averaged, so clipping them would
// only corrupt the owner's own row.
func (s *Simulation) clipFactor(payload *param.Set) (factor float64, clipped bool) {
	gp := s.global.Params()
	var sq float64
	for ei := 0; ei < gp.Len(); ei++ {
		ge := gp.At(ei)
		if !payload.Has(ge.Name) {
			continue
		}
		if _, isUserTable := s.privateSet[ge.Name]; isUserTable {
			continue
		}
		sq += mathx.SqDist(payload.Get(ge.Name), ge.Data)
	}
	norm := math.Sqrt(sq)
	if norm <= s.cfg.ClipNorm || norm == 0 {
		return 1, false
	}
	return s.cfg.ClipNorm / norm, true
}
