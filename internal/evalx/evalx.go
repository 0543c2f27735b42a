// Package evalx implements the paper's evaluation machinery: the
// Jaccard ground-truth communities (Eq. 5), the attack accuracy
// metrics (Accuracy@R, Average/Max Attack Accuracy, Best-10% AAC),
// and the random/upper accuracy bounds (§V-C).
package evalx

import (
	"fmt"
	"slices"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
)

// TrueCommunity returns the ground-truth community for a target item
// set: the k users whose training sets are most Jaccard-similar to
// target (Eq. 5). Ties break by ascending user id for determinism.
// Duplicate target items count once.
func TrueCommunity(d *dataset.Dataset, target []int, k int) map[int]struct{} {
	set := append([]int(nil), target...)
	slices.Sort(set)
	return newJaccardIndex(d).community(slices.Compact(set), k)
}

// TrueCommunities computes the ground truth for the paper's standard
// protocol where every user u plays the adversary with
// V_target = Train[u]: element a is the community for target user a.
func TrueCommunities(d *dataset.Dataset, k int) []map[int]struct{} {
	ix := newJaccardIndex(d)
	out := make([]map[int]struct{}, d.NumUsers)
	for a := range out {
		out[a] = ix.community(d.Train[a], k)
	}
	return out
}

// jaccardIndex ranks users by Jaccard similarity to a target item set
// through an item→users posting index: the intersection sizes
// |target ∩ Train[u]| for every u come from walking the posting lists
// of the target's items, so a target costs the summed popularity of
// its items plus one pass over the users, with no set probes.
type jaccardIndex struct {
	d      *dataset.Dataset
	users  [][]int   // users[i]: the users whose training set holds item i
	inter  []int     // per-user intersection counts of the current target
	scores []float64 // per-user Jaccard similarity of the current target
	top    []int     // TopKSelect's reused result buffer
}

func newJaccardIndex(d *dataset.Dataset) *jaccardIndex {
	deg := make([]int, d.NumItems)
	var total int
	for _, items := range d.Train {
		for _, it := range items {
			deg[it]++
		}
		total += len(items)
	}
	flat := make([]int, 0, total)
	users := make([][]int, d.NumItems)
	for i, n := range deg {
		users[i] = flat[len(flat) : len(flat) : len(flat)+n]
		flat = flat[:len(flat)+n]
	}
	for u, items := range d.Train {
		for _, it := range items {
			users[it] = append(users[it], u)
		}
	}
	return &jaccardIndex{
		d:      d,
		users:  users,
		inter:  make([]int, d.NumUsers),
		scores: make([]float64, d.NumUsers),
	}
}

// community returns the k users most Jaccard-similar to target, which
// must hold no duplicates; items outside the catalogue match nobody.
// Each score is formed from the integer counts exactly as
// mathx.JaccardInt forms it, and TopKSelect breaks ties by ascending
// user id, so the result equals ranking JaccardInt scores with TopK.
func (ix *jaccardIndex) community(target []int, k int) map[int]struct{} {
	for _, it := range target {
		if it >= 0 && it < len(ix.users) {
			for _, u := range ix.users[it] {
				ix.inter[u]++
			}
		}
	}
	for u, items := range ix.d.Train {
		inter := ix.inter[u]
		if union := len(target) + len(items) - inter; union > 0 {
			ix.scores[u] = float64(inter) / float64(union)
		} else {
			ix.scores[u] = 0
		}
		ix.inter[u] = 0
	}
	ix.top = mathx.TopKSelect(ix.scores, nil, k, ix.top)
	out := make(map[int]struct{}, len(ix.top))
	for _, u := range ix.top {
		out[u] = struct{}{}
	}
	return out
}

// Accuracy is Eq. 6: |pred ∩ truth| / k where k = |truth|.
// An empty truth set scores 0.
func Accuracy(pred []int, truth map[int]struct{}) float64 {
	if len(truth) == 0 {
		return 0
	}
	var inter int
	for _, u := range pred {
		if _, ok := truth[u]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(truth))
}

// UpperBound is the accuracy ceiling of an adversary who has observed
// models from exactly the users in seen: |seen ∩ truth| / |truth|
// (§V-C "Accuracy upper bound"). It is 1 for the FL server.
func UpperBound(seen map[int]struct{}, truth map[int]struct{}) float64 {
	if len(truth) == 0 {
		return 0
	}
	var inter int
	for u := range seen {
		if _, ok := truth[u]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(truth))
}

// RandomBound is the expected accuracy of a uniform random guess of k
// users out of n (hypergeometric mean K/N, §V-D).
func RandomBound(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// Recorder accumulates per-round, per-adversary attack accuracies and
// derives the paper's summary metrics.
type Recorder struct {
	rounds [][]float64 // rounds[t][a] = accuracy of adversary a at round t
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one round of per-adversary accuracies. The slice is
// copied. Rounds must be recorded in order.
func (r *Recorder) Record(accs []float64) {
	r.rounds = append(r.rounds, append([]float64(nil), accs...))
}

// NumRounds returns the number of recorded rounds.
func (r *Recorder) NumRounds() int { return len(r.rounds) }

// AAC returns the Average Attack Accuracy at round t.
func (r *Recorder) AAC(t int) float64 {
	return mathx.Mean(r.rounds[t])
}

// Series returns the AAC for every recorded round.
func (r *Recorder) Series() []float64 {
	out := make([]float64, len(r.rounds))
	for t := range r.rounds {
		out[t] = r.AAC(t)
	}
	return out
}

// MaxAAC returns the maximum AAC over all rounds and the round where
// it is attained (§V-C "Maximum Attack Accuracy"). It panics if no
// rounds were recorded.
func (r *Recorder) MaxAAC() (aac float64, round int) {
	if len(r.rounds) == 0 {
		panic("evalx: MaxAAC with no recorded rounds")
	}
	round = 0
	aac = r.AAC(0)
	for t := 1; t < len(r.rounds); t++ {
		if v := r.AAC(t); v > aac {
			aac, round = v, t
		}
	}
	return aac, round
}

// Best10At returns the minimum accuracy among the best 10% adversaries
// at round t — i.e. the 90th percentile of the accuracy distribution
// (§V-C "Best 10% AAC").
func (r *Recorder) Best10At(t int) float64 {
	return mathx.Quantile(r.rounds[t], 0.9)
}

// Result bundles the attack metrics of one experiment configuration in
// the exact shape of the paper's tables.
type Result struct {
	MaxAAC      float64 // Max AAC (%, when multiplied by 100)
	MaxRound    int     // round where Max AAC is attained
	Best10AAC   float64 // Best 10% AAC at MaxRound
	RandomBound float64
	UpperBound  float64   // mean adversary accuracy upper bound
	Series      []float64 // AAC per round
}

// Summarize derives a Result from the recorder plus the bound inputs.
// upper is the mean over adversaries of their observation upper bound
// (pass 1 for FL). With no recorded rounds (e.g. a zero-round run) it
// returns a zero-valued Result carrying only the bounds, which are
// configuration-derived and well-defined without any rounds.
func (r *Recorder) Summarize(randomBound, upper float64) Result {
	if len(r.rounds) == 0 {
		return Result{RandomBound: randomBound, UpperBound: upper}
	}
	aac, round := r.MaxAAC()
	return Result{
		MaxAAC:      aac,
		MaxRound:    round,
		Best10AAC:   r.Best10At(round),
		RandomBound: randomBound,
		UpperBound:  upper,
		Series:      r.Series(),
	}
}

func (res Result) String() string {
	return fmt.Sprintf("MaxAAC=%.1f%% (round %d) Best10%%=%.1f%% random=%.1f%% upper=%.1f%%",
		100*res.MaxAAC, res.MaxRound, 100*res.Best10AAC, 100*res.RandomBound, 100*res.UpperBound)
}
