// Package dataset provides the implicit-feedback recommendation data
// substrate for the reproduction.
//
// The paper evaluates on MovieLens-100k, Foursquare-NYC and
// Gowalla-NYC. Those traces are not redistributable and the module is
// built offline, so this package supplies synthetic generators with
// *planted latent communities* that preserve the two statistical
// properties the Community Inference Attack exploits: non-iid user
// tastes, and groups of users sharing a taste. A loader for the real
// MovieLens `u.data` format is included for users who have the files
// (see LoadMovieLens100K) and drives the same experiments.
package dataset

import (
	"fmt"
	"math/rand/v2"
)

// Dataset is an implicit-feedback interaction dataset. Ratings are
// binarized as in the paper (§V-A): observed interactions are 1,
// everything else 0. Train holds each user's items in interaction
// order (PRME consumes the order; GMF ignores it).
type Dataset struct {
	Name     string
	NumUsers int
	NumItems int

	// Train[u] lists user u's training items in interaction order.
	Train [][]int
	// Test[u] lists user u's held-out items (empty before a split).
	Test [][]int

	// Categories[i] is the category id of item i, or nil when the
	// dataset has no item taxonomy. CategoryNames names the ids.
	Categories    []int
	CategoryNames []string

	// PlantedCommunity[u] is the generator's latent community for user
	// u, or nil for real data. It exists ONLY to validate generators in
	// tests and examples; ground-truth communities for experiments are
	// always recomputed from the data via the Jaccard criterion
	// (internal/evalx), exactly as the paper defines them.
	PlantedCommunity []int

	trainSets []map[int]struct{}
	// trainBits[u] is a bitset over the item catalogue mirroring
	// trainSets[u]. Negative sampling is the hottest membership probe in
	// the repository (every SGD step and every HR sweep draws through
	// it), and a word test is an order of magnitude cheaper than a map
	// lookup. nil when the users×items bit table would exceed
	// trainBitsMaxBytes; SampleNegative then falls back to the maps.
	trainBits [][]uint64
}

// trainBitsMaxBytes caps the memory the bitset membership index may
// take (64 MiB ≈ a 250k-user × 2k-item catalogue, far beyond the
// paper-scale datasets). Larger shapes keep the map-only path.
const trainBitsMaxBytes = 64 << 20

// New assembles a dataset from explicit training interactions (test
// splits start empty). train may be shorter than numUsers; missing
// users get empty histories. The slices are adopted, not copied.
func New(name string, numUsers, numItems int, train [][]int) (*Dataset, error) {
	if numUsers <= 0 || numItems <= 0 {
		return nil, fmt.Errorf("dataset: New requires positive sizes, got %d/%d", numUsers, numItems)
	}
	if len(train) > numUsers {
		return nil, fmt.Errorf("dataset: %d train histories for %d users", len(train), numUsers)
	}
	d := &Dataset{
		Name:     name,
		NumUsers: numUsers,
		NumItems: numItems,
		Train:    make([][]int, numUsers),
		Test:     make([][]int, numUsers),
	}
	copy(d.Train, train)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.finalize()
	return d, nil
}

// finalize builds the cached per-user train sets (maps for the TrainSet
// API, bitsets for the sampling hot path). Every constructor and split
// must call it after mutating Train.
func (d *Dataset) finalize() {
	d.trainSets = make([]map[int]struct{}, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		set := make(map[int]struct{}, len(d.Train[u]))
		for _, it := range d.Train[u] {
			set[it] = struct{}{}
		}
		d.trainSets[u] = set
	}
	words := (d.NumItems + 63) / 64
	if int64(d.NumUsers)*int64(words)*8 > trainBitsMaxBytes {
		d.trainBits = nil
		return
	}
	bits := make([]uint64, d.NumUsers*words)
	d.trainBits = make([][]uint64, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		row := bits[u*words : (u+1)*words]
		for _, it := range d.Train[u] {
			row[it>>6] |= 1 << (uint(it) & 63)
		}
		d.trainBits[u] = row
	}
}

// TrainSet returns user u's training items as a set. The returned map
// is shared; callers must not mutate it.
func (d *Dataset) TrainSet(u int) map[int]struct{} { return d.trainSets[u] }

// NumInteractions returns the total number of training interactions.
func (d *Dataset) NumInteractions() int {
	var n int
	for _, items := range d.Train {
		n += len(items)
	}
	return n
}

// SampleNegative draws an item the user has not interacted with in
// either split. It panics if the user has interacted with every item.
//
// The rejection loop consumes the generator identically whichever
// membership index answers the probe (bitset or map), so sampling
// streams — and therefore every downstream result — are independent of
// the index the dataset shape selected.
func (d *Dataset) SampleNegative(r *rand.Rand, u int) int {
	if len(d.Train[u])+len(d.Test[u]) >= d.NumItems {
		panic(fmt.Sprintf("dataset: user %d has no negative items", u))
	}
	if bits := d.trainBits; bits != nil {
		row := bits[u]
		test := d.Test[u]
		for {
			it := r.IntN(d.NumItems)
			if row[it>>6]&(1<<(uint(it)&63)) != 0 {
				continue
			}
			held := false
			for _, h := range test {
				if h == it {
					held = true
					break
				}
			}
			if !held {
				return it
			}
		}
	}
	for {
		it := r.IntN(d.NumItems)
		if _, pos := d.trainSets[u][it]; pos {
			continue
		}
		held := false
		for _, h := range d.Test[u] {
			if h == it {
				held = true
				break
			}
		}
		if !held {
			return it
		}
	}
}

// SplitLeaveOneOut moves the last training interaction of every user
// with at least min items into the test split (the NCF evaluation
// protocol used for GMF's HR@K). Users below the threshold keep all
// items in train and get an empty test set.
func (d *Dataset) SplitLeaveOneOut(min int) {
	if min < 2 {
		min = 2
	}
	for u := 0; u < d.NumUsers; u++ {
		if len(d.Train[u]) < min {
			continue
		}
		last := len(d.Train[u]) - 1
		d.Test[u] = append(d.Test[u], d.Train[u][last])
		d.Train[u] = d.Train[u][:last]
	}
	d.finalize()
}

// SplitFraction moves the trailing frac of every user's interactions
// into the test split (used for PRME's F1@K). Each user keeps at least
// two training items and at most len-1 are held out.
func (d *Dataset) SplitFraction(frac float64) {
	if frac <= 0 || frac >= 1 {
		panic(fmt.Sprintf("dataset: SplitFraction frac %v out of (0,1)", frac))
	}
	for u := 0; u < d.NumUsers; u++ {
		n := len(d.Train[u])
		k := int(float64(n) * frac)
		if k > n-2 {
			k = n - 2
		}
		if k <= 0 {
			continue
		}
		cut := n - k
		d.Test[u] = append(d.Test[u], d.Train[u][cut:]...)
		d.Train[u] = d.Train[u][:cut]
	}
	d.finalize()
}

// CategoryShare returns, for user u, the fraction of training
// interactions whose item belongs to category c. It returns 0 when the
// dataset has no categories or the user has no interactions.
func (d *Dataset) CategoryShare(u, c int) float64 {
	if d.Categories == nil || len(d.Train[u]) == 0 {
		return 0
	}
	var n int
	for _, it := range d.Train[u] {
		if d.Categories[it] == c {
			n++
		}
	}
	return float64(n) / float64(len(d.Train[u]))
}

// GlobalCategoryShare returns the fraction of all training
// interactions that fall in category c.
func (d *Dataset) GlobalCategoryShare(c int) float64 {
	if d.Categories == nil {
		return 0
	}
	var n, total int
	for u := range d.Train {
		for _, it := range d.Train[u] {
			if d.Categories[it] == c {
				n++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// CategoryID returns the id for a category name, or -1 if absent.
func (d *Dataset) CategoryID(name string) int {
	for i, n := range d.CategoryNames {
		if n == name {
			return i
		}
	}
	return -1
}

// ItemsInCategory returns every item id whose category is c.
func (d *Dataset) ItemsInCategory(c int) []int {
	var out []int
	for it, cat := range d.Categories {
		if cat == c {
			out = append(out, it)
		}
	}
	return out
}

// Clone returns a deep copy of the dataset (fresh slices and sets).
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		Name:     d.Name,
		NumUsers: d.NumUsers,
		NumItems: d.NumItems,
		Train:    make([][]int, d.NumUsers),
		Test:     make([][]int, d.NumUsers),
	}
	for u := range d.Train {
		out.Train[u] = append([]int(nil), d.Train[u]...)
		out.Test[u] = append([]int(nil), d.Test[u]...)
	}
	if d.Categories != nil {
		out.Categories = append([]int(nil), d.Categories...)
		out.CategoryNames = append([]string(nil), d.CategoryNames...)
	}
	if d.PlantedCommunity != nil {
		out.PlantedCommunity = append([]int(nil), d.PlantedCommunity...)
	}
	out.finalize()
	return out
}

// Validate checks structural invariants and returns the first
// violation found, or nil. It is cheap enough to call from tests after
// every split.
func (d *Dataset) Validate() error {
	if d.NumUsers != len(d.Train) || d.NumUsers != len(d.Test) {
		return fmt.Errorf("dataset %s: user count %d != train %d / test %d",
			d.Name, d.NumUsers, len(d.Train), len(d.Test))
	}
	if d.Categories != nil && len(d.Categories) != d.NumItems {
		return fmt.Errorf("dataset %s: categories %d != items %d",
			d.Name, len(d.Categories), d.NumItems)
	}
	for u := 0; u < d.NumUsers; u++ {
		seen := make(map[int]struct{}, len(d.Train[u])+len(d.Test[u]))
		for _, it := range d.Train[u] {
			if it < 0 || it >= d.NumItems {
				return fmt.Errorf("dataset %s: user %d train item %d out of range", d.Name, u, it)
			}
			if _, dup := seen[it]; dup {
				return fmt.Errorf("dataset %s: user %d duplicate item %d", d.Name, u, it)
			}
			seen[it] = struct{}{}
		}
		for _, it := range d.Test[u] {
			if it < 0 || it >= d.NumItems {
				return fmt.Errorf("dataset %s: user %d test item %d out of range", d.Name, u, it)
			}
			if _, dup := seen[it]; dup {
				return fmt.Errorf("dataset %s: user %d item %d in both splits", d.Name, u, it)
			}
			seen[it] = struct{}{}
		}
	}
	return nil
}

// Stats summarizes a dataset for logs and the datagen CLI.
type Stats struct {
	Users, Items, Interactions int
	MinPerUser, MaxPerUser     int
	MeanPerUser                float64
	Density                    float64
}

// ComputeStats returns summary statistics over the training split.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{Users: d.NumUsers, Items: d.NumItems}
	if d.NumUsers == 0 {
		return s
	}
	s.MinPerUser = len(d.Train[0])
	for _, items := range d.Train {
		n := len(items)
		s.Interactions += n
		if n < s.MinPerUser {
			s.MinPerUser = n
		}
		if n > s.MaxPerUser {
			s.MaxPerUser = n
		}
	}
	s.MeanPerUser = float64(s.Interactions) / float64(s.Users)
	if d.NumItems > 0 {
		s.Density = float64(s.Interactions) / (float64(s.Users) * float64(s.Items))
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("users=%d items=%d interactions=%d per-user[min=%d mean=%.1f max=%d] density=%.4f",
		s.Users, s.Items, s.Interactions, s.MinPerUser, s.MeanPerUser, s.MaxPerUser, s.Density)
}
