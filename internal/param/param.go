// Package param provides named dense parameter sets — the wire format
// of the simulated collaborative-learning protocols.
//
// A model registers each of its tensors (user embeddings, item
// embeddings, output weights, ...) under a stable name. Protocol
// messages, FedAvg aggregation, gossip merging, the attack's momentum
// tracker (Eq. 4 of the paper) and the Share-less parameter filter all
// operate uniformly on these sets, so none of them needs to know which
// recommendation model is being trained.
package param

import (
	"fmt"
	"math"
	"sort"

	"github.com/collablearn/ciarec/internal/mathx"
)

// Entry is one named dense tensor. Data is row-major with Rows*Cols
// elements; vectors use Cols == 1.
type Entry struct {
	Name       string
	Rows, Cols int
	Data       []float64
}

// Set is an ordered collection of named tensors. The zero value is an
// empty set ready to use.
type Set struct {
	entries []Entry
	index   map[string]int
	// sig is the structural signature used by Buffers to key its
	// free-lists, maintained eagerly by Add so concurrent readers never
	// observe a cache fill.
	sig string
}

// New returns an empty set.
func New() *Set {
	return &Set{index: make(map[string]int)}
}

// Add registers a tensor under name, adopting (not copying) data.
// Models register their live storage so a Set doubles as a mutable
// view of the model; use Clone to snapshot it for a message.
// It panics on duplicate names or when len(data) != rows*cols.
func (s *Set) Add(name string, rows, cols int, data []float64) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	if _, dup := s.index[name]; dup {
		panic(fmt.Sprintf("param: duplicate entry %q", name))
	}
	if rows*cols != len(data) {
		panic(fmt.Sprintf("param: entry %q shape %dx%d != len %d", name, rows, cols, len(data)))
	}
	s.index[name] = len(s.entries)
	e := Entry{Name: name, Rows: rows, Cols: cols, Data: data}
	s.entries = append(s.entries, e)
	s.sig = appendEntrySig(s.sig, e)
}

// AddVector registers a length-n vector under name.
func (s *Set) AddVector(name string, data []float64) {
	s.Add(name, len(data), 1, data)
}

// AddMatrix registers a mathx.Matrix under name, adopting its storage.
func (s *Set) AddMatrix(name string, m *mathx.Matrix) {
	s.Add(name, m.Rows, m.Cols, m.Data)
}

// Has reports whether the set contains an entry called name.
func (s *Set) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Get returns the backing slice of the named entry.
// It panics if the entry does not exist.
func (s *Set) Get(name string) []float64 {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("param: no entry %q", name))
	}
	return s.entries[i].Data
}

// Entry returns the full entry metadata for name.
// It panics if the entry does not exist.
func (s *Set) Entry(name string) Entry {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("param: no entry %q", name))
	}
	return s.entries[i]
}

// Names returns the entry names in registration order.
func (s *Set) Names() []string {
	out := make([]string, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.Name
	}
	return out
}

// Len returns the number of entries.
func (s *Set) Len() int { return len(s.entries) }

// At returns the i'th entry in registration order. Together with Len
// it lets hot loops walk a set without the allocation of Names().
func (s *Set) At(i int) Entry { return s.entries[i] }

// NumParams returns the total number of scalar parameters.
func (s *Set) NumParams() int {
	var n int
	for _, e := range s.entries {
		n += len(e.Data)
	}
	return n
}

// Clone returns a deep copy of s (fresh backing storage).
func (s *Set) Clone() *Set {
	out := New()
	for _, e := range s.entries {
		d := make([]float64, len(e.Data))
		copy(d, e.Data)
		out.Add(e.Name, e.Rows, e.Cols, d)
	}
	return out
}

// CloneInto overwrites dst with a deep copy of s, reusing dst's
// backing storage when the shapes match. When dst is nil or shaped
// differently a fresh set is allocated, so the idiom
//
//	snapshot = src.CloneInto(snapshot)
//
// allocates on the first call and is allocation-free afterwards. It
// returns the destination.
func (s *Set) CloneInto(dst *Set) *Set {
	if dst == nil || !SameShape(dst, s) {
		return s.Clone()
	}
	for i := range dst.entries {
		copy(dst.entries[i].Data, s.entries[i].Data)
	}
	return dst
}

// Filter returns a deep copy containing only the entries whose names
// appear in keep. Missing names are ignored, so defenses can express
// "share item embeddings and the output layer" without knowing every
// model's full inventory. Registration order is preserved.
func (s *Set) Filter(keep ...string) *Set {
	want := make(map[string]struct{}, len(keep))
	for _, k := range keep {
		want[k] = struct{}{}
	}
	out := New()
	for _, e := range s.entries {
		if _, ok := want[e.Name]; !ok {
			continue
		}
		d := make([]float64, len(e.Data))
		copy(d, e.Data)
		out.Add(e.Name, e.Rows, e.Cols, d)
	}
	return out
}

// Without returns a deep copy excluding the named entries.
func (s *Set) Without(drop ...string) *Set {
	skip := make(map[string]struct{}, len(drop))
	for _, d := range drop {
		skip[d] = struct{}{}
	}
	out := New()
	for _, e := range s.entries {
		if _, ok := skip[e.Name]; ok {
			continue
		}
		d := make([]float64, len(e.Data))
		copy(d, e.Data)
		out.Add(e.Name, e.Rows, e.Cols, d)
	}
	return out
}

// SameShape reports whether a and b contain identical entries (names,
// registration order and shapes) — the precondition of every in-place
// binary operation on sets.
func SameShape(a, b *Set) bool {
	if len(a.entries) != len(b.entries) {
		return false
	}
	for i, e := range a.entries {
		o := b.entries[i]
		if e.Name != o.Name || e.Rows != o.Rows || e.Cols != o.Cols {
			return false
		}
	}
	return true
}

// sameShape panics unless a and b contain identical entries
// (names, order, shapes).
func sameShape(op string, a, b *Set) {
	if len(a.entries) != len(b.entries) {
		panic(fmt.Sprintf("param: %s entry count mismatch %d != %d", op, len(a.entries), len(b.entries)))
	}
	for i, e := range a.entries {
		o := b.entries[i]
		if e.Name != o.Name || e.Rows != o.Rows || e.Cols != o.Cols {
			panic(fmt.Sprintf("param: %s entry %d mismatch %q(%dx%d) != %q(%dx%d)",
				op, i, e.Name, e.Rows, e.Cols, o.Name, o.Rows, o.Cols))
		}
	}
}

// CopyFrom overwrites s with the values of src (shapes must match).
func (s *Set) CopyFrom(src *Set) {
	sameShape("CopyFrom", s, src)
	for i := range s.entries {
		copy(s.entries[i].Data, src.entries[i].Data)
	}
}

// CopyShared overwrites only the entries of s that also exist in src
// (matching shapes required). It returns the number of entries copied.
// This is how a Share-less client installs a received partial model.
func (s *Set) CopyShared(src *Set) int {
	var n int
	for i := range s.entries {
		e := &s.entries[i]
		j, ok := src.index[e.Name]
		if !ok {
			continue
		}
		o := src.entries[j]
		if o.Rows != e.Rows || o.Cols != e.Cols {
			panic(fmt.Sprintf("param: CopyShared shape mismatch for %q", e.Name))
		}
		copy(e.Data, o.Data)
		n++
	}
	return n
}

// Axpy computes s += alpha*x element-wise (shapes must match).
func (s *Set) Axpy(alpha float64, x *Set) {
	sameShape("Axpy", s, x)
	for i := range s.entries {
		mathx.Axpy(alpha, x.entries[i].Data, s.entries[i].Data)
	}
}

// Scale multiplies every parameter by alpha.
func (s *Set) Scale(alpha float64) {
	for _, e := range s.entries {
		mathx.Scale(alpha, e.Data)
	}
}

// Lerp performs the momentum update s = beta*s + (1-beta)*x (Eq. 4).
func (s *Set) Lerp(beta float64, x *Set) {
	sameShape("Lerp", s, x)
	for i := range s.entries {
		mathx.Lerp(beta, s.entries[i].Data, x.entries[i].Data)
	}
}

// L2Norm returns the Euclidean norm over all parameters.
func (s *Set) L2Norm() float64 {
	var sq float64
	for _, e := range s.entries {
		n := mathx.L2Norm(e.Data)
		sq += n * n
	}
	return math.Sqrt(sq)
}

// ClipL2 scales all parameters jointly so the global L2 norm does not
// exceed c, returning the factor applied (1 when no clipping occurred).
func (s *Set) ClipL2(c float64) float64 {
	if c <= 0 {
		return 1
	}
	n := s.L2Norm()
	if n <= c || n == 0 {
		return 1
	}
	f := c / n
	s.Scale(f)
	return f
}

// AddNoise adds independent N(0, stddev²) noise to every parameter
// using the provided generator-backed source.
func (s *Set) AddNoise(noise func() float64, stddev float64) {
	if stddev <= 0 {
		return
	}
	for _, e := range s.entries {
		for i := range e.Data {
			e.Data[i] += stddev * noise()
		}
	}
}

// Equal reports whether a and b have the same structure and all values
// within tol of each other.
func Equal(a, b *Set, tol float64) bool {
	if len(a.entries) != len(b.entries) {
		return false
	}
	for i, e := range a.entries {
		o := b.entries[i]
		if e.Name != o.Name || e.Rows != o.Rows || e.Cols != o.Cols {
			return false
		}
		for j := range e.Data {
			d := e.Data[j] - o.Data[j]
			if d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// String returns a compact structural description, e.g.
// "{item_emb:100x16 user_emb:50x16}".
func (s *Set) String() string {
	names := s.Names()
	sort.Strings(names)
	out := "{"
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		e := s.Entry(n)
		out += fmt.Sprintf("%s:%dx%d", n, e.Rows, e.Cols)
	}
	return out + "}"
}
