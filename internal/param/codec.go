package param

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
)

// Lossy wire compression for parameter sets: sparse-index encoding of
// mostly-zero payloads (sorted u32 coordinates + values) combined with
// 8- or 16-bit linear quantization. It is the transport-level
// counterpart of the defense layer's top-k sparsification
// (internal/defense): a sparsified delta that the policy re-densified
// goes back on the wire as indices and quantized values instead of a
// full dense float64 image.
//
// Format (little-endian):
//
//	magic "CPQ1" | uint8 bits | uint32 numEntries | entries...
//	entry: uint32 nameLen | name | uint32 rows | uint32 cols | uint8 flags
//	  flags bit0: sparse — payload stores only nonzero coordinates
//	  flags bit1: delta  — values are offsets against a reference set
//	               the decoder must supply (DecodeFromRef)
//	dense payload:  float64 lo | float64 hi | n × level
//	sparse payload: uint32 nnz | float64 lo | float64 hi |
//	                nnz × (uint32 index | level)
//
// A level is a uint8 or uint16 (per the prologue's bits field) on the
// uniform grid between lo and hi; sparse indices are strictly
// ascending row-major coordinates. The encoder picks the smaller of
// the two payload forms per entry, so the format degrades gracefully:
// dense-ish payloads cost n·bits/8 bytes, sparse ones nnz·(4+bits/8).
//
// Both decoders, ReadFrom and DecodeFromRef, accept this format and
// the dense CPS1 format of serialize.go by sniffing the 4-byte magic,
// which is what lets one transport seam negotiate compression per
// payload. The CPQ1 pieces below — flags, quantization range,
// dequantizer, sparse body — are what wireReader.entry adds to the
// CPS1 entry decode.
const compressMagic = "CPQ1"

const (
	flagSparse byte = 1 << 0
	flagDelta  byte = 1 << 1
)

// codecRangeLimit bounds the values (after delta subtraction) the
// compressed codec accepts: keeping lo/hi within ±1e300 guarantees
// every reconstructed grid point is finite, so a decoded set can
// always be re-encoded. A recommender simulation that leaves this
// range has diverged long before compression is its problem.
const codecRangeLimit = 1e300

// sparseExpandBudget caps how many coordinates ReadFrom will
// materialize for sparse entries across one stream: a sparse entry's
// dense size is claimed by its header, not carried as bytes, so without
// a cap a ~40-byte stream could demand gigabytes of zero-fill. 2^22
// float64s = 32 MiB. DecodeFromRef needs no such cap — it writes into
// the receiver's storage, which exists before any byte is read.
const sparseExpandBudget = 1 << 22

// Compression selects the lossy wire codec. The zero value disables
// compression: payloads travel as dense float64 CPS1 streams and the
// transport stays value-transparent (the tolerance-0 golden
// reference). Bits 8 or 16 enable CPQ1 sparse+quantized encoding.
//
// Error contract: with span = hi − lo the quantization range of an
// entry (its value range, or its delta range when a reference is in
// play), every reconstructed coordinate v' of an original value v
// satisfies |v' − v| ≤ MaxError(span) — up to ordinary float64
// rounding of the reconstruction arithmetic, and provided the grid is
// not degenerate (span not many orders of magnitude below the values'
// magnitude, where float64 itself cannot tell grid points apart).
// Coordinates the sparse form leaves unstored are exact: zero, or the
// reference value under delta coding. The bound is tested in
// codec_test.go.
type Compression struct {
	// Bits is the quantization width per stored coordinate: 0 disables
	// compression, 8 and 16 select the CPQ1 level width.
	Bits int
}

// Enabled reports whether the lossy codec is selected.
func (c Compression) Enabled() bool { return c.Bits != 0 }

// Validate rejects widths the codec does not implement.
func (c Compression) Validate() error {
	switch c.Bits {
	case 0, 8, 16:
		return nil
	}
	return fmt.Errorf("param: unsupported compression %d (want off, 8 or 16 bits)", c.Bits)
}

// String renders the knob the way ParseCompression reads it.
func (c Compression) String() string {
	if !c.Enabled() {
		return "off"
	}
	return fmt.Sprintf("%dbit", c.Bits)
}

// ParseCompression reads a compression spec: "off" (or "", "none")
// disables, "8bit"/"8" and "16bit"/"16" select the width.
func ParseCompression(s string) (Compression, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off", "none", "0":
		return Compression{}, nil
	case "8", "8bit":
		return Compression{Bits: 8}, nil
	case "16", "16bit":
		return Compression{Bits: 16}, nil
	}
	return Compression{}, fmt.Errorf("param: unknown compression %q (want off, 8bit or 16bit)", s)
}

// MaxError returns the documented per-coordinate reconstruction error
// bound for a quantization span of hi−lo = span: half a grid step for
// dense coordinates, plus up to one more step for the sparse form's
// zero-avoidance nudge (see quantizer.levelNonzero).
func (c Compression) MaxError(span float64) float64 {
	if !c.Enabled() {
		return 0
	}
	return 1.5 * span / float64(int(1)<<c.Bits-1)
}

// levelBytes is the stored size of one quantized level.
func (c Compression) levelBytes() int { return c.Bits / 8 }

// quantizer maps values in [lo, hi] onto 2^bits uniformly spaced
// levels and back. Levels 0 and max reconstruct exactly lo and hi, so
// the extremes of a payload survive the codec bit-for-bit and a
// decoded set re-encodes onto the identical grid.
type quantizer struct {
	lo, hi, step float64
	max          int
	// fast marks a well-conditioned grid — a normal (not subnormal)
	// step and a span of at least 2^-20 of the range's magnitude —
	// on which level may skip the neighbour probe (see guess).
	fast bool
}

func newQuantizer(c Compression, lo, hi float64) quantizer {
	m := int(1)<<c.Bits - 1
	step := (hi - lo) / float64(m)
	return quantizer{
		lo: lo, hi: hi, step: step, max: m,
		fast: step >= 0x1p-1022 && hi-lo >= 0x1p-20*max(math.Abs(lo), math.Abs(hi)),
	}
}

// value reconstructs a level.
func (q quantizer) value(l int) float64 {
	switch l {
	case 0:
		return q.lo
	case q.max:
		return q.hi
	}
	return q.lo + float64(l)*q.step
}

// level returns the canonical level for v: the level whose
// reconstruction is nearest to v, lowest level on ties. The ±1
// neighbour probe after the arithmetic guess makes grid points
// quantize back to themselves even when (v−lo)/step cannot be
// evaluated exactly — which is what makes encode∘decode∘encode
// byte-stable. The probe is skipped where guess proves it would not
// move the answer.
func (q quantizer) level(v float64) int {
	l, r, ok := q.guess(v)
	if !ok {
		l = q.probe(v, r)
	}
	return l
}

// guess is level's probe-free fast path, small enough to inline into
// the encode loops: it returns the quotient r = (v−lo)/step, a
// candidate level l = int(r + 0.5), and ok when l is certainly the
// level the probe would pick — on a fast grid, l interior
// (0 < l < max) and |r − l| < 0.49, which also makes l the nearest
// integer to r. Otherwise the caller runs probe(v, r).
//
// Why ok is safe: r is within 2^-36 steps of the exact quotient (two
// roundings, |r| < 2^16), so v lies within 0.49 + 2^-36 steps of grid
// point lo + l·step and at least 0.51 − 2^-36 steps from lo + (l±1)·step.
// Each reconstruction value(k) the probe compares is within ~2^-16
// steps of lo + k·step: a normal step keeps k·step at full precision,
// the span condition bounds the rounding of the sum by
// 2^-53·max(|lo|, |hi|) ≤ 2^-17 steps, and hi is within 2^-36 steps of
// lo + max·step. So the probe's computed distance to l is smaller than
// to l±1 by at least ~0.02 steps, its guess round(r) is l too, and it
// returns l. codec_kernel_test.go holds level to the frozen
// probe-only implementation in codec_oracle_test.go.
func (q quantizer) guess(v float64) (l int, r float64, ok bool) {
	r = (v - q.lo) / q.step
	l = int(r + 0.5)
	return l, r, q.fast && l > 0 && l < q.max && math.Abs(r-float64(l)) < 0.49
}

// probe is level's general path: clamp the arithmetic guess round(r)
// to the grid, then take the nearest of it and its two neighbours.
func (q quantizer) probe(v, r float64) int {
	if q.step <= 0 {
		return 0
	}
	f := math.Round(r)
	var l int
	switch {
	case f < 0:
		l = 0
	case f > float64(q.max):
		l = q.max
	default:
		l = int(f)
	}
	best, bd := l, math.Abs(v-q.value(l))
	for _, cand := range [2]int{l - 1, l + 1} {
		if cand < 0 || cand > q.max {
			continue
		}
		if d := math.Abs(v - q.value(cand)); d < bd || (d == bd && cand < best) {
			best, bd = cand, d
		}
	}
	return best
}

// levelNonzero is level for sparse-entry coordinates, which are
// nonzero by selection and must stay nonzero through the codec: a
// stored level reconstructing exactly 0.0 would be dropped from the
// index set on re-encode. Such a level is nudged to the nearest level
// with a nonzero reconstruction — one always exists, because lo and
// hi are themselves stored nonzero values.
func (q quantizer) levelNonzero(v float64) int {
	l := q.level(v)
	if q.value(l) != 0 {
		return l
	}
	for off := 1; ; off++ {
		if u := l + off; u <= q.max && q.value(u) != 0 {
			return u
		}
		if d := l - off; d >= 0 && q.value(d) != 0 {
			return d
		}
	}
}

// quantize writes the level of every coordinate of data − ref (data
// alone when ref is nil) to dst, lb bytes per level.
func (q quantizer) quantize(dst []byte, lb int, data, ref []float64) {
	if ref != nil {
		ref = ref[:len(data)]
	}
	if lb == 1 {
		dst = dst[:len(data)]
		for j, v := range data {
			if ref != nil {
				v -= ref[j]
			}
			l, r, ok := q.guess(v)
			if !ok {
				l = q.probe(v, r)
			}
			dst[j] = byte(l)
		}
		return
	}
	dst = dst[:2*len(data)]
	for j, v := range data {
		if ref != nil {
			v -= ref[j]
		}
		l, r, ok := q.guess(v)
		if !ok {
			l = q.probe(v, r)
		}
		binary.LittleEndian.PutUint16(dst[2*j:], uint16(l))
	}
}

// quantizeSparse writes (index, level) pairs for the nonzero
// coordinates of data − ref (data alone when ref is nil), starting at
// index from, until data is exhausted or dst has no room for another
// pair. It returns the bytes written and the index to resume from.
func (q quantizer) quantizeSparse(dst []byte, lb int, data, ref []float64, from int) (k, next int) {
	if ref != nil {
		ref = ref[:len(data)]
	}
	j := from
	if lb == 1 {
		for ; j < len(data) && k+5 <= len(dst); j++ {
			v := data[j]
			if ref != nil {
				v -= ref[j]
			}
			if v == 0 {
				continue
			}
			l, _, ok := q.guess(v)
			if !ok || q.value(l) == 0 {
				l = q.levelNonzero(v)
			}
			binary.LittleEndian.PutUint32(dst[k:], uint32(j))
			dst[k+4] = byte(l)
			k += 5
		}
		return k, j
	}
	for ; j < len(data) && k+6 <= len(dst); j++ {
		v := data[j]
		if ref != nil {
			v -= ref[j]
		}
		if v == 0 {
			continue
		}
		l, _, ok := q.guess(v)
		if !ok || q.value(l) == 0 {
			l = q.levelNonzero(v)
		}
		binary.LittleEndian.PutUint32(dst[k:], uint32(j))
		binary.LittleEndian.PutUint16(dst[k+4:], uint16(l))
		k += 6
	}
	return k, j
}

// payloadRange summarizes one entry's (delta) payload for the encoder:
// the range of all coordinates, the range of the nonzero ones, and how
// many are nonzero. Empty ranges are [0, 0].
type payloadRange struct {
	lo, hi     float64
	loNZ, hiNZ float64
	nnz        int
}

// scanPayload computes the payloadRange of data − ref (data alone when
// ref is nil), or returns the index of the first value that is NaN or
// beyond ±codecRangeLimit (bad is −1 otherwise). The loop tracks only
// the nonzero range and counts zeros by sign; the full range follows
// from them. lo and hi go on the wire, so they must equal what
// math.Min/math.Max would give, signed zeros included: where a zero is
// an end of the range, lo is −0 if any −0 occurred and hi is +0 if any
// +0 did.
func scanPayload(data, ref []float64) (pr payloadRange, bad int) {
	if ref != nil {
		ref = ref[:len(data)]
	}
	loNZ, hiNZ := math.Inf(1), math.Inf(-1)
	var nnz, negZeros int
	for j, v := range data {
		if ref != nil {
			v -= ref[j]
		}
		if !(math.Abs(v) <= codecRangeLimit) {
			return pr, j
		}
		if v != 0 {
			nnz++
			if v < loNZ {
				loNZ = v
			}
			if v > hiNZ {
				hiNZ = v
			}
		} else {
			negZeros += int(math.Float64bits(v) >> 63)
		}
	}
	if nnz == 0 {
		loNZ, hiNZ = 0, 0
	}
	lo, hi := loNZ, hiNZ
	if zeros := len(data) - nnz; zeros > 0 {
		if !(lo < 0) {
			lo = 0
			if negZeros > 0 {
				lo = math.Copysign(0, -1)
			}
		}
		if !(hi > 0) {
			hi = math.Copysign(0, -1)
			if negZeros < zeros {
				hi = 0
			}
		}
	}
	return payloadRange{lo: lo, hi: hi, loNZ: loNZ, hiNZ: hiNZ, nnz: nnz}, -1
}

// WriteCompressedTo serializes the set with the lossy CPQ1 codec.
// When ref is non-nil, entries with a same-name same-shape entry in
// ref are delta-coded against it — the transports pass the round's
// broadcast source here, so an upload that diverges from the global
// model in few coordinates encodes as a genuinely sparse delta. The
// resulting stream decodes through DecodeFromRef with the same ref
// (delta-free streams also through ReadFrom).
//
// All values (after delta subtraction) must be finite and within
// ±1e300; see Compression for the reconstruction-error contract.
func (s *Set) WriteCompressedTo(w io.Writer, c Compression, ref *Set) (int64, error) {
	if c.Bits != 8 && c.Bits != 16 {
		return 0, fmt.Errorf("param: unsupported compression %d (want 8 or 16 bits)", c.Bits)
	}
	return s.encode(w, c, ref)
}

// quantized writes entry e's CPQ1 flags and payload, delta-coded
// against re's values when re is non-nil.
func (ew *wireWriter) quantized(c Compression, e, re *Entry) {
	var refData []float64
	if re != nil {
		refData = re.Data
	}
	// First pass: value range and sparsity of the (delta) payload.
	pr, bad := scanPayload(e.Data, refData)
	if bad >= 0 {
		v := e.Data[bad]
		if refData != nil {
			v -= refData[bad]
		}
		if ew.err == nil {
			ew.err = fmt.Errorf("param: entry %q: value %g at %d outside the codec's ±%g range",
				e.Name, v, bad, float64(codecRangeLimit))
		}
		return
	}
	lb := c.levelBytes()
	sparse := 20+pr.nnz*(4+lb) < 16+len(e.Data)*lb
	flags := byte(0)
	if sparse {
		flags |= flagSparse
	}
	if refData != nil {
		flags |= flagDelta
	}
	ew.u8(flags)
	if sparse {
		ew.u32(uint32(pr.nnz))
		ew.f64(pr.loNZ)
		ew.f64(pr.hiNZ)
		q := newQuantizer(c, pr.loNZ, pr.hiNZ)
		for j := 0; j < len(e.Data) && ew.err == nil; {
			var k int
			k, j = q.quantizeSparse(ew.scratch, lb, e.Data, refData, j)
			ew.write(ew.scratch[:k])
		}
		return
	}
	ew.f64(pr.lo)
	ew.f64(pr.hi)
	q := newQuantizer(c, pr.lo, pr.hi)
	per := len(ew.scratch) / lb
	for lo := 0; lo < len(e.Data) && ew.err == nil; lo += per {
		hi := min(lo+per, len(e.Data))
		var rd []float64
		if refData != nil {
			rd = refData[lo:hi]
		}
		buf := ew.scratch[:lb*(hi-lo)]
		q.quantize(buf, lb, e.Data[lo:hi], rd)
		ew.write(buf)
	}
}

func (d *wireReader) u8(v *byte) error {
	if err := d.full(d.scratch[:1]); err != nil {
		return err
	}
	*v = d.scratch[0]
	return nil
}

func (d *wireReader) f64(v *float64) error {
	if err := d.full(d.scratch[:8]); err != nil {
		return err
	}
	*v = math.Float64frombits(binary.LittleEndian.Uint64(d.scratch[:8]))
	return nil
}

// quantRange reads and validates one entry's lo/hi quantization range.
// The ±1e300 limit mirrors the encoder's, so every level of a valid
// stream reconstructs to a finite value.
func (d *wireReader) quantRange() (quantizer, error) {
	var lo, hi float64
	if err := d.f64(&lo); err != nil {
		return quantizer{}, fmt.Errorf("quantization range: %w", err)
	}
	if err := d.f64(&hi); err != nil {
		return quantizer{}, fmt.Errorf("quantization range: %w", err)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi ||
		lo < -codecRangeLimit || hi > codecRangeLimit {
		return quantizer{}, fmt.Errorf("invalid quantization range [%g, %g]", lo, hi)
	}
	return newQuantizer(d.comp, lo, hi), nil
}

// dequantizer reconstructs the stored levels of one entry. At 8 bits
// an entry storing at least 256 levels decodes through a table of all
// 256 reconstructions, filled from quantizer.value — bit-identical by
// construction, and one load per coordinate instead of a multiply-add
// and two compares (below 256 levels the fill would cost more than it
// saves).
type dequantizer struct {
	q      quantizer
	lb     int
	tabled bool
	table  [256]float64
}

// reset prepares dq for an entry on grid q storing n levels.
func (dq *dequantizer) reset(q quantizer, lb int, n uint64) {
	dq.q, dq.lb = q, lb
	dq.tabled = lb == 1 && n >= uint64(len(dq.table))
	if dq.tabled {
		for l := range dq.table {
			dq.table[l] = q.value(l)
		}
	}
}

// dense reconstructs len(dst) consecutive levels stored in src into
// dst, each added to ref's coordinate when ref is non-nil.
func (dq *dequantizer) dense(dst []float64, src []byte, ref []float64) {
	if ref != nil {
		ref = ref[:len(dst)]
	}
	q := dq.q
	switch {
	case dq.tabled:
		t := &dq.table
		for j, b := range src[:len(dst)] {
			v := t[b]
			if ref != nil {
				v = ref[j] + v
			}
			dst[j] = v
		}
	case dq.lb == 1:
		for j, b := range src[:len(dst)] {
			v := q.value(int(b))
			if ref != nil {
				v = ref[j] + v
			}
			dst[j] = v
		}
	default:
		src = src[:2*len(dst)]
		for j := range dst {
			v := q.value(int(binary.LittleEndian.Uint16(src[2*j:])))
			if ref != nil {
				v = ref[j] + v
			}
			dst[j] = v
		}
	}
}

// sparse scatters the (index, level) pairs stored in src into dst —
// dst[idx] = v, or dst[idx] += v when add is set — checking that the
// indices ascend strictly from prev and stay inside dst. It returns
// the last index scattered.
func (dq *dequantizer) sparse(dst []float64, src []byte, prev int, add bool) (int, error) {
	pair := 4 + dq.lb
	for off := 0; off+pair <= len(src); off += pair {
		idx := int(binary.LittleEndian.Uint32(src[off:]))
		if idx <= prev {
			return prev, fmt.Errorf("sparse index %d after %d (want strictly ascending)", idx, prev)
		}
		if idx >= len(dst) {
			return prev, fmt.Errorf("sparse index %d out of range (size %d)", idx, len(dst))
		}
		prev = idx
		var v float64
		switch {
		case dq.tabled:
			v = dq.table[src[off+4]]
		case dq.lb == 1:
			v = dq.q.value(int(src[off+4]))
		default:
			v = dq.q.value(int(binary.LittleEndian.Uint16(src[off+4:])))
		}
		if add {
			dst[idx] += v
		} else {
			dst[idx] = v
		}
	}
	return prev, nil
}

// sparseBody reads a sparse entry payload — nnz (index, level) pairs —
// and scatters it into dst through d.dq.sparse. The pairs stream
// through scratch, so a lying nnz costs no allocation.
func (d *wireReader) sparseBody(dst []float64, nnz uint32, add bool) error {
	pair := 4 + d.dq.lb
	perChunk := len(d.scratch) / pair
	prev := -1
	for read := 0; read < int(nnz); {
		cn := min(int(nnz)-read, perChunk)
		buf := d.scratch[:pair*cn]
		if err := d.full(buf); err != nil {
			return err
		}
		var err error
		if prev, err = d.dq.sparse(dst, buf, prev, add); err != nil {
			return err
		}
		read += cn
	}
	return nil
}
