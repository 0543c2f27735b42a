package param

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"unsafe"
)

// Binary serialization for parameter sets: the payload codec of the
// transports (internal/transport) and the byte-accounting basis for
// the protocols' communication metrics.
//
// Format (little-endian):
//
//	magic "CPS1" | uint32 numEntries | entries...
//	entry: uint32 nameLen | name | uint32 rows | uint32 cols | float64s
//
// The lossy CPQ1 format (codec.go) shares the prologue shape and the
// entry header. One encoder writes both formats through a wireWriter,
// and one per-entry decoder (wireReader.entry) reads both, in the mode
// of either entry point: ReadFrom's untrusted decode into fresh
// storage, or DecodeFromRef's in-place decode into a receiver of
// matching structure.
const serializeMagic = "CPS1"

// floatChunk is the streaming granularity (in float64s) of the codec:
// entry data moves through a pooled fixed-size scratch buffer instead
// of one allocation per entry, so (a) the steady-state wire transport
// encodes and decodes without allocating, and (b) a malformed header
// claiming a huge entry cannot force a large upfront allocation —
// ReadFrom's storage grows with the data that actually arrives, at
// most one chunk ahead of it.
const floatChunk = 1024

// scratchPool recycles the codec's chunk buffers. Encodes and decodes
// run concurrently on worker goroutines under the wire transport, so
// the scratch cannot be package-level state.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 8*floatChunk)
		return &b
	},
}

// codecFastPath selects the zero-copy entry-payload codec: on hosts
// whose native byte order is the wire order (little-endian — every
// platform this module targets), a []float64 payload and its encoded
// bytes share one memory representation, so entry data moves as bulk
// copies instead of a binary.LittleEndian+math.Float64bits loop per
// float. Detected once at init and read once per direction
// (wireWriter.floats, wireReader.floats); the portable per-float path
// stays compiled (and exercised by tests that clear this flag) for
// big-endian hosts. The wire format is identical on both paths.
var codecFastPath = binary.NativeEndian.Uint16([]byte{0x01, 0x00}) == 1

// floatsAsBytes views a []float64 as its in-memory bytes. The view is
// only used on little-endian hosts, where it equals the wire encoding
// of the payload.
func floatsAsBytes(f []float64) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 8*len(f))
}

// WriteTo serializes the set in the dense CPS1 format. It implements
// io.WriterTo.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	return s.encode(w, Compression{}, nil)
}

// encode writes s in the format c selects — CPS1 when c is off, CPQ1
// delta-coded against ref otherwise. Writers that are already buffered
// or in-memory (anything implementing io.ByteWriter, e.g. *bytes.Buffer
// or *bufio.Writer) are written directly; others are wrapped in a
// bufio.Writer first.
func (s *Set) encode(w io.Writer, c Compression, ref *Set) (int64, error) {
	if _, ok := w.(io.ByteWriter); !ok {
		bw := bufio.NewWriter(w)
		n, err := s.encode(bw, c, ref)
		if err == nil {
			err = bw.Flush()
		}
		return n, err
	}
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	ew := wireWriter{w: w, scratch: *sp}
	ew.header(c, len(s.entries))
	for i := range s.entries {
		e := &s.entries[i]
		ew.u32(uint32(len(e.Name)))
		ew.str(e.Name)
		ew.u32(uint32(e.Rows))
		ew.u32(uint32(e.Cols))
		if c.Enabled() {
			ew.quantized(c, e, ref.matching(e))
		} else {
			ew.floats(e.Data)
		}
		if ew.err != nil {
			break
		}
	}
	return ew.n, ew.err
}

// wireWriter encodes the codec stream through the shared scratch
// buffer, counting the bytes written. It keeps the first error and
// turns every later write into a no-op, so the encoder checks once per
// entry instead of after every field.
type wireWriter struct {
	w       io.Writer
	scratch []byte
	n       int64
	err     error
}

func (ew *wireWriter) write(b []byte) {
	if ew.err == nil {
		var k int
		k, ew.err = ew.w.Write(b)
		ew.n += int64(k)
	}
}

func (ew *wireWriter) str(s string) {
	if ew.err == nil {
		var k int
		k, ew.err = io.WriteString(ew.w, s)
		ew.n += int64(k)
	}
}

func (ew *wireWriter) u8(v byte) {
	ew.scratch[0] = v
	ew.write(ew.scratch[:1])
}

func (ew *wireWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(ew.scratch[:4], v)
	ew.write(ew.scratch[:4])
}

func (ew *wireWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(ew.scratch[:8], math.Float64bits(v))
	ew.write(ew.scratch[:8])
}

// header writes the stream prologue: the magic (with CPQ1's
// quantization width) and the entry count.
func (ew *wireWriter) header(c Compression, count int) {
	if c.Enabled() {
		ew.str(compressMagic)
		ew.u8(byte(c.Bits))
	} else {
		ew.str(serializeMagic)
	}
	ew.u32(uint32(count))
}

// floats writes a raw float64 payload.
func (ew *wireWriter) floats(f []float64) {
	if codecFastPath {
		// Zero-copy: the payload's memory is its wire encoding, so hand
		// it to the writer as one slice (writers here copy — bytes.Buffer,
		// bufio — so exposing live model storage is safe, and is exactly
		// what the scalar loop reads anyway).
		ew.write(floatsAsBytes(f))
		return
	}
	for len(f) > 0 {
		chunk := f[:min(floatChunk, len(f))]
		f = f[len(chunk):]
		buf := ew.scratch[:8*len(chunk)]
		for j, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		ew.write(buf)
	}
}

// wireReader decodes the codec stream through the shared scratch
// buffer, tracking the logical byte position the decoders report.
// header consumes the prologue and entry decodes one entry, in either
// decoder's mode, so ReadFrom and DecodeFromRef share every field read
// and every check but the ones that tell them apart.
type wireReader struct {
	r       io.Reader
	scratch []byte
	n       int64
	// comp is the stream's codec, set by header: CPQ1 when enabled,
	// dense CPS1 otherwise.
	comp Compression
	dq   dequantizer
	// budget is what remains of ReadFrom's sparse zero-fill allowance,
	// in values (see sparseExpandBudget).
	budget int64
}

func (d *wireReader) full(b []byte) error {
	if _, err := io.ReadFull(d.r, b); err != nil {
		return err
	}
	d.n += int64(len(b))
	return nil
}

func (d *wireReader) u32(v *uint32) error {
	if err := d.full(d.scratch[:4]); err != nil {
		return err
	}
	*v = binary.LittleEndian.Uint32(d.scratch[:4])
	return nil
}

// header consumes and validates the stream prologue — magic, the
// compressed format's quantization width, and the entry count — and
// records which codec the stream carries in d.comp.
func (d *wireReader) header() (count uint32, err error) {
	if err = d.full(d.scratch[:len(serializeMagic)]); err != nil {
		return 0, fmt.Errorf("param: read magic: %w", err)
	}
	switch string(d.scratch[:len(serializeMagic)]) {
	case serializeMagic:
	case compressMagic:
		var bits byte
		if err = d.u8(&bits); err != nil {
			return 0, fmt.Errorf("param: read quantization width: %w", err)
		}
		if bits != 8 && bits != 16 {
			return 0, fmt.Errorf("param: unsupported quantization width %d", bits)
		}
		d.comp = Compression{Bits: int(bits)}
	default:
		return 0, fmt.Errorf("param: bad magic %q", d.scratch[:len(serializeMagic)])
	}
	if err = d.u32(&count); err != nil {
		return 0, fmt.Errorf("param: read entry count: %w", err)
	}
	return count, nil
}

// entryHeader consumes one entry's name-length/name/rows/cols fields.
// The returned name is a view into scratch (parked past the u32 field
// window so the rows/cols reads cannot clobber it) and is only valid
// until the next read.
func (d *wireReader) entryHeader(i uint32) (name []byte, rows, cols uint32, err error) {
	var nameLen uint32
	if err = d.u32(&nameLen); err != nil {
		return nil, 0, 0, fmt.Errorf("param: entry %d name length: %w", i, err)
	}
	if nameLen > 4096 {
		return nil, 0, 0, fmt.Errorf("param: entry %d name too long (%d)", i, nameLen)
	}
	name = d.scratch[8 : 8+nameLen]
	if err = d.full(name); err != nil {
		return nil, 0, 0, fmt.Errorf("param: entry %d name: %w", i, err)
	}
	if err = d.u32(&rows); err != nil {
		return nil, 0, 0, err
	}
	if err = d.u32(&cols); err != nil {
		return nil, 0, 0, err
	}
	return name, rows, cols, nil
}

// floats reads a raw float64 payload into dst.
func (d *wireReader) floats(dst []float64) error {
	if codecFastPath {
		// Zero-copy: the bytes land straight in dst's memory (live
		// model parameters under the wire transport).
		return d.full(floatsAsBytes(dst))
	}
	for len(dst) > 0 {
		chunk := dst[:min(floatChunk, len(dst))]
		dst = dst[len(chunk):]
		buf := d.scratch[:8*len(chunk)]
		if err := d.full(buf); err != nil {
			return err
		}
		for j := range chunk {
			chunk[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
	}
	return nil
}

// entry decodes entry i of the stream, in one of two modes.
//
// With dst nil it is ReadFrom's untrusted decode: the entry must be new
// to out and hold at most 2^32 values, delta-coded entries and NaN
// values are rejected, and the decoded entry is added to out. Its
// storage grows at most one chunk ahead of the bytes that have
// arrived; a sparse entry's zero fill, claimed by its header rather
// than carried as bytes, is drawn from d.budget.
//
// With dst set it is DecodeFromRef's in-place decode: the entry must
// match dst's name and shape, its values overwrite dst.Data without
// allocating, NaN passes through, and delta-coded entries reconstruct
// against ref's matching entry.
func (d *wireReader) entry(i uint32, out *Set, dst *Entry, ref *Set) error {
	name, rows, cols, err := d.entryHeader(i)
	if err != nil {
		return err
	}
	size := uint64(rows) * uint64(cols)
	inPlace := dst != nil
	var e Entry
	if inPlace {
		if string(name) != dst.Name {
			return fmt.Errorf("param: entry %d name %q != receiver's %q", i, name, dst.Name)
		}
		if int(rows) != dst.Rows || int(cols) != dst.Cols {
			return fmt.Errorf("param: entry %q shape %dx%d != receiver's %dx%d",
				dst.Name, rows, cols, dst.Rows, dst.Cols)
		}
		e = *dst
	} else {
		e = Entry{Name: string(name), Rows: int(rows), Cols: int(cols)}
		if out.Has(e.Name) {
			return fmt.Errorf("param: duplicate entry %q", e.Name)
		}
		if size > 1<<32 {
			return fmt.Errorf("param: entry %q implausible size %d", e.Name, size)
		}
	}

	var flags byte
	var refData []float64
	if d.comp.Enabled() {
		if err := d.u8(&flags); err != nil {
			return fmt.Errorf("param: entry %q flags: %w", e.Name, err)
		}
		if flags&^(flagSparse|flagDelta) != 0 {
			return fmt.Errorf("param: entry %q unknown flags %#x", e.Name, flags)
		}
		if flags&flagDelta != 0 {
			// ReadFrom passes no reference, so it rejects every delta.
			re := ref.matching(&e)
			if re == nil {
				return fmt.Errorf("param: entry %q is delta-coded and the reference has no matching entry", e.Name)
			}
			refData = re.Data
		}
	}

	if flags&flagSparse != 0 {
		var nnz uint32
		if err := d.u32(&nnz); err != nil {
			return fmt.Errorf("param: entry %q sparse count: %w", e.Name, err)
		}
		if uint64(nnz) > size {
			return fmt.Errorf("param: entry %q sparse count %d exceeds size %d", e.Name, nnz, size)
		}
		q, err := d.quantRange()
		if err != nil {
			return fmt.Errorf("param: entry %q %w", e.Name, err)
		}
		// Unstored coordinates are exact: the reference value under
		// delta coding, zero otherwise.
		switch {
		case !inPlace:
			if int64(size) > d.budget {
				return fmt.Errorf("param: entry %q sparse expansion %d exceeds the stream budget (%d values)",
					e.Name, size, int64(sparseExpandBudget))
			}
			d.budget -= int64(size)
			e.Data = make([]float64, size)
		case refData != nil:
			copy(e.Data, refData)
		default:
			clear(e.Data)
		}
		d.dq.reset(q, d.comp.levelBytes(), uint64(nnz))
		if err := d.sparseBody(e.Data, nnz, inPlace); err != nil {
			return fmt.Errorf("param: entry %q: %w", e.Name, err)
		}
	} else {
		width := 8
		if d.comp.Enabled() {
			q, err := d.quantRange()
			if err != nil {
				return fmt.Errorf("param: entry %q %w", e.Name, err)
			}
			width = d.comp.levelBytes()
			d.dq.reset(q, width, size)
		}
		per := uint64(len(d.scratch) / width)
		if inPlace && !d.comp.Enabled() {
			// Raw floats land straight in the receiver's storage: no
			// chunk bound is needed, and one read is the cheapest.
			per = size
		}
		for lo := 0; uint64(lo) < size; {
			cn := int(min(size-uint64(lo), per))
			if !inPlace {
				e.Data = slices.Grow(e.Data, cn)[:lo+cn]
			}
			chunk := e.Data[lo : lo+cn]
			if !d.comp.Enabled() {
				if err := d.floats(chunk); err != nil {
					return fmt.Errorf("param: entry %q data: %w", e.Name, err)
				}
				if !inPlace && slices.ContainsFunc(chunk, math.IsNaN) {
					return fmt.Errorf("param: entry %q contains NaN", e.Name)
				}
			} else {
				buf := d.scratch[:width*cn]
				if err := d.full(buf); err != nil {
					return fmt.Errorf("param: entry %q data: %w", e.Name, err)
				}
				var rd []float64
				if refData != nil {
					rd = refData[lo : lo+cn]
				}
				d.dq.dense(chunk, buf, rd)
			}
			lo += cn
		}
	}
	if !inPlace {
		out.Add(e.Name, e.Rows, e.Cols, e.Data)
	}
	return nil
}

// ReadFrom deserializes a set previously produced by WriteTo or
// WriteCompressedTo (the codec is sniffed from the magic), replacing
// the receiver's contents. It implements io.ReaderFrom.
//
// ReadFrom is the untrusted-input decoder, for bytes from outside the
// process: malformed streams — bad magic, truncation, more than 2^20
// entries, implausible shapes, duplicate entry names, NaN values,
// unsorted sparse indices — fail with an error, never a panic, and
// entry storage grows with the bytes that actually arrive (plus a
// bounded zero-fill budget for compressed sparse entries), so a header
// lying about its size cannot trigger a huge allocation. Delta-coded
// compressed entries are rejected: they only reconstruct against the
// encoder's reference, via DecodeFromRef. On error s is unchanged.
func (s *Set) ReadFrom(r io.Reader) (int64, error) {
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	d := wireReader{r: bufio.NewReader(r), scratch: *sp, budget: sparseExpandBudget}
	count, err := d.header()
	if err != nil {
		return d.n, err
	}
	if count > 1<<20 {
		return d.n, fmt.Errorf("param: implausible entry count %d", count)
	}
	out := New()
	for i := range count {
		if err := d.entry(i, out, nil, nil); err != nil {
			return d.n, err
		}
	}
	*s = *out
	return d.n, nil
}

// DecodeFromRef reads a stream produced by WriteTo or
// WriteCompressedTo (sniffed from the magic) into s's existing
// entries, requiring the incoming structure (entry names, shapes,
// registration order) to match s's exactly. Values are written
// directly into s's backing storage — sets that alias live model
// parameters are updated in place — which makes this the
// allocation-free receive path of the transports (internal/transport).
// Compressed entries flagged as deltas reconstruct against ref's
// same-name entry — the transports pass the broadcast source the
// sending side encoded against. ref may be nil when the stream carries
// no deltas, and is ignored entirely for dense CPS1 streams.
//
// On a structural mismatch or malformed input it returns an error; s's
// values are then partially overwritten and unspecified. Unlike
// ReadFrom, DecodeFromRef does not reject NaN: the transport must be
// value-transparent and deliver whatever the sender's simulation
// produced.
func (s *Set) DecodeFromRef(r io.Reader, ref *Set) (int64, error) {
	sp := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(sp)
	d := wireReader{r: r, scratch: *sp}
	count, err := d.header()
	if err != nil {
		return d.n, err
	}
	if int(count) != len(s.entries) {
		return d.n, fmt.Errorf("param: decode entry count %d != receiver's %d", count, len(s.entries))
	}
	for i := range s.entries {
		if err := d.entry(uint32(i), nil, &s.entries[i], ref); err != nil {
			return d.n, err
		}
	}
	return d.n, nil
}

// matching returns s's entry with e's name and shape, or nil (also when
// s is nil): the reference a delta-coded entry is coded against.
func (s *Set) matching(e *Entry) *Entry {
	if s == nil {
		return nil
	}
	if i, ok := s.index[e.Name]; ok {
		if re := &s.entries[i]; re.Rows == e.Rows && re.Cols == e.Cols {
			return re
		}
	}
	return nil
}

// WireBytes returns the serialized size of the set without writing it:
// the message-size accounting used by the protocols' traffic metrics.
func (s *Set) WireBytes() int {
	n := len(serializeMagic) + 4
	for _, e := range s.entries {
		n += 4 + len(e.Name) + 8 + 8*len(e.Data)
	}
	return n
}
