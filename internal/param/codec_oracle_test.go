package param

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frozen reference implementations of the CPQ1 codec as it stood before
// its kernels were optimised: the probe-only quantizer, the
// closure-per-coordinate encoder and the closure-based decoders. They
// are the oracles the production codec is held to — streams must be
// byte-identical and decoded values bit-identical — and must not be
// edited to follow changes in codec.go.

// oracleValue reconstructs a level on q's grid.
func oracleValue(q quantizer, l int) float64 {
	switch l {
	case 0:
		return q.lo
	case q.max:
		return q.hi
	}
	return q.lo + float64(l)*q.step
}

// oracleLevel is the probe-only canonical level: the arithmetic guess
// followed by the ±1 neighbour probe, lowest level on ties.
func oracleLevel(q quantizer, v float64) int {
	if q.step <= 0 {
		return 0
	}
	f := math.Round((v - q.lo) / q.step)
	var l int
	switch {
	case f < 0:
		l = 0
	case f > float64(q.max):
		l = q.max
	default:
		l = int(f)
	}
	best, bd := l, math.Abs(v-oracleValue(q, l))
	for _, cand := range [2]int{l - 1, l + 1} {
		if cand < 0 || cand > q.max {
			continue
		}
		if d := math.Abs(v - oracleValue(q, cand)); d < bd || (d == bd && cand < best) {
			best, bd = cand, d
		}
	}
	return best
}

// oracleLevelNonzero nudges oracleLevel off a level reconstructing 0.
func oracleLevelNonzero(q quantizer, v float64) int {
	l := oracleLevel(q, v)
	if oracleValue(q, l) != 0 {
		return l
	}
	for off := 1; ; off++ {
		if u := l + off; u <= q.max && oracleValue(q, u) != 0 {
			return u
		}
		if d := l - off; d >= 0 && oracleValue(q, d) != 0 {
			return d
		}
	}
}

// oracleEncode is the frozen CPQ1 encoder.
func oracleEncode(s *Set, c Compression, ref *Set) ([]byte, error) {
	var out bytes.Buffer
	w := &out
	if c.Bits != 8 && c.Bits != 16 {
		return nil, fmt.Errorf("param: unsupported compression %d (want 8 or 16 bits)", c.Bits)
	}
	scratch := make([]byte, 8*floatChunk)
	lb := c.Bits / 8
	write := func(b []byte) { w.Write(b) }
	writeU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		write(scratch[:4])
	}
	writeF64 := func(v float64) {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
		write(scratch[:8])
	}
	putLevel := func(b []byte, l int) {
		if lb == 1 {
			b[0] = byte(l)
			return
		}
		binary.LittleEndian.PutUint16(b, uint16(l))
	}
	w.WriteString(compressMagic)
	scratch[0] = byte(c.Bits)
	write(scratch[:1])
	writeU32(uint32(len(s.entries)))
	for i := range s.entries {
		e := &s.entries[i]
		var refData []float64
		if ref != nil {
			if ri, ok := ref.index[e.Name]; ok {
				if re := &ref.entries[ri]; re.Rows == e.Rows && re.Cols == e.Cols {
					refData = re.Data
				}
			}
		}
		var nnz int
		loAll, hiAll := math.Inf(1), math.Inf(-1)
		loNZ, hiNZ := math.Inf(1), math.Inf(-1)
		for j, v := range e.Data {
			if refData != nil {
				v -= refData[j]
			}
			if math.IsNaN(v) || v < -codecRangeLimit || v > codecRangeLimit {
				return nil, fmt.Errorf("param: entry %q: value %g at %d outside the codec's ±%g range",
					e.Name, v, j, float64(codecRangeLimit))
			}
			loAll = math.Min(loAll, v)
			hiAll = math.Max(hiAll, v)
			if v != 0 {
				nnz++
				loNZ = math.Min(loNZ, v)
				hiNZ = math.Max(hiNZ, v)
			}
		}
		if len(e.Data) == 0 {
			loAll, hiAll = 0, 0
		}
		if nnz == 0 {
			loNZ, hiNZ = 0, 0
		}
		sparse := 20+nnz*(4+lb) < 16+len(e.Data)*lb
		flags := byte(0)
		if sparse {
			flags |= flagSparse
		}
		if refData != nil {
			flags |= flagDelta
		}
		writeU32(uint32(len(e.Name)))
		w.WriteString(e.Name)
		writeU32(uint32(e.Rows))
		writeU32(uint32(e.Cols))
		scratch[0] = flags
		write(scratch[:1])
		if sparse {
			writeU32(uint32(nnz))
			writeF64(loNZ)
			writeF64(hiNZ)
			q := quantizer{lo: loNZ, hi: hiNZ, max: 1<<c.Bits - 1}
			q.step = (hiNZ - loNZ) / float64(q.max)
			for j, v := range e.Data {
				if refData != nil {
					v -= refData[j]
				}
				if v == 0 {
					continue
				}
				binary.LittleEndian.PutUint32(scratch[:4], uint32(j))
				putLevel(scratch[4:], oracleLevelNonzero(q, v))
				write(scratch[:4+lb])
			}
		} else {
			writeF64(loAll)
			writeF64(hiAll)
			q := quantizer{lo: loAll, hi: hiAll, max: 1<<c.Bits - 1}
			q.step = (hiAll - loAll) / float64(q.max)
			for j, v := range e.Data {
				if refData != nil {
					v -= refData[j]
				}
				putLevel(scratch[:lb], oracleLevel(q, v))
				write(scratch[:lb])
			}
		}
	}
	return out.Bytes(), nil
}

// oracleReader is the frozen stream reader: the same field reads as
// wireReader, kept separate so the oracle decode cannot drift with it.
type oracleReader struct {
	r       io.Reader
	scratch []byte
	n       int64
}

func (d *oracleReader) full(b []byte) error {
	if _, err := io.ReadFull(d.r, b); err != nil {
		return err
	}
	d.n += int64(len(b))
	return nil
}

func (d *oracleReader) u8() (byte, error) {
	err := d.full(d.scratch[:1])
	return d.scratch[0], err
}

func (d *oracleReader) u32() (uint32, error) {
	err := d.full(d.scratch[:4])
	return binary.LittleEndian.Uint32(d.scratch[:4]), err
}

func (d *oracleReader) f64() (float64, error) {
	err := d.full(d.scratch[:8])
	return math.Float64frombits(binary.LittleEndian.Uint64(d.scratch[:8])), err
}

func (d *oracleReader) quantRange(bits int) (quantizer, error) {
	lo, err := d.f64()
	if err != nil {
		return quantizer{}, err
	}
	hi, err := d.f64()
	if err != nil {
		return quantizer{}, err
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi || lo < -codecRangeLimit || hi > codecRangeLimit {
		return quantizer{}, fmt.Errorf("invalid quantization range [%g, %g]", lo, hi)
	}
	q := quantizer{lo: lo, hi: hi, max: 1<<bits - 1}
	q.step = (hi - lo) / float64(q.max)
	return q, nil
}

// prologue reads the CPQ1 magic, width and entry count.
func (d *oracleReader) prologue() (bits int, count uint32, err error) {
	if err := d.full(d.scratch[:4]); err != nil {
		return 0, 0, err
	}
	if string(d.scratch[:4]) != compressMagic {
		return 0, 0, fmt.Errorf("not a CPQ1 stream")
	}
	b, err := d.u8()
	if err != nil {
		return 0, 0, err
	}
	if b != 8 && b != 16 {
		return 0, 0, fmt.Errorf("unsupported quantization width %d", b)
	}
	count, err = d.u32()
	return int(b), count, err
}

func (d *oracleReader) entryHeader() (name string, rows, cols uint32, flags byte, err error) {
	nameLen, err := d.u32()
	if err != nil {
		return "", 0, 0, 0, err
	}
	if nameLen > 4096 {
		return "", 0, 0, 0, fmt.Errorf("name too long (%d)", nameLen)
	}
	nb := make([]byte, nameLen)
	if err := d.full(nb); err != nil {
		return "", 0, 0, 0, err
	}
	if rows, err = d.u32(); err != nil {
		return "", 0, 0, 0, err
	}
	if cols, err = d.u32(); err != nil {
		return "", 0, 0, 0, err
	}
	if flags, err = d.u8(); err != nil {
		return "", 0, 0, 0, err
	}
	if flags&^(flagSparse|flagDelta) != 0 {
		return "", 0, 0, 0, fmt.Errorf("unknown flags %#x", flags)
	}
	return string(nb), rows, cols, flags, nil
}

func (d *oracleReader) sparseBody(q quantizer, lb int, size uint64, nnz uint32, fn func(idx int, v float64)) error {
	pair := 4 + lb
	prev := -1
	for read := 0; read < int(nnz); read++ {
		if err := d.full(d.scratch[:pair]); err != nil {
			return err
		}
		idx := int(binary.LittleEndian.Uint32(d.scratch))
		if idx <= prev {
			return fmt.Errorf("sparse index %d after %d", idx, prev)
		}
		if uint64(idx) >= size {
			return fmt.Errorf("sparse index %d out of range", idx)
		}
		prev = idx
		fn(idx, oracleValue(q, oracleLevelAt(d.scratch[4:], lb)))
	}
	return nil
}

func (d *oracleReader) denseBody(q quantizer, lb int, size uint64, fn func(idx int, v float64)) error {
	for j := uint64(0); j < size; j++ {
		if err := d.full(d.scratch[:lb]); err != nil {
			return err
		}
		fn(int(j), oracleValue(q, oracleLevelAt(d.scratch, lb)))
	}
	return nil
}

func oracleLevelAt(b []byte, lb int) int {
	if lb == 1 {
		return int(b[0])
	}
	return int(binary.LittleEndian.Uint16(b))
}

// oracleDecodeFromRef is the frozen in-place CPQ1 decode of
// DecodeFromRef: s's structure must match the stream's.
func oracleDecodeFromRef(s *Set, data []byte, ref *Set) (int64, error) {
	d := oracleReader{r: bytes.NewReader(data), scratch: make([]byte, 8)}
	bits, count, err := d.prologue()
	if err != nil {
		return d.n, err
	}
	if int(count) != len(s.entries) {
		return d.n, fmt.Errorf("entry count %d != receiver's %d", count, len(s.entries))
	}
	lb := bits / 8
	for i := range s.entries {
		e := &s.entries[i]
		name, rows, cols, flags, err := d.entryHeader()
		if err != nil {
			return d.n, err
		}
		if name != e.Name || int(rows) != e.Rows || int(cols) != e.Cols {
			return d.n, fmt.Errorf("entry %d structure mismatch", i)
		}
		var refData []float64
		if flags&flagDelta != 0 {
			var re *Entry
			if ref != nil {
				if ri, ok := ref.index[e.Name]; ok {
					re = &ref.entries[ri]
				}
			}
			if re == nil || re.Rows != e.Rows || re.Cols != e.Cols {
				return d.n, fmt.Errorf("entry %q: no matching reference entry", e.Name)
			}
			refData = re.Data
		}
		size := uint64(len(e.Data))
		if flags&flagSparse != 0 {
			nnz, err := d.u32()
			if err != nil {
				return d.n, err
			}
			if uint64(nnz) > size {
				return d.n, fmt.Errorf("entry %q sparse count %d exceeds size %d", e.Name, nnz, size)
			}
			q, err := d.quantRange(bits)
			if err != nil {
				return d.n, err
			}
			if refData != nil {
				copy(e.Data, refData)
			} else {
				clear(e.Data)
			}
			if err := d.sparseBody(q, lb, size, nnz, func(idx int, v float64) { e.Data[idx] += v }); err != nil {
				return d.n, err
			}
		} else {
			q, err := d.quantRange(bits)
			if err != nil {
				return d.n, err
			}
			fn := func(idx int, v float64) { e.Data[idx] = v }
			if refData != nil {
				fn = func(idx int, v float64) { e.Data[idx] = refData[idx] + v }
			}
			if err := d.denseBody(q, lb, size, fn); err != nil {
				return d.n, err
			}
		}
	}
	return d.n, nil
}

// oracleReadFrom is the frozen untrusted CPQ1 decode of ReadFrom
// (without its allocation bounds, which the oracle need not model).
func oracleReadFrom(data []byte) (*Set, int64, error) {
	d := oracleReader{r: bufio.NewReader(bytes.NewReader(data)), scratch: make([]byte, 8)}
	bits, count, err := d.prologue()
	if err != nil {
		return nil, d.n, err
	}
	if count > 1<<20 {
		return nil, d.n, fmt.Errorf("implausible entry count %d", count)
	}
	lb := bits / 8
	out := New()
	budget := int64(sparseExpandBudget)
	for i := uint32(0); i < count; i++ {
		name, rows, cols, flags, err := d.entryHeader()
		if err != nil {
			return nil, d.n, err
		}
		if out.Has(name) {
			return nil, d.n, fmt.Errorf("duplicate entry %q", name)
		}
		size := uint64(rows) * uint64(cols)
		if size > 1<<32 {
			return nil, d.n, fmt.Errorf("entry %q implausible size %d", name, size)
		}
		if flags&flagDelta != 0 {
			return nil, d.n, fmt.Errorf("entry %q is delta-coded", name)
		}
		if flags&flagSparse != 0 {
			nnz, err := d.u32()
			if err != nil {
				return nil, d.n, err
			}
			if uint64(nnz) > size {
				return nil, d.n, fmt.Errorf("entry %q sparse count %d exceeds size %d", name, nnz, size)
			}
			q, err := d.quantRange(bits)
			if err != nil {
				return nil, d.n, err
			}
			if int64(size) > budget {
				return nil, d.n, fmt.Errorf("entry %q sparse expansion %d exceeds the budget", name, size)
			}
			budget -= int64(size)
			vals := make([]float64, size)
			if err := d.sparseBody(q, lb, size, nnz, func(idx int, v float64) { vals[idx] = v }); err != nil {
				return nil, d.n, err
			}
			out.Add(name, int(rows), int(cols), vals)
		} else {
			q, err := d.quantRange(bits)
			if err != nil {
				return nil, d.n, err
			}
			var vals []float64
			if err := d.denseBody(q, lb, size, func(_ int, v float64) { vals = append(vals, v) }); err != nil {
				return nil, d.n, err
			}
			out.Add(name, int(rows), int(cols), vals)
		}
	}
	return out, d.n, nil
}
