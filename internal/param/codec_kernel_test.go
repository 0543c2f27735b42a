package param

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The CPQ1 kernels are held to the frozen oracles of
// codec_oracle_test.go: identical levels, byte-identical streams and
// bit-identical decoded values.

// oracleGrids returns (lo, hi) quantization ranges covering the cases
// the probe-skipping fast path must get right or decline: ordinary
// ranges at many scales, ranges offset far from zero (ill-conditioned
// grids), spans only a few ulps wide, subnormal ranges, zero spans and
// the ±1e300 codec limits.
func oracleGrids(rng *rand.Rand) [][2]float64 {
	grids := [][2]float64{
		{-1, 1}, {0, 1}, {-3, -1}, {0.1, 0.7}, {-1e-6, 2e-6},
		{-1e300, 1e300}, {-1e300, -1e299}, {1e299, 1e300}, {0, 1e300},
		{0, 0}, {3.25, 3.25}, {math.Copysign(0, -1), 0},
		{1e6, 1e6 + 1e-9}, {-1e6 - 1e-3, -1e6}, {1, 1 + 0x1p-20}, {1, 1 + 0x1p-30},
		{0, 0x1p-1022}, {-0x1p-1022, 0x1p-1022}, {0x1p-1022, 0x1p-1021},
	}
	// Subnormal ranges: spans of k smallest subnormals, from a handful
	// of levels' worth to far more than 2^16.
	for _, k := range []float64{1, 3, 200, 255, 256, 300, 1000, 65535, 70000, 1e6, 1e12} {
		grids = append(grids, [2]float64{0, k * 0x1p-1074}, [2]float64{-k * 0x1p-1074, 0})
	}
	// Spans of a few ulps.
	for _, base := range []float64{1, -7.5, 1e-300, 123456.789, -1e300 / 3} {
		hi := base
		for k := 1; k <= 5; k++ {
			hi = math.Nextafter(hi, math.Inf(1))
			grids = append(grids, [2]float64{base, hi})
		}
	}
	// Random ranges: magnitudes 1e-12..1e12, spans from 1e-15 of the
	// magnitude up to several times it.
	for i := 0; i < 60; i++ {
		c := math.Pow(10, rng.Float64()*24-12) * (rng.Float64()*2 - 1)
		w := math.Abs(c) * math.Pow(10, rng.Float64()*16-15)
		lo := c - rng.Float64()*w
		grids = append(grids, [2]float64{lo, lo + w})
	}
	return grids
}

// oracleProbes returns the values to quantize on grid q: the grid's
// reconstructions, midpoints between neighbours and 1–4 ulps either
// side of both, the ends and their neighbours, and uniform randoms.
func oracleProbes(rng *rand.Rand, q quantizer) []float64 {
	vs := []float64{q.lo, q.hi,
		math.Nextafter(q.lo, math.Inf(-1)), math.Nextafter(q.hi, math.Inf(1))}
	levels := make([]int, 0, 512)
	if q.max <= 255 {
		for l := 0; l <= q.max; l++ {
			levels = append(levels, l)
		}
	} else {
		levels = append(levels, 0, 1, 2, q.max-2, q.max-1, q.max)
		for i := 0; i < 400; i++ {
			levels = append(levels, rng.Intn(q.max+1))
		}
	}
	for _, l := range levels {
		a := q.value(l)
		vs = append(vs, a)
		if l == q.max {
			continue
		}
		m := a + (q.value(l+1)-a)/2
		vs = append(vs, m)
		up, down := m, m
		for k := 0; k < 4; k++ {
			up = math.Nextafter(up, math.Inf(1))
			down = math.Nextafter(down, math.Inf(-1))
			vs = append(vs, up, down)
		}
		// Around the 0.49 fast-path margin.
		for _, frac := range []float64{0.48, 0.489, 0.49, 0.491, 0.51} {
			vs = append(vs, a+frac*q.step)
		}
	}
	for i := 0; i < 300; i++ {
		vs = append(vs, q.lo+rng.Float64()*(q.hi-q.lo))
	}
	return vs
}

func TestLevelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var fast, slow int
	for _, bits := range []int{8, 16} {
		c := Compression{Bits: bits}
		for _, g := range oracleGrids(rng) {
			q := newQuantizer(c, g[0], g[1])
			if q.fast {
				fast++
			} else {
				slow++
			}
			nonzero := q.lo != 0 && q.hi != 0
			for _, v := range oracleProbes(rng, q) {
				if got, want := q.level(v), oracleLevel(q, v); got != want {
					t.Fatalf("%dbit [%g, %g]: level(%v) = %d, oracle %d", bits, q.lo, q.hi, v, got, want)
				}
				if !nonzero {
					continue
				}
				if got, want := q.levelNonzero(v), oracleLevelNonzero(q, v); got != want {
					t.Fatalf("%dbit [%g, %g]: levelNonzero(%v) = %d, oracle %d", bits, q.lo, q.hi, v, got, want)
				}
			}
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("grid set must exercise both the fast path (%d grids) and the probe (%d)", fast, slow)
	}
}

// oracleTestSets builds payload pairs (src, ref) for the byte-identity
// tests: the quantTestPayloads shapes, entries mixing −0 and +0 at
// either end of their range, subnormal and near-limit magnitudes, and
// sparse updates against a reference (ref nil for absolute coding).
func oracleTestSets(rng *rand.Rand) []struct {
	name     string
	src, ref *Set
} {
	negZero := math.Copysign(0, -1)
	zeros := New()
	zeros.AddVector("neg_then_pos", []float64{negZero, 0, negZero})
	zeros.AddVector("pos_then_neg", []float64{0, negZero})
	zeros.AddVector("only_neg", []float64{negZero, negZero})
	zeros.AddVector("only_pos", []float64{0, 0, 0})
	zeros.AddVector("neg_vals_neg_zero", []float64{-2, negZero, -1})
	zeros.AddVector("pos_vals_both_zeros", []float64{2, negZero, 0, 1})
	zeros.AddVector("mixed", []float64{-1, negZero, 0, 1})
	big := make([]float64, 64)
	for i := range big {
		big[i] = 0x1p-1074 * float64(rng.Intn(5000))
	}
	zeros.AddVector("subnormal", big)
	lim := make([]float64, 32)
	for i := range lim {
		lim[i] = 1e300 * (2*rng.Float64() - 1)
	}
	lim[0], lim[1] = -1e300, 1e300
	zeros.AddVector("near_limit", lim)
	off := make([]float64, 40)
	for i := range off {
		off[i] = 1e6 + 1e-7*rng.Float64()
	}
	zeros.AddVector("offset_narrow", off)

	sets := []struct {
		name     string
		src, ref *Set
	}{
		{"payloads", quantTestPayloads(rng.Int63()), nil},
		{"zeros-and-edges", zeros, nil},
		{"payloads-vs-payloads", quantTestPayloads(rng.Int63()), quantTestPayloads(rng.Int63())},
	}
	// Delta updates touching a fraction of coordinates (sparse form),
	// most of them (dense form), and deltas that cancel to ±0.
	for _, frac := range []float64{0.05, 0.6, 1} {
		ref := quantTestPayloads(rng.Int63())
		src := ref.Clone()
		for i := 0; i < src.Len(); i++ {
			d := src.At(i).Data
			for j := range d {
				if rng.Float64() < frac {
					d[j] += 0.01 * rng.NormFloat64()
				}
			}
		}
		sets = append(sets, struct {
			name     string
			src, ref *Set
		}{"delta", src, ref})
	}
	negRef := New()
	negRef.AddVector("v", []float64{negZero, 0, 1, -1, negZero})
	cancel := New()
	cancel.AddVector("v", []float64{0, negZero, 1, -1, 0})
	sets = append(sets, struct {
		name     string
		src, ref *Set
	}{"delta-signed-zeros", cancel, negRef})
	return sets
}

// WriteCompressedTo must reproduce the frozen encoder byte for byte,
// and both decoders must reproduce the frozen decoders bit for bit.
func TestCompressedCodecMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for round := 0; round < 4; round++ {
		for _, tc := range oracleTestSets(rng) {
			for _, bits := range []int{8, 16} {
				c := Compression{Bits: bits}
				want, err := oracleEncode(tc.src, c, tc.ref)
				if err != nil {
					t.Fatalf("%s %dbit: oracle encode: %v", tc.name, bits, err)
				}
				var got bytes.Buffer
				if _, err := tc.src.WriteCompressedTo(&got, c, tc.ref); err != nil {
					t.Fatalf("%s %dbit: encode: %v", tc.name, bits, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("%s %dbit: stream differs from the frozen encoder (%d vs %d bytes)",
						tc.name, bits, got.Len(), len(want))
				}
				checkDecodeMatchesOracle(t, want, tc.src, tc.ref)
			}
		}
	}
}

// checkDecodeMatchesOracle decodes data with DecodeFromRef into a
// receiver shaped like shape, and with ReadFrom, next to the frozen
// decoders: both must agree on success, consumed bytes and every value
// bit. It reports whether DecodeFromRef accepted the stream.
func checkDecodeMatchesOracle(t *testing.T, data []byte, shape, ref *Set) bool {
	t.Helper()
	got, want := scrubbedClone(shape), scrubbedClone(shape)
	gn, gerr := got.DecodeFromRef(bytes.NewReader(data), ref)
	wn, werr := oracleDecodeFromRef(want, data, ref)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("DecodeFromRef error %v, oracle %v", gerr, werr)
	}
	if gerr == nil {
		if gn != wn {
			t.Fatalf("DecodeFromRef consumed %d bytes, oracle %d", gn, wn)
		}
		if !bitIdentical(got, want) {
			t.Fatal("DecodeFromRef values differ from the frozen decoder")
		}
	}
	rs := New()
	rn, rerr := rs.ReadFrom(bytes.NewReader(data))
	oset, on, oerr := oracleReadFrom(data)
	if (rerr == nil) != (oerr == nil) {
		t.Fatalf("ReadFrom error %v, oracle %v", rerr, oerr)
	}
	if rerr == nil {
		if rn != on {
			t.Fatalf("ReadFrom consumed %d bytes, oracle %d", rn, on)
		}
		if !bitIdentical(rs, oset) {
			t.Fatal("ReadFrom values differ from the frozen decoder")
		}
	}
	return gerr == nil
}

// scrubbedClone copies s with every value overwritten, so a decode
// that skips a coordinate cannot pass by accident.
func scrubbedClone(s *Set) *Set {
	c := s.Clone()
	for i := 0; i < c.Len(); i++ {
		for j := range c.At(i).Data {
			c.At(i).Data[j] = 7
		}
	}
	return c
}

// bitIdentical compares structure and the bit patterns of every value
// (so −0 ≠ +0).
func bitIdentical(a, b *Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		x, y := a.At(i), b.At(i)
		if x.Name != y.Name || x.Rows != y.Rows || x.Cols != y.Cols || len(x.Data) != len(y.Data) {
			return false
		}
		for j := range x.Data {
			if math.Float64bits(x.Data[j]) != math.Float64bits(y.Data[j]) {
				return false
			}
		}
	}
	return true
}

// The encoder's range errors are unchanged too: same first offending
// coordinate, same message.
func TestCompressedEncodeErrorMatchesOracle(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2e300, -1.5e300} {
		s := New()
		s.AddVector("ok", []float64{1, 2})
		s.AddVector("v", []float64{0, -1, bad, math.NaN()})
		_, werr := oracleEncode(s, Compression{Bits: 8}, nil)
		_, gerr := s.WriteCompressedTo(&bytes.Buffer{}, Compression{Bits: 8}, nil)
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Errorf("value %g: error %v, oracle %v", bad, gerr, werr)
		}
	}
}

// Malformed delta-coded streams — every truncation and random byte
// corruptions of valid ones — must fail with an error, never a panic,
// and DecodeFromRef must accept exactly what the frozen decoder
// accepts, with bit-identical values.
func TestDeltaDecodeMalformedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, tc := range oracleTestSets(rng) {
		if tc.ref == nil {
			continue
		}
		for _, bits := range []int{8, 16} {
			var buf bytes.Buffer
			if _, err := tc.src.WriteCompressedTo(&buf, Compression{Bits: bits}, tc.ref); err != nil {
				t.Fatal(err)
			}
			valid := buf.Bytes()
			for cut := 0; cut < len(valid); cut += 1 + len(valid)/97 {
				if checkDecodeMatchesOracle(t, valid[:cut], tc.src, tc.ref) {
					t.Fatalf("%s %dbit: stream truncated to %d of %d bytes decoded", tc.name, bits, cut, len(valid))
				}
			}
			for i := 0; i < 200; i++ {
				bad := append([]byte(nil), valid...)
				for k := 0; k <= rng.Intn(3); k++ {
					bad[5+rng.Intn(len(bad)-5)] ^= byte(1 << rng.Intn(8))
				}
				checkDecodeMatchesOracle(t, bad, tc.src, tc.ref)
			}
		}
	}
}

// The codec's steady state allocates nothing: encoding into a warm
// buffer and decoding in place reuse pooled scratch and stack-held
// tables. Compression{} runs the dense CPS1 codec (WriteTo), which
// the wire transport uses when compression is off.
func TestCompressedCodecZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ref := quantTestPayloads(107)
	upd := ref.Clone()
	for i := 0; i < upd.Len(); i++ {
		d := upd.At(i).Data
		for j := 0; j < len(d); j += 7 {
			d[j] += 0.5
		}
	}
	big := New()
	big.Add("emb", 100, 16, make([]float64, 1600))
	for j := range big.At(0).Data {
		big.At(0).Data[j] = float64(j%37) - 18
	}
	encode := func(buf *bytes.Buffer, src *Set, c Compression, ref *Set) error {
		var err error
		if c.Enabled() {
			_, err = src.WriteCompressedTo(buf, c, ref)
		} else {
			_, err = src.WriteTo(buf)
		}
		return err
	}
	for _, c := range []Compression{{}, {Bits: 8}, {Bits: 16}} {
		for _, tc := range []struct {
			name     string
			src, ref *Set
		}{{"abs", ref, nil}, {"delta", upd, ref}, {"large", big, nil}} {
			var buf bytes.Buffer
			if err := encode(&buf, tc.src, c, tc.ref); err != nil {
				t.Fatal(err)
			}
			encoded := append([]byte(nil), buf.Bytes()...)
			if a := testing.AllocsPerRun(50, func() {
				buf.Reset()
				if err := encode(&buf, tc.src, c, tc.ref); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("%s %s: encode into a warm buffer: %v allocs", c, tc.name, a)
			}
			dst := tc.src.Clone()
			var rd bytes.Reader
			if a := testing.AllocsPerRun(50, func() {
				rd.Reset(encoded)
				if _, err := dst.DecodeFromRef(&rd, tc.ref); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("%s %s: DecodeFromRef: %v allocs", c, tc.name, a)
			}
		}
	}
}

// cpq1Receiver parses the entry headers of a CPQ1 stream — skipping
// each payload by its claimed size — and returns a receiver with that
// structure and a reference of the same shape holding arbitrary
// values, so DecodeFromRef can be driven on delta-coded input. Parsing
// stops at the first truncated or implausible header, or once the
// entries hold 2^16 values.
func cpq1Receiver(data []byte) (recv, ref *Set) {
	recv, ref = New(), New()
	if len(data) < 9 || string(data[:4]) != compressMagic || (data[4] != 8 && data[4] != 16) {
		return recv, ref
	}
	lb := int(data[4]) / 8
	count := binary.LittleEndian.Uint32(data[5:])
	p, total := 9, 0
	u32 := func() (uint32, bool) {
		if p+4 > len(data) {
			return 0, false
		}
		p += 4
		return binary.LittleEndian.Uint32(data[p-4:]), true
	}
	for i := uint32(0); i < count; i++ {
		nameLen, ok := u32()
		if !ok || nameLen > 4096 || p+int(nameLen) > len(data) {
			return recv, ref
		}
		name := string(data[p : p+int(nameLen)])
		p += int(nameLen)
		rows, ok1 := u32()
		cols, ok2 := u32()
		// Bounded in uint64 before it is used: the product of two u32
		// fields overflows int on 32-bit platforms.
		size64 := uint64(rows) * uint64(cols)
		if !ok1 || !ok2 || rows > 1<<16 || cols > 1<<16 || uint64(total)+size64 > 1<<16 || recv.Has(name) || p >= len(data) {
			return recv, ref
		}
		size := int(size64)
		total += size
		vals := make([]float64, size)
		for j := range vals {
			vals[j] = float64(j%11) - 5.5
		}
		recv.Add(name, int(rows), int(cols), make([]float64, size))
		ref.Add(name, int(rows), int(cols), vals)
		flags := data[p]
		p++
		if flags&flagSparse != 0 {
			nnz, ok := u32()
			if !ok {
				return recv, ref
			}
			p += 16 + int(nnz)*(4+lb)
		} else {
			p += 16 + size*lb
		}
	}
	return recv, ref
}
