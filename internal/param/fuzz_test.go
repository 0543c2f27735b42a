package param

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// fuzzSeeds returns the hand-picked seed inputs mirrored in
// testdata/fuzz/FuzzParamSetReadFrom (go's fuzzer merges both).
func fuzzSeeds() [][]byte {
	var valid bytes.Buffer
	s := New()
	s.Add("user_emb", 3, 4, []float64{1.5, -2, 0, 4.25, 1e-9, 6e12, -0.5, 2, 3, 4, 5, 6})
	s.AddVector("bias", []float64{0.25, -0.75})
	if _, err := s.WriteTo(&valid); err != nil {
		panic(err)
	}
	var empty bytes.Buffer
	if _, err := New().WriteTo(&empty); err != nil {
		panic(err)
	}
	return [][]byte{
		valid.Bytes(),
		empty.Bytes(),
		valid.Bytes()[:len(valid.Bytes())/2],           // truncated mid-data
		[]byte("XXXX\x00\x00\x00\x00"),                 // bad magic
		[]byte("CPS1\xff\xff\xff\xff"),                 // implausible entry count
		[]byte("CPS1\x01\x00\x00\x00\xff\xff\x00\x00"), // name length too long
		// One entry claiming a huge 2^16 × 2^15 shape with no data: the
		// incremental-allocation guard must fail this cheaply.
		[]byte("CPS1\x01\x00\x00\x00\x01\x00\x00\x00m\x00\x00\x01\x00\x00\x80\x00\x00"),
	}
}

// FuzzParamSetReadFrom fuzzes the dense codec's two decoders:
//
//   - any input either parses or fails with an error — never a panic —
//     through ReadFrom and through the transports' in-place
//     DecodeFromRef, which runs on every input against a receiver
//     shaped from the stream's own headers (cps1Receiver), whether
//     ReadFrom accepts the input or not;
//   - a successful parse is canonical: re-encoding the parsed set
//     reproduces exactly the consumed prefix of the input
//     (WriteTo ∘ ReadFrom = identity on the wire), and DecodeFromRef
//     agrees with ReadFrom on it;
//   - neither decoder reports more bytes than the input holds.
func FuzzParamSetReadFrom(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, []byte(compressMagic)) {
			// Mutated into the lossy CPQ1 format, whose re-encode is not
			// byte-identical to the input; FuzzSparseCodecDecode owns
			// that space with the compressed invariants.
			return
		}
		if dn, _ := cps1Receiver(data).DecodeFromRef(bytes.NewReader(data), nil); dn > int64(len(data)) {
			t.Fatalf("DecodeFromRef reported %d bytes from a %d-byte input", dn, len(data))
		}
		s := New()
		n, err := s.ReadFrom(bytes.NewReader(data))
		if n > int64(len(data)) {
			t.Fatalf("ReadFrom reported %d bytes from a %d-byte input", n, len(data))
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if _, err := s.WriteTo(&re); err != nil {
			t.Fatalf("re-encode of parsed set failed: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data[:n]) {
			t.Fatalf("re-encode is not byte-identical to the parsed prefix (%d vs %d bytes)", re.Len(), n)
		}
		// The in-place decode path must accept everything ReadFrom
		// accepts and produce the same values.
		dst := s.Clone()
		dst.Scale(0) // scrub so agreement is not vacuous
		dn, err := dst.DecodeFromRef(bytes.NewReader(data[:n]), nil)
		if err != nil {
			t.Fatalf("DecodeFromRef rejected a ReadFrom-accepted stream: %v", err)
		}
		if dn != n {
			t.Fatalf("DecodeFromRef consumed %d bytes, ReadFrom %d", dn, n)
		}
		if !Equal(s, dst, 0) {
			t.Fatal("DecodeFromRef and ReadFrom disagree on values")
		}
	})
}

// cps1Receiver parses the entry headers of a CPS1 stream — skipping
// each payload by its claimed size — and returns a receiver with that
// structure, so DecodeFromRef can be driven on hostile dense input the
// way cpq1Receiver drives it on compressed input. Parsing stops at the
// first truncated or implausible header, or once the entries hold
// 2^16 values.
func cps1Receiver(data []byte) *Set {
	recv := New()
	if len(data) < 8 || string(data[:4]) != serializeMagic {
		return recv
	}
	count := binary.LittleEndian.Uint32(data[4:])
	p, total := 8, uint64(0)
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
			return recv
		}
		name := string(data[p : p+int(nameLen)])
		p += int(nameLen)
		rows, ok1 := u32()
		cols, ok2 := u32()
		size := uint64(rows) * uint64(cols)
		if !ok1 || !ok2 || rows > 1<<16 || cols > 1<<16 || total+size > 1<<16 || recv.Has(name) {
			return recv
		}
		total += size
		recv.Add(name, int(rows), int(cols), make([]float64, size))
		p += 8 * int(size)
	}
	return recv
}

// A header lying about its entry size must fail after allocating
// storage proportional to the bytes that actually arrived, not to the
// claimed size (a 2^31-element claim would otherwise allocate 16 GiB
// before the first data byte is read).
func TestReadFromHugeClaimDoesNotOverAllocate(t *testing.T) {
	var in bytes.Buffer
	in.WriteString("CPS1")
	in.Write([]byte{1, 0, 0, 0})   // one entry
	in.Write([]byte{1, 0, 0, 0})   // nameLen 1
	in.WriteByte('m')              //
	in.Write([]byte{0, 0, 1, 0})   // rows = 65536
	in.Write([]byte{0, 128, 0, 0}) // cols = 32768 → 2^31 elements
	in.Write(make([]byte, 4096))   // only 4 KiB of data ever arrives
	data := in.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := New()
	_, err := out.ReadFrom(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated huge-claim input must fail")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("ReadFrom allocated %d bytes for a %d-byte input", grew, len(data))
	}
}

// An implausible entry count or entry size is rejected as soon as its
// field is read, before any further byte is consumed, even when the
// stream goes on to carry well-formed data.
func TestReadFromRejectsImplausibleClaims(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	entry := func(rows, cols uint32) []byte {
		return u32(u32(append(u32(nil, 1), 'm'), rows), cols)
	}
	payload := make([]byte, 8*(floatChunk+1))
	for _, tc := range []struct {
		name        string
		claim, rest []byte
	}{
		{"entry count 2^20+1", u32(nil, 1<<20+1), append(entry(1, 1), payload...)},
		{"entry size 2^32+2^16", append(u32(nil, 1), entry(1<<16+1, 1<<16)...), payload},
	} {
		in := append([]byte(serializeMagic), tc.claim...)
		want := int64(len(in))
		n, err := New().ReadFrom(bytes.NewReader(append(in, tc.rest...)))
		if err == nil || n != want {
			t.Errorf("%s: ReadFrom read %d bytes (want %d) and returned %v", tc.name, n, want, err)
		}
	}
}

func TestReadFromRejectsDuplicateEntryNames(t *testing.T) {
	var in bytes.Buffer
	in.WriteString("CPS1")
	in.Write([]byte{2, 0, 0, 0})
	for i := 0; i < 2; i++ {
		in.Write([]byte{1, 0, 0, 0}) // nameLen 1
		in.WriteByte('d')            // same name twice
		in.Write([]byte{1, 0, 0, 0}) // rows 1
		in.Write([]byte{1, 0, 0, 0}) // cols 1
		in.Write(make([]byte, 8))    // one float64
	}
	out := New()
	if _, err := out.ReadFrom(bytes.NewReader(in.Bytes())); err == nil {
		t.Fatal("duplicate entry names must be rejected, not panic Add")
	}
}

func TestDecodeFromMatchingStructure(t *testing.T) {
	src := newTestSet(1.5, -2, 0, 4.25, 1e-9, 6e12)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := src.Clone()
	dst.Scale(0)
	backing := dst.At(0).Data
	n, err := dst.DecodeFromRef(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("consumed %d of %d bytes", n, buf.Len())
	}
	if !Equal(src, dst, 0) {
		t.Fatal("decoded values differ")
	}
	if &backing[0] != &dst.At(0).Data[0] {
		t.Fatal("DecodeFromRef replaced backing storage instead of writing in place")
	}
}

func TestDecodeFromStructureMismatch(t *testing.T) {
	src := newTestSet(1, 2, 3, 4, 5, 6)
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Set{
		"empty receiver": New(),
		"extra entry": func() *Set {
			s := src.Clone()
			s.AddVector("extra", []float64{1})
			return s
		}(),
		"renamed entry": func() *Set {
			s := New()
			for i := 0; i < src.Len(); i++ {
				e := src.At(i)
				s.Add(e.Name+"x", e.Rows, e.Cols, append([]float64(nil), e.Data...))
			}
			return s
		}(),
	}
	for name, dst := range cases {
		if _, err := dst.DecodeFromRef(bytes.NewReader(buf.Bytes()), nil); err == nil {
			t.Errorf("%s: expected structural-mismatch error", name)
		}
	}
}

// DecodeFromRef is the transport's receive path and must be value-
// transparent: NaN payloads (a diverged simulation) pass through
// rather than erroring, unlike the untrusted-input ReadFrom.
func TestDecodeFromCarriesNaN(t *testing.T) {
	src := New()
	src.AddVector("v", []float64{1, 2})
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for i := len(b) - 8; i < len(b); i++ {
		b[i] = 0xFF // corrupt the last float into a NaN
	}
	dst := src.Clone()
	if _, err := dst.DecodeFromRef(bytes.NewReader(b), nil); err != nil {
		t.Fatalf("transport decode must carry NaN: %v", err)
	}
	if v := dst.Get("v")[1]; v == v {
		t.Fatal("expected NaN to survive the decode")
	}
}
