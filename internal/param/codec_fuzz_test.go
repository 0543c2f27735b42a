package param

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// sparseCodecSeeds returns the hand-picked seed inputs mirrored in
// testdata/fuzz/FuzzSparseCodecDecode (go's fuzzer merges both; the
// -update flag of TestSparseCodecSeedCorpusInSync rewrites the
// committed copies): valid streams of both modes and widths, plus one
// specimen of every malformed-stream class the decoder must reject
// without panicking.
func sparseCodecSeeds() []struct {
	name string
	data []byte
} {
	encodeRef := func(c Compression, ref *Set, build func(s *Set)) []byte {
		s := New()
		build(s)
		var buf bytes.Buffer
		if _, err := s.WriteCompressedTo(&buf, c, ref); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	encode := func(c Compression, build func(s *Set)) []byte { return encodeRef(c, nil, build) }
	dense8 := encode(Compression{Bits: 8}, func(s *Set) {
		s.Add("emb", 3, 4, []float64{1.5, -2, 0.25, 4.25, 1e-3, 0.5, -0.5, 2, 3, 4, 5, 6})
		s.AddVector("bias", []float64{0.25, -0.75})
	})
	sparse16 := encode(Compression{Bits: 16}, func(s *Set) {
		d := make([]float64, 64)
		d[3], d[17], d[41] = 0.5, -1.25, 2e-2
		s.Add("delta", 8, 8, d)
	})
	empty := encode(Compression{Bits: 8}, func(s *Set) {})
	// Delta-coded uploads against a reference: one entry moved in most
	// coordinates (dense levels), one in few (sparse pairs), one not at
	// all (an empty sparse payload).
	deltaRef := New()
	deltaRef.Add("emb", 4, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8, -1, -2, -3, -4, 0.5, 0.25, 0, -0.5})
	deltaRef.AddVector("h", []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
	deltaRef.AddVector("bias", []float64{3})
	deltaUpload := func(bits int) []byte {
		return encodeRef(Compression{Bits: bits}, deltaRef, func(s *Set) {
			emb := slices.Clone(deltaRef.Get("emb"))
			for j := range emb {
				emb[j] += 0.01 * float64(j%5-2)
			}
			h := slices.Clone(deltaRef.Get("h"))
			h[6] -= 0.125
			s.Add("emb", 4, 4, emb)
			s.AddVector("h", h)
			s.AddVector("bias", []float64{3})
		})
	}
	// A sparse entry header: u32 nnz=2 | lo=-1 | hi=1 | 2 (u32 idx, u8
	// level) pairs — reused below with broken index orders.
	sparsePair := func(i0, i1 uint32) []byte {
		var b bytes.Buffer
		b.WriteString("CPQ1")
		b.WriteByte(8)
		b.Write([]byte{1, 0, 0, 0}) // one entry
		b.Write([]byte{1, 0, 0, 0}) // nameLen 1
		b.WriteByte('d')
		b.Write([]byte{8, 0, 0, 0}) // rows 8
		b.Write([]byte{1, 0, 0, 0}) // cols 1
		b.WriteByte(1)              // flags: sparse
		b.Write([]byte{2, 0, 0, 0}) // nnz 2
		binary.Write(&b, binary.LittleEndian, float64(-1))
		binary.Write(&b, binary.LittleEndian, float64(1))
		binary.Write(&b, binary.LittleEndian, i0)
		b.WriteByte(10)
		binary.Write(&b, binary.LittleEndian, i1)
		b.WriteByte(200)
		return b.Bytes()
	}
	deltaFlagged := append([]byte(nil), dense8...)
	// Flip the first entry's flags byte (right after the 12-byte entry
	// header following the 9-byte prologue + 3-byte name) to delta.
	deltaFlagged[9+12+3] |= flagDelta
	return []struct {
		name string
		data []byte
	}{
		{"valid-dense-8bit", dense8},
		{"valid-sparse-16bit", sparse16},
		{"valid-empty-set", empty},
		{"truncated", dense8[:len(dense8)/2]},
		{"unsorted-indices", sparsePair(5, 2)},
		{"duplicate-indices", sparsePair(3, 3)},
		{"index-out-of-range", sparsePair(3, 9)},
		{"delta-without-reference", deltaFlagged},
		{"valid-delta-8bit", deltaUpload(8)},
		{"valid-delta-16bit", deltaUpload(16)},
		{"delta-truncated", func() []byte { d := deltaUpload(8); return d[:len(d)-3] }()},
		{"bad-bit-width", []byte("CPQ1\x07")},
		{"huge-count", []byte("CPQ1\x08\xff\xff\xff\xff")},
		// One sparse entry claiming a 2^16 × 2^15 dense shape with a
		// 2-value payload: the expansion budget must refuse it cheaply.
		{"sparse-bomb-claim",
			append([]byte("CPQ1\x08\x01\x00\x00\x00\x01\x00\x00\x00m\x00\x00\x01\x00\x00\x80\x00\x00\x01\x02\x00\x00\x00"),
				make([]byte, 26)...)},
	}
}

// TestSparseCodecSeedCorpusInSync pins the committed seed corpus to
// sparseCodecSeeds: every seed must sit under testdata/fuzz in go's
// corpus-file format, byte-identical. Run with -update to rewrite the
// files after changing the seed list.
func TestSparseCodecSeedCorpusInSync(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSparseCodecDecode")
	if *updateCorpus {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, seed := range sparseCodecSeeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.data)
			if err := os.WriteFile(filepath.Join(dir, "seed-"+seed.name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, seed := range sparseCodecSeeds() {
		raw, err := os.ReadFile(filepath.Join(dir, "seed-"+seed.name))
		if err != nil {
			t.Fatalf("missing corpus file (run with -update to regenerate): %v", err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("seed-%s: not a go corpus file", seed.name)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		got, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("seed-%s: unquote: %v", seed.name, err)
		}
		if !bytes.Equal([]byte(got), seed.data) {
			t.Errorf("seed-%s drifted from sparseCodecSeeds (run with -update)", seed.name)
		}
	}
}

var updateCorpus = flag.Bool("update", false, "rewrite the FuzzSparseCodecDecode seed corpus from sparseCodecSeeds")

// FuzzSparseCodecDecode fuzzes the compressed (CPQ1) decode path:
//
//   - any input either parses or fails with an error — never a panic,
//     and never an allocation proportional to a lying length claim;
//   - the reported byte count never exceeds the input length;
//   - a successful parse re-encodes: the decoded set is finite by
//     construction, so WriteCompressedTo at the stream's bit width
//     must succeed, and never produce more bytes than the consumed
//     prefix (the encoder picks the smaller payload form per entry);
//   - the transport's in-place decode (DecodeFromRef on a receiver with
//     the parsed structure) accepts everything ReadFrom accepts and
//     produces the same values;
//   - both decoders match the frozen pre-optimisation decoders of
//     codec_oracle_test.go — same acceptance, same consumed bytes,
//     bit-identical values — with DecodeFromRef driven against a
//     reference shaped from the stream's own headers, which is what
//     lets delta-coded input (rejected by ReadFrom) reach the delta
//     reconstruction kernels.
func FuzzSparseCodecDecode(f *testing.F) {
	for _, seed := range sparseCodecSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte(compressMagic)) {
			// Dense CPS1 space is FuzzParamSetReadFrom's.
			return
		}
		recv, ref := cpq1Receiver(data)
		checkDecodeMatchesOracle(t, data, recv, ref)
		s := New()
		n, err := s.ReadFrom(bytes.NewReader(data))
		if n > int64(len(data)) {
			t.Fatalf("ReadFrom reported %d bytes from a %d-byte input", n, len(data))
		}
		if err != nil {
			return
		}
		c := Compression{Bits: int(data[4])}
		var re bytes.Buffer
		rn, err := s.WriteCompressedTo(&re, c, nil)
		if err != nil {
			t.Fatalf("re-encode of parsed set failed: %v", err)
		}
		if rn > n {
			t.Fatalf("re-encode grew the stream: %d bytes from a %d-byte parsed prefix", rn, n)
		}
		redec := New()
		if _, err := redec.ReadFrom(bytes.NewReader(re.Bytes())); err != nil {
			t.Fatalf("decode of canonical re-encoding failed: %v", err)
		}
		dst := scrubbedClone(s)
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

// A sparse entry's dense size is claimed by its header, not carried as
// bytes, so a ~50-byte stream could demand gigabytes of zero-fill.
// The untrusted decode path must refuse such claims after allocating
// storage proportional to the bytes that actually arrived.
func TestCompressedSparseBombRejected(t *testing.T) {
	var in bytes.Buffer
	in.WriteString("CPQ1")
	in.WriteByte(8)
	in.Write([]byte{1, 0, 0, 0})   // one entry
	in.Write([]byte{1, 0, 0, 0})   // nameLen 1
	in.WriteByte('m')              //
	in.Write([]byte{0, 0, 1, 0})   // rows = 65536
	in.Write([]byte{0, 128, 0, 0}) // cols = 32768 → 2^31 zeros claimed
	in.WriteByte(1)                // flags: sparse
	in.Write([]byte{2, 0, 0, 0})   // nnz 2
	binary.Write(&in, binary.LittleEndian, float64(-1))
	binary.Write(&in, binary.LittleEndian, float64(1))
	in.Write(make([]byte, 10)) // the two (idx, level) pairs
	data := in.Bytes()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out := New()
	_, err := out.ReadFrom(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("sparse expansion beyond the stream budget must fail")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("ReadFrom allocated %d bytes for a %d-byte input", grew, len(data))
	}
}

// Levels of a valid stream always reconstruct finite values: the range
// header is capped at ±1e300, so a decoded set can be re-encoded. A
// range whose ends are finite but whose span overflows must be caught
// by the cap, not produce ±Inf coordinates.
func TestCompressedRangeBeyondCapRejected(t *testing.T) {
	for _, tc := range []struct{ lo, hi float64 }{
		{-math.MaxFloat64, math.MaxFloat64},
		{0, math.Inf(1)},
		{math.NaN(), 1},
		{1, -1}, // lo > hi
	} {
		var in bytes.Buffer
		in.WriteString("CPQ1")
		in.WriteByte(8)
		in.Write([]byte{1, 0, 0, 0}) // one entry
		in.Write([]byte{1, 0, 0, 0}) // nameLen 1
		in.WriteByte('v')
		in.Write([]byte{2, 0, 0, 0}) // rows 2
		in.Write([]byte{1, 0, 0, 0}) // cols 1
		in.WriteByte(0)              // flags: dense
		binary.Write(&in, binary.LittleEndian, tc.lo)
		binary.Write(&in, binary.LittleEndian, tc.hi)
		in.Write([]byte{0, 255})
		out := New()
		if _, err := out.ReadFrom(bytes.NewReader(in.Bytes())); err == nil {
			t.Errorf("range [%g, %g] must be rejected", tc.lo, tc.hi)
		}
	}
}
