package param

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// withPortableCodec runs f with the zero-copy fast path disabled, so
// both codec implementations stay compiled and exercised regardless of
// the host's byte order. Package tests do not run in parallel, so
// toggling the flag is safe.
func withPortableCodec(t *testing.T, f func()) {
	t.Helper()
	saved := codecFastPath
	codecFastPath = false
	defer func() { codecFastPath = saved }()
	f()
}

func randomSet(r *rand.Rand) *Set {
	s := New()
	n := 1 + r.IntN(4)
	for i := 0; i < n; i++ {
		rows, cols := 1+r.IntN(40), 1+r.IntN(17)
		data := make([]float64, rows*cols)
		for j := range data {
			data[j] = r.NormFloat64() * math.Pow(10, float64(r.IntN(7)-3))
		}
		s.Add(string(rune('a'+i))+"/entry", rows, cols, data)
	}
	return s
}

// TestCodecFastPathPortableEquivalence pins the two codec paths to each
// other: identical encoded bytes, and identical decoded values through
// both ReadFrom and DecodeFromRef, in every fast/portable combination.
func TestCodecFastPathPortableEquivalence(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 50; trial++ {
		s := randomSet(r)

		var fast, portable bytes.Buffer
		if _, err := s.WriteTo(&fast); err != nil {
			t.Fatal(err)
		}
		withPortableCodec(t, func() {
			if _, err := s.WriteTo(&portable); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(fast.Bytes(), portable.Bytes()) {
			t.Fatalf("trial %d: fast and portable encodings differ", trial)
		}

		// Decode the shared bytes through all four (path × entry point)
		// combinations; every result must match the source bit for bit.
		check := func(name string, got *Set) {
			t.Helper()
			if !Equal(s, got, 0) {
				t.Fatalf("trial %d: %s decode differs from source", trial, name)
			}
		}
		var viaRead Set
		if _, err := viaRead.ReadFrom(bytes.NewReader(fast.Bytes())); err != nil {
			t.Fatal(err)
		}
		check("fast ReadFrom", &viaRead)
		viaDecode := s.Clone()
		viaDecode.Scale(0) // ensure the decode really writes every value
		if _, err := viaDecode.DecodeFromRef(bytes.NewReader(fast.Bytes()), nil); err != nil {
			t.Fatal(err)
		}
		check("fast DecodeFromRef", viaDecode)
		withPortableCodec(t, func() {
			var p Set
			if _, err := p.ReadFrom(bytes.NewReader(fast.Bytes())); err != nil {
				t.Fatal(err)
			}
			check("portable ReadFrom", &p)
			pd := s.Clone()
			pd.Scale(0)
			if _, err := pd.DecodeFromRef(bytes.NewReader(fast.Bytes()), nil); err != nil {
				t.Fatal(err)
			}
			check("portable DecodeFromRef", pd)
		})
	}
}

// TestCodecFastPathRejectsNaN keeps the untrusted-input NaN guard alive
// on the bulk-copy path.
func TestCodecFastPathRejectsNaN(t *testing.T) {
	s := New()
	data := make([]float64, 70)
	data[69] = math.NaN()
	s.Add("x", 7, 10, data)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var out Set
	if _, err := out.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("fast-path ReadFrom accepted NaN")
	}
	withPortableCodec(t, func() {
		var out Set
		if _, err := out.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatal("portable ReadFrom accepted NaN")
		}
	})
}
