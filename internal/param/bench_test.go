package param

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// benchSet mirrors a bench-scale GMF parameter set (140 users, 260
// items, dim 8 plus the output vector).
func benchSet() *Set {
	r := rand.New(rand.NewPCG(1, 2))
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		return x
	}
	s := New()
	s.Add("user_emb", 140, 8, fill(140*8))
	s.Add("item_emb", 260, 8, fill(260*8))
	s.AddVector("h", fill(8))
	return s
}

// BenchmarkParamClone tracks the per-message payload cost: the seed's
// Clone-per-message baseline vs the recycled pipeline the simulators
// now use. allocs/op is the headline number.
func BenchmarkParamClone(b *testing.B) {
	src := benchSet()
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := src.Clone()
			_ = s
		}
	})
	b.Run("pooled", func(b *testing.B) {
		var pool Buffers
		pool.Put(pool.Clone(src)) // warm the free-list
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := pool.Clone(src)
			pool.Put(s)
		}
	})
	b.Run("pooled-without", func(b *testing.B) {
		var pool Buffers
		pool.Put(pool.CloneWithout(src, "user_emb"))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := pool.CloneWithout(src, "user_emb")
			pool.Put(s)
		}
	})
	b.Run("cloneinto", func(b *testing.B) {
		dst := src.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = src.CloneInto(dst)
		}
	})
}

// paperSet mirrors a paper-scale GMF parameter set (~1000 users, 20k
// items, dim 16 ≈ 2.7 MB encoded) — the sizing where codec throughput,
// not per-message overhead, dominates the wire transport.
func paperSet() *Set {
	r := rand.New(rand.NewPCG(3, 4))
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		return x
	}
	s := New()
	s.Add("user_emb", 1000, 16, fill(1000*16))
	s.Add("item_emb", 20000, 16, fill(20000*16))
	s.AddVector("h", fill(16))
	s.AddVector("bias", fill(1))
	return s
}

// BenchmarkCodecThroughput prices the wire codecs in MB/s (the B/s
// column). The dense CPS1 rows run on a paper-scale payload, for the
// zero-copy little-endian fast path and the portable per-float
// fallback: encode (WriteTo into a warm buffer), trusted decode
// (DecodeFromRef, the transport receive path), and untrusted decode
// (ReadFrom). The cpq1/ rows price the compressed codec (see
// benchCompressedCodec).
func BenchmarkCodecThroughput(b *testing.B) {
	src := paperSet()
	size := int64(src.WireBytes())
	var encoded bytes.Buffer
	if _, err := src.WriteTo(&encoded); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"portable", false}} {
		saved := codecFastPath
		codecFastPath = mode.fast
		b.Run(fmt.Sprintf("encode/%s", mode.name), func(b *testing.B) {
			var buf bytes.Buffer
			buf.Grow(int(size))
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if _, err := src.WriteTo(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/%s", mode.name), func(b *testing.B) {
			dst := src.Clone()
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dst.DecodeFromRef(bytes.NewReader(encoded.Bytes()), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("readfrom/%s", mode.name), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out Set
				if _, err := out.ReadFrom(bytes.NewReader(encoded.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
		codecFastPath = saved
	}
	b.Run("cpq1", benchCompressedCodec)
}

// gmfBenchSet mirrors the bench-spec GMF model (150 users, 700 items,
// dim 8 plus the output vector and bias) — the payload the federated
// benchmark's compressed uploads and broadcasts carry.
func gmfBenchSet() *Set {
	r := rand.New(rand.NewPCG(5, 6))
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 0.1 * r.NormFloat64()
		}
		return x
	}
	s := New()
	s.Add("user_emb", 150, 8, fill(150*8))
	s.Add("item_emb", 700, 8, fill(700*8))
	s.AddVector("h", fill(8))
	s.AddVector("bias", fill(1))
	return s
}

// localUpdate returns a copy of ref moved the way one client's local
// training moves it: its own user row, ~10% of the item rows, and the
// output vector and bias change; every other coordinate stays
// bit-identical, so a delta against ref is sparse.
func localUpdate(ref *Set) *Set {
	r := rand.New(rand.NewPCG(7, 8))
	s := ref.Clone()
	for i := 0; i < s.Len(); i++ {
		e := s.At(i)
		for row := 0; row < e.Rows; row++ {
			if e.Rows > 1 && row != 3 && r.IntN(10) != 0 {
				continue
			}
			for j := row * e.Cols; j < (row+1)*e.Cols; j++ {
				e.Data[j] += 0.01 * r.NormFloat64()
			}
		}
	}
	return s
}

// benchCompressedCodec prices the CPQ1 kernels in MB/s of dense
// payload (the B/s column uses WireBytes, so the figures compare with
// the CPS1 rows): encode (WriteCompressedTo into a warm buffer) and the
// transport's in-place decode (DecodeFromRef), at 8 and 16 bits, for
// absolute payloads (a broadcast: dense levels) and delta-coded ones
// (an upload against the broadcast: sparse pairs), on the bench GMF
// shape and at paper scale.
func benchCompressedCodec(b *testing.B) {
	for _, shape := range []struct {
		name string
		ref  *Set
	}{{"gmf", gmfBenchSet()}, {"paper", paperSet()}} {
		upd := localUpdate(shape.ref)
		size := int64(shape.ref.WireBytes())
		for _, bits := range []int{8, 16} {
			c := Compression{Bits: bits}
			for _, mode := range []struct {
				name     string
				src, ref *Set
			}{{"abs", shape.ref, nil}, {"delta", upd, shape.ref}} {
				prefix := fmt.Sprintf("%s/%dbit/%s", shape.name, bits, mode.name)
				var encoded bytes.Buffer
				if _, err := mode.src.WriteCompressedTo(&encoded, c, mode.ref); err != nil {
					b.Fatal(err)
				}
				b.Run(prefix+"/encode", func(b *testing.B) {
					var buf bytes.Buffer
					buf.Grow(encoded.Len())
					b.SetBytes(size)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						buf.Reset()
						if _, err := mode.src.WriteCompressedTo(&buf, c, mode.ref); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(prefix+"/decode", func(b *testing.B) {
					dst := mode.src.Clone()
					var rd bytes.Reader
					b.SetBytes(size)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rd.Reset(encoded.Bytes())
						if _, err := dst.DecodeFromRef(&rd, mode.ref); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
