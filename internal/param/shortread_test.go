package param

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// TestDecodeShortReads: a stream that arrives in short reads — one
// byte at a time, or half of every request — decodes bit-identically
// to the whole buffer, through both ReadFrom and the transports'
// in-place DecodeFromRef. It covers the dense CPS1 codec and CPQ1 at 8
// and 16 bits, coded absolute (a broadcast) and as a sparse delta
// against the broadcast (an upload). ReadFrom rejects delta streams,
// so there it must fail the same way short or whole.
func TestDecodeShortReads(t *testing.T) {
	global := gmfBenchSet()
	upload := localUpdate(global)
	cases := []struct {
		name     string
		comp     Compression
		src, ref *Set
	}{
		{"cps1", Compression{}, global, nil},
		{"cpq1/8bit/abs", Compression{Bits: 8}, global, nil},
		{"cpq1/8bit/delta", Compression{Bits: 8}, upload, global},
		{"cpq1/16bit/abs", Compression{Bits: 16}, global, nil},
		{"cpq1/16bit/delta", Compression{Bits: 16}, upload, global},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
	}
	type result struct {
		set *Set
		n   int64
		err string
	}
	decodeRef := func(r io.Reader, shape, ref *Set) result {
		dst := scrubbedClone(shape)
		n, err := dst.DecodeFromRef(r, ref)
		return result{dst, n, errString(err)}
	}
	readFrom := func(r io.Reader) result {
		dst := New()
		n, err := dst.ReadFrom(r)
		return result{dst, n, errString(err)}
	}
	same := func(a, b result) bool { return a.n == b.n && a.err == b.err && bitIdentical(a.set, b.set) }

	for _, c := range cases {
		var buf bytes.Buffer
		var err error
		if c.comp.Enabled() {
			_, err = c.src.WriteCompressedTo(&buf, c.comp, c.ref)
		} else {
			_, err = c.src.WriteTo(&buf)
		}
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		data := buf.Bytes()
		wantIn := decodeRef(bytes.NewReader(data), c.src, c.ref)
		if wantIn.err != "" || wantIn.n != int64(len(data)) {
			t.Fatalf("%s: whole-buffer DecodeFromRef: %d of %d bytes, %s", c.name, wantIn.n, len(data), wantIn.err)
		}
		wantRead := readFrom(bytes.NewReader(data))
		if (c.ref != nil) != (wantRead.err != "") {
			t.Fatalf("%s: whole-buffer ReadFrom error %q", c.name, wantRead.err)
		}
		for _, rd := range readers {
			t.Run(c.name+"/"+rd.name, func(t *testing.T) {
				if got := decodeRef(rd.wrap(bytes.NewReader(data)), c.src, c.ref); !same(got, wantIn) {
					t.Errorf("DecodeFromRef: %d bytes, %q; whole buffer: %d bytes, %q (or values differ)", got.n, got.err, wantIn.n, wantIn.err)
				}
				if got := readFrom(rd.wrap(bytes.NewReader(data))); !same(got, wantRead) {
					t.Errorf("ReadFrom: %d bytes, %q; whole buffer: %d bytes, %q (or values differ)", got.n, got.err, wantRead.n, wantRead.err)
				}
			})
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
