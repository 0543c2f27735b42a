package transport

import (
	"testing"

	"github.com/collablearn/ciarec/internal/param"
)

// compressedBackends builds one instance of every base backend at the
// given compression level (callers Close them).
func compressedBackends(t *testing.T, comp param.Compression) []Transport {
	t.Helper()
	var ts []Transport
	for _, name := range Names() {
		tr, err := NewOptions(name, Options{Compression: comp})
		if err != nil {
			t.Fatalf("NewOptions(%q, %v): %v", name, comp, err)
		}
		ts = append(ts, tr)
	}
	return ts
}

// traffic keeps the Stats counters every backend fills, dropping the
// RPC counters only socket has.
func traffic(st Stats) Stats {
	return Stats{
		Messages: st.Messages, Bytes: st.Bytes,
		BroadcastMessages: st.BroadcastMessages, BroadcastBytes: st.BroadcastBytes,
		RawBytes: st.RawBytes, RawBroadcastBytes: st.RawBroadcastBytes,
	}
}

// A compressed round — broadcast out, perturbed payload back — must
// compute bit-identical values, and count identical traffic, on every
// backend: compressed inproc is the serializing path Wire runs, and the
// socket server only relays bytes. The received values must also stay
// within the codec's documented error bound of what was sent.
func TestCompressedBackendsEquivalent(t *testing.T) {
	for _, bits := range []int{8, 16} {
		comp := param.Compression{Bits: bits}
		t.Run(comp.String(), func(t *testing.T) {
			type result struct {
				name            string
				bcast, received *param.Set
				traffic         Stats
			}
			var results []result
			for _, tr := range compressedBackends(t, comp) {
				src := testSet(2)
				origSrc := src.Clone()
				bc, err := tr.OpenBroadcast(3, src)
				if err != nil {
					t.Fatal(err)
				}
				dst := testSet(0)
				if err := bc.Deliver(0, dst); err != nil {
					t.Fatal(err)
				}
				// The upload: the delivered model locally perturbed — the
				// shape of a FedAvg round, sent while the broadcast is open
				// so it delta-codes against src.
				payload := dst.Clone()
				payload.Get("item_emb")[7] += 0.125
				payload.Get("bias")[2] -= 3e-3
				sent := payload.Clone()
				var pool param.Buffers
				got, err := tr.Send(3, 0, payload, &pool)
				if err != nil {
					t.Fatal(err)
				}
				if !param.Equal(src, origSrc, 0) {
					t.Fatalf("%s: compressed broadcast mutated the borrowed source", tr.Name())
				}
				bc.Close()
				for _, e := range []struct {
					name       string
					sent, recv *param.Set
				}{{"broadcast", origSrc, dst}, {"send", sent, got}} {
					for i := 0; i < e.sent.Len(); i++ {
						se, re := e.sent.At(i), e.recv.At(i)
						lo, hi := se.Data[0], se.Data[0]
						for _, v := range se.Data {
							lo, hi = min(lo, v), max(hi, v)
						}
						bound := comp.MaxError(hi - lo)
						for j := range se.Data {
							if d := re.Data[j] - se.Data[j]; d > bound || d < -bound {
								t.Fatalf("%s: %s %s[%d]: |%g - %g| beyond bound %g",
									tr.Name(), e.name, se.Name, j, re.Data[j], se.Data[j], bound)
							}
						}
					}
				}
				results = append(results, result{tr.Name(), dst, got.Clone(), traffic(tr.Stats())})
				pool.Put(got)
				tr.Close()
			}
			for _, r := range results[1:] {
				if !param.Equal(results[0].bcast, r.bcast, 0) {
					t.Errorf("broadcast values differ between %s and %s", results[0].name, r.name)
				}
				if !param.Equal(results[0].received, r.received, 0) {
					t.Errorf("received values differ between %s and %s", results[0].name, r.name)
				}
				if r.traffic != results[0].traffic {
					t.Errorf("traffic differs between %s %+v and %s %+v",
						results[0].name, results[0].traffic, r.name, r.traffic)
				}
			}
		})
	}
}

// With compression off every backend must keep RawBytes == Bytes (the
// dense codec is the raw accounting) and count identical traffic.
func TestCompressionOffRawEqualsBytes(t *testing.T) {
	var first Stats
	for i, tr := range compressedBackends(t, param.Compression{}) {
		var pool param.Buffers
		src := testSet(1)
		bc, err := tr.OpenBroadcast(0, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.Deliver(0, testSet(0)); err != nil {
			t.Fatal(err)
		}
		bc.Close()
		got, err := tr.Send(0, 0, pool.Clone(src), &pool)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(got)
		st := tr.Stats()
		if st.RawBytes != st.Bytes || st.RawBroadcastBytes != st.BroadcastBytes {
			t.Errorf("%s: raw/actual bytes diverge with compression off: %+v", tr.Name(), st)
		}
		if st.RawBytes == 0 || st.RawBroadcastBytes == 0 {
			t.Errorf("%s: raw byte counters not accumulated: %+v", tr.Name(), st)
		}
		if i == 0 {
			first = traffic(st)
		} else if traffic(st) != first {
			t.Errorf("%s: traffic %+v differs from inproc %+v", tr.Name(), traffic(st), first)
		}
		tr.Close()
	}
}

// An 8-bit delta-coded upload of a lightly-perturbed model must move
// at least 2× fewer payload bytes than the dense codec — the PR's
// headline saving, checked here on the real socket path (and every
// other backend) via the Stats raw-vs-actual counters.
func TestCompressedSendHalvesPayloadBytes(t *testing.T) {
	for _, tr := range compressedBackends(t, param.Compression{Bits: 8}) {
		var pool param.Buffers
		src := testSet(1)
		bc, err := tr.OpenBroadcast(0, src)
		if err != nil {
			t.Fatal(err)
		}
		payload := pool.Clone(src)
		payload.Get("item_emb")[3] += 0.5 // a sparse local update
		got, err := tr.Send(0, 0, payload, &pool)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(got)
		bc.Close()
		st := tr.Stats()
		if st.Bytes*2 > st.RawBytes {
			t.Errorf("%s: compressed upload moved %d bytes, dense %d — want ≥2× saving",
				tr.Name(), st.Bytes, st.RawBytes)
		}
		// The broadcast has no reference but still quantizes 8 bytes per
		// value down to ~1.
		if st.BroadcastBytes*2 > st.RawBroadcastBytes {
			t.Errorf("%s: compressed broadcast moved %d bytes, dense %d — want ≥2× saving",
				tr.Name(), st.BroadcastBytes, st.RawBroadcastBytes)
		}
		tr.Close()
	}
}

// The delta reference is scoped to the open broadcast's round: sends
// in other rounds, or after Close, code absolute (the decoder of a
// gossip push or a late upload has no broadcast to reconstruct from).
func TestCompressedSendRefScopedToRound(t *testing.T) {
	tr, err := NewOptions("wire", Options{Compression: param.Compression{Bits: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	w := tr.(*Wire)
	src := testSet(1)
	bc, err := tr.OpenBroadcast(4, src)
	if err != nil {
		t.Fatal(err)
	}
	if w.sendRef(4) != src {
		t.Fatal("open broadcast must publish its source as the round's send reference")
	}
	if w.sendRef(5) != nil {
		t.Fatal("the send reference must not leak into other rounds")
	}
	bc.Close()
	if w.sendRef(4) != nil {
		t.Fatal("Broadcast.Close must withdraw the send reference")
	}
}

// The faulty wrapper forwards the inner backend's codec: the transport
// is the one place that says which codec a run uses, so a wrapped
// backend must report the inner one's.
func TestFaultyDelegatesCompression(t *testing.T) {
	comp := param.Compression{Bits: 16}
	tr, err := NewOptions("faulty:wire", Options{Compression: comp})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if got := tr.Compression(); got != comp {
		t.Fatalf("faulty wrapper reports compression %v, inner has %v", got, comp)
	}
	if _, err := NewOptions("wire", Options{Compression: param.Compression{Bits: 12}}); err == nil {
		t.Fatal("invalid bit width must be rejected at construction")
	}
}
