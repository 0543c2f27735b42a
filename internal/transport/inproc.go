package transport

import "github.com/collablearn/ciarec/internal/param"

// Inproc is the pointer-passing backend: payloads cross the "network"
// as the same *param.Set the sender built, with wire sizes accounted
// from WireBytes. It preserves the pre-transport simulators'
// behaviour byte-identically and costs nothing per message.
//
// Inproc is dense only. NewOptions("inproc", ...) with a Compression
// level set builds the serializing path Wire runs instead (still named
// "inproc"), so a compressed simulation computes identical values
// whichever backend carries it.
type Inproc struct{ counters }

var _ Transport = (*Inproc)(nil)

// NewInproc returns a fresh in-process transport.
func NewInproc() *Inproc { return &Inproc{} }

// Name implements Transport.
func (t *Inproc) Name() string { return "inproc" }

// Compression implements Transport: pointer passing is the dense
// codec's values exactly.
func (t *Inproc) Compression() param.Compression { return param.Compression{} }

// Close implements Transport; the in-memory backend holds nothing.
func (t *Inproc) Close() error { return nil }

// Send implements Transport: the receiver observes the sender's set.
// The in-memory backend never fails.
func (t *Inproc) Send(_, _ int, payload *param.Set, _ *param.Buffers) (*param.Set, error) {
	n := int64(payload.WireBytes())
	t.messages.Add(1)
	t.bytes.Add(n)
	t.rawBytes.Add(n)
	return payload, nil
}

// OpenBroadcast implements Transport.
func (t *Inproc) OpenBroadcast(_ int, src *param.Set) (Broadcast, error) {
	return &inprocBroadcast{t: t, src: src, n: int64(src.WireBytes())}, nil
}

type inprocBroadcast struct {
	t   *Inproc
	src *param.Set
	n   int64 // dense-codec size
}

// Deliver copies the source directly into the receiver's set.
func (b *inprocBroadcast) Deliver(_ int, dst *param.Set) error {
	dst.CopyFrom(b.src)
	b.t.bMessages.Add(1)
	b.t.bBytes.Add(b.n)
	b.t.rawBBytes.Add(b.n)
	return nil
}

func (b *inprocBroadcast) Close() { b.src = nil }
