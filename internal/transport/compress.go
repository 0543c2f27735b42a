package transport

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/collablearn/ciarec/internal/param"
)

// compressor is the codec-selection state of the serializing path
// (Wire, Socket, compressed inproc): the configured Compression level
// and, while a broadcast is open, the round's broadcast source — the
// delta reference point-to-point uploads are coded against.
//
// The reference is published with an atomic pointer because the
// simulators call Send from inside their parallel regions while the
// broadcast stays open (OpenBroadcast before the region, Broadcast.
// Close after): setRef/clearRef run on the round's sequential spine,
// sendRef on worker goroutines. Encode and decode happen on the same
// transport instance (the socket server only relays bytes), so both
// sides always resolve the same reference.
type compressor struct {
	comp param.Compression
	bref atomic.Pointer[bcastRef]
}

// bcastRef pins a broadcast source to its round so a stale reference
// can never leak across rounds.
type bcastRef struct {
	round int
	src   *param.Set
}

// Compression implements Transport.
func (c *compressor) Compression() param.Compression { return c.comp }

// sendRef returns the delta reference for a point-to-point send in the
// given round: the round's open broadcast source, when one is open. A
// send outside a broadcast window (gossip pushes, fed rounds after
// Broadcast.Close) is coded absolute.
func (c *compressor) sendRef(round int) *param.Set {
	if ref := c.bref.Load(); ref != nil && ref.round == round {
		return ref.src
	}
	return nil
}

// setRef publishes src as the round's delta reference (no-op with
// compression off — the dense codec takes no reference).
func (c *compressor) setRef(round int, src *param.Set) {
	if c.comp.Enabled() {
		c.bref.Store(&bcastRef{round: round, src: src})
	}
}

// clearRef withdraws the published reference at Broadcast.Close, when
// the borrowed source may be mutated again.
func (c *compressor) clearRef() {
	if c.comp.Enabled() {
		c.bref.Store(nil)
	}
}

// encodeSet marshals s for the wire — dense CPS1 with compression off,
// sparse/quantized CPQ1 (delta-coded against ref when non-nil) with it
// on — and returns the encoded length. Panics on encoder errors: the
// payload comes from the simulators in the same process, so a
// non-finite or out-of-range value is a bug upstream, not a runtime
// condition (see the package determinism contract).
func (c *compressor) encodeSet(buf io.Writer, s, ref *param.Set) int64 {
	if !c.comp.Enabled() {
		n, err := s.WriteTo(buf)
		if err != nil {
			panic(fmt.Sprintf("transport: encode: %v", err))
		}
		return n
	}
	n, err := s.WriteCompressedTo(buf, c.comp, ref)
	if err != nil {
		panic(fmt.Sprintf("transport: compressed encode: %v", err))
	}
	return n
}
