package transport

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// serial is the serializing path shared by Wire, Socket and compressed
// inproc: encode into a pooled buffer, shape the receive set from the
// caller's pool, carry the bytes to the decoder, decode with the
// round's delta reference, then count. The one per-backend step is the
// carry: with cl nil the bytes reach the decoder directly, otherwise
// each transfer is an rpc.Client round-trip.
type serial struct {
	counters
	compressor
	name string
	cl   *rpc.Client // nil: bytes go straight to the decoder
	bufs sync.Pool   // *bytes.Buffer
}

// Name implements Transport.
func (t *serial) Name() string { return t.name }

// Close implements Transport; the direct path's pooled buffers need no
// teardown (Socket overrides Close).
func (t *serial) Close() error { return nil }

// encode marshals s into a pooled buffer and returns it with the
// encoded length (delta-coded against ref in compressed mode).
func (t *serial) encode(s, ref *param.Set) (*bytes.Buffer, int64) {
	buf, ok := t.bufs.Get().(*bytes.Buffer)
	if ok {
		buf.Reset()
	} else {
		buf = new(bytes.Buffer)
	}
	return buf, t.encodeSet(buf, s, ref)
}

// carry hands the bytes of one req exchange to the decoder, which
// fills dst (coded against ref). Directly, a decode failure is a codec
// bug — the bytes come from the matching encoder in this process — and
// panics. Through the RPC client the response must have type resp, and
// any failure, a payload that does not decode included, is a transfer
// error: in dialed mode another process relayed the bytes.
func (t *serial) carry(req, resp byte, round, id uint32, data []byte, dst, ref *param.Set) error {
	decode := func(data []byte) error {
		var r bytes.Reader
		r.Reset(data)
		_, err := dst.DecodeFromRef(&r, ref)
		return err
	}
	if t.cl == nil {
		if err := decode(data); err != nil {
			panic(fmt.Sprintf("transport: %s decode: %v", t.name, err))
		}
		return nil
	}
	return t.cl.RoundTrip(req, round, id, data, func(f *rpc.Frame) error {
		if f.Type != resp {
			return fmt.Errorf("unexpected response type %d to request type %d", f.Type, req)
		}
		return decode(f.Payload)
	})
}

// Send implements Transport: marshal, recycle the sender's set, carry
// the bytes and unmarshal them into a pool-recycled set of the same
// structure. On a transfer error the receive set goes back to the pool
// and the error surfaces for the simulator to treat as a lost message.
func (t *serial) Send(round, from int, payload *param.Set, pool *param.Buffers) (*param.Set, error) {
	ref := t.sendRef(round)
	raw := int64(payload.WireBytes())
	buf, n := t.encode(payload, ref)
	recv := pool.GetShaped(payload)
	if recv == nil {
		// Pool cold (first rounds): clone the payload for its structure;
		// the decode overwrites every value.
		recv = payload.Clone()
	}
	pool.Put(payload)
	err := t.carry(rpc.MsgSend, rpc.MsgSendAck, uint32(round), uint32(from), buf.Bytes(), recv, ref)
	t.bufs.Put(buf)
	if err != nil {
		pool.Put(recv)
		return nil, fmt.Errorf("transport: socket send: %w", err)
	}
	t.messages.Add(1)
	t.bytes.Add(n)
	t.rawBytes.Add(raw)
	return recv, nil
}

// OpenBroadcast implements Transport: encode src once (coded absolute —
// receivers have no reference yet). The direct path keeps the bytes
// for every Deliver to decode; Socket uploads them once and each
// Deliver downloads them. In compressed mode the source also becomes
// the round's delta reference for uploads until Close; the reference
// never crosses the socket, so a server restart or relay cannot
// desynchronize it.
func (t *serial) OpenBroadcast(round int, src *param.Set) (Broadcast, error) {
	buf, n := t.encode(src, nil)
	b := &broadcast{t: t, round: uint32(round), n: n, raw: int64(src.WireBytes())}
	if t.cl == nil {
		b.buf = buf
	} else {
		err := t.cl.RoundTrip(rpc.MsgBcastOpen, uint32(round), 0, buf.Bytes(), func(f *rpc.Frame) error {
			if f.Type != rpc.MsgBcastOpened {
				return fmt.Errorf("unexpected response type %d to broadcast open", f.Type)
			}
			b.id = f.ID
			return nil
		})
		t.bufs.Put(buf)
		if err != nil {
			return nil, fmt.Errorf("transport: socket broadcast open: %w", err)
		}
	}
	t.setRef(round, src)
	return b, nil
}

type broadcast struct {
	t     *serial
	round uint32
	id    uint32        // server-side broadcast id, Socket only
	buf   *bytes.Buffer // encoded source, direct path only
	n     int64         // encoded size
	raw   int64         // dense-codec size
}

// Deliver decodes the broadcast bytes into dst: concurrent Delivers
// share the read-only encoded buffer, or each download them on their
// own pooled connection. On a transfer error dst is unspecified and
// the error surfaces for the simulator to treat as an unreachable
// receiver.
func (b *broadcast) Deliver(_ int, dst *param.Set) error {
	var data []byte // Socket sends an empty request; the server holds the bytes
	if b.buf != nil {
		data = b.buf.Bytes()
	}
	if err := b.t.carry(rpc.MsgBcastGet, rpc.MsgBcastData, b.round, b.id, data, dst, nil); err != nil {
		return fmt.Errorf("transport: socket broadcast deliver: %w", err)
	}
	b.t.bMessages.Add(1)
	b.t.bBytes.Add(b.n)
	b.t.rawBBytes.Add(b.raw)
	return nil
}

// Close withdraws the delta reference and releases the encoded bytes:
// the pooled buffer, or the server-side storage. A server-side close
// that fails (server unreachable) is tolerated silently: the server's
// bounded broadcast store evicts the orphaned entry on its own.
func (b *broadcast) Close() {
	b.t.clearRef()
	if b.t.cl == nil {
		b.t.bufs.Put(b.buf)
		b.buf = nil
		return
	}
	b.t.cl.RoundTrip(rpc.MsgBcastClose, b.round, b.id, nil, func(f *rpc.Frame) error {
		if f.Type != rpc.MsgBcastClosed {
			return fmt.Errorf("unexpected response type %d to broadcast close", f.Type)
		}
		return nil
	})
}

// Wire is the serializing backend: every payload is marshalled through
// the param binary codec into a pooled byte buffer and unmarshalled on
// the receiving side, so all parameter traffic exercises the exact
// bytes a multi-process deployment would put on the network.
//
// Wire panics on codec errors: the bytes were produced by the matching
// encoder in the same process, so a failure is a codec bug, not a
// runtime condition. Its transfer methods therefore always return nil
// errors — message loss is injected by the Faulty wrapper or modelled
// by fed's DropoutProb, never by this backend.
type Wire struct{ serial }

var _ Transport = (*Wire)(nil)

// NewWire returns a fresh wire transport.
func NewWire() *Wire { return &Wire{serial{name: "wire"}} }
