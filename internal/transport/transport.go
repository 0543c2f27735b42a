// Package transport carries every inter-participant parameter transfer
// of the protocol simulators: federated client→server uploads, the
// server→client global-model broadcast, and gossip node→neighbour
// pushes. It is the seam where the ROADMAP's multi-process / RPC round
// engine plugs in — the simulators speak only to the Transport
// interface, never to each other's memory.
//
// Four backends ship today:
//
//   - Inproc passes payload pointers through unchanged — the
//     historical in-memory behaviour, byte-identical to the
//     pre-transport simulators. It is dense only: "inproc" with a
//     compression level builds the serializing path below instead.
//   - Wire round-trips every payload through the binary codec
//     (param.Set WriteTo → pooled byte buffers → DecodeFromRef). It
//     proves that a deployment which actually serializes its traffic
//     computes exactly the same models.
//   - Socket ("socket" over a Unix-domain socket, "socket-tcp" over
//     TCP) pushes every payload through the framed RPC protocol of
//     internal/transport/rpc against a real socket server: each Send
//     is a request/response round-trip carrying the codec bytes, each
//     broadcast is uploaded once and downloaded per receiver.
//     NewOptions spins the server up in-process over a loopback
//     socket (the deterministic test/bench mode); DialOptions
//     connects to an external `ciaworker` process so a round spans OS
//     process boundaries. Results remain byte-identical — the replay
//     harnesses of internal/fed and internal/gossip (TestReplay) hold
//     every backend to tolerance 0.
//   - Faulty ("faulty:<inner>", e.g. "faulty:wire") wraps any other
//     backend and injects deterministic, seed-driven failures — lost
//     sends, failed broadcast downloads, per-round participant
//     blackouts — from a declarative FaultPlan, so every chaos
//     scenario is reproducible from a (seed, plan) pair.
//
// Wire, Socket and compressed inproc share one serializing path
// (encode, shape the receive set, decode with the round's delta
// reference, count); they differ only in how the encoded bytes reach
// the decoder: directly, or through an RPC round-trip.
//
// # Contract
//
// Ownership: Send consumes its payload whether or not it succeeds —
// the caller must not touch it afterwards. Inproc returns the same
// set; the serializing path recycles the payload into the caller's
// param.Buffers pool and returns a decoded copy drawn from that pool.
// Either way the caller owns the returned set and recycles it
// (pool.Put) once the receiver has consumed it. On error the payload
// has been recycled and the returned set is nil. Broadcast handles
// borrow src only until Close.
//
// Errors: transfers can fail — that is the point of the resilience
// layer. Send and Deliver return an error when the message was lost
// (an injected fault, or a socket round-trip that exhausted its
// RetryPolicy and surfaced rpc.ErrUnavailable); OpenBroadcast returns
// an error when the fan-out source could not be staged. The in-memory
// backends never fail (codec bugs still panic: bytes produced by the
// matching encoder in the same process can only fail to parse if the
// codec itself is broken). On socket a response that fails to decode
// is a transfer error instead, because in dialed mode another process
// relayed the bytes. The simulators treat transfer errors as protocol
// events — a lost upload, an unreachable participant — never as
// panics.
//
// Marshalling time: Send and Broadcast.Deliver are called from inside
// the simulators' parallel regions (parx.ForEach), so the serializing
// backends' encode/decode (and socket round-trip) cost is spread
// across the worker pool. OpenBroadcast encodes — and, on socket,
// uploads — once, before the parallel region, and Deliver only
// downloads/decodes, mirroring a real server that serializes the
// global model once per round and fans the bytes out.
//
// Determinism: with compression off (the default), implementations
// must be value-transparent — the received set is bit-identical to the
// sent one, float64 survives the codec exactly. With an
// Options.Compression level set, every backend instead pushes each
// payload through the sparse+quantized CPQ1 codec (param.Set.
// WriteCompressedTo / DecodeFromRef): the received values differ from
// the sent ones by at most the codec's documented error bound
// (param.Compression.MaxError), but deterministically so — the same
// payload always decodes to the same values, on every backend
// (compressed inproc is the same serializing path), so compressed runs
// are still byte-identical across backends and worker counts. Uploads
// sent while the round's broadcast is open are delta-coded against the
// broadcast source; compressed payloads must be finite and within the
// codec's ±1e300 range (a violation panics, like any other codec bug).
// All implementations must be safe for
// concurrent use; traffic counters are atomic sums, so totals are
// independent of worker interleaving. A transport
// must not source free-running randomness or reorder messages:
// delivery order stays the simulators' responsibility, and the Faulty
// wrapper draws every fault decision from counter-based streams keyed
// by (plan seed, round, participant) — pure functions, independent of
// scheduling and of the wrapped backend.
//
// Lifecycle: the creator of a transport owns it — the simulators never
// close the instance they are configured with. Close releases backend
// resources (the socket backends' connections, and the loopback mode's
// in-process server); Stats stays readable afterwards. Stats are
// accumulated per transport instance, so instances must not be shared
// between simulations.
package transport

import (
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// RetryPolicy re-exports the RPC client's retry/timeout/backoff knobs
// so upper layers configure resilience without importing the rpc
// package.
type RetryPolicy = rpc.RetryPolicy

// DefaultRetryPolicy re-exports the RPC client's default policy.
func DefaultRetryPolicy() RetryPolicy { return rpc.DefaultRetryPolicy() }

// ParseRetryPolicy re-exports the RPC retry-spec parser (e.g.
// "attempts=6,backoff=5ms,timeout=2s"; grammar in package planspec).
func ParseRetryPolicy(spec string) (RetryPolicy, error) { return rpc.ParseRetryPolicy(spec) }

// Stats is a transport's accumulated traffic accounting.
type Stats struct {
	// Messages and Bytes count point-to-point sends (fed uploads,
	// gossip pushes) and their wire size.
	Messages int64
	Bytes    int64
	// BroadcastMessages and BroadcastBytes count per-receiver broadcast
	// deliveries (the fed global-model download).
	BroadcastMessages int64
	BroadcastBytes    int64
	// RawBytes and RawBroadcastBytes are the dense-codec sizes of the
	// same traffic (param.Set.WireBytes summed per transfer): what the
	// payloads would have cost without compression. With compression
	// off they equal Bytes/BroadcastBytes exactly; with it on, the
	// Bytes/RawBytes ratio is the measured wire saving.
	RawBytes          int64
	RawBroadcastBytes int64
	// RoundTrips counts completed RPC request/response exchanges and
	// Reconnects counts pooled connections replaced by a fresh dial
	// mid-call. Both stay 0 on the in-process backends.
	RoundTrips int64
	Reconnects int64
	// Retries, Timeouts and GaveUp are the RPC client's RetryPolicy
	// counters: extra attempts spent, attempts lost to I/O deadlines,
	// and round-trips that exhausted their attempts (surfacing
	// rpc.ErrUnavailable). All 0 on the in-process backends.
	Retries  int64
	Timeouts int64
	GaveUp   int64
	// InjectedFaults counts failures the Faulty wrapper injected
	// (lost sends, failed deliveries, participant blackouts).
	InjectedFaults int64
}

// Transport moves parameter sets between protocol participants. See
// the package documentation for the ownership, error, marshalling,
// determinism and lifecycle contract.
type Transport interface {
	// Name identifies the backend ("inproc", "wire", "socket",
	// "faulty:wire", ...).
	Name() string

	// Compression reports the payload codec the instance was built
	// with: the zero value is the dense float64 codec (the tolerance-0
	// golden reference), 8 or 16 bits selects the sparse+quantized
	// CPQ1 codec for every transfer. Fixed for the instance's lifetime.
	Compression() param.Compression

	// Send transmits a point-to-point payload from the given
	// participant in the given round, returning the set the receiver
	// observes. It consumes payload — success or not — and may draw the
	// returned set from pool; the caller owns the result and recycles
	// it into the same pool when the receiver is done. On error the
	// message was lost (injected fault or unreachable backend) and the
	// returned set is nil. Safe for concurrent use.
	Send(round, from int, payload *param.Set, pool *param.Buffers) (*param.Set, error)

	// OpenBroadcast prepares src for fan-out delivery to many receivers
	// in the given round. src is borrowed until Close and must not be
	// mutated while the broadcast is open. Deliver may be called
	// concurrently. On error no broadcast is open and the returned
	// handle is nil.
	OpenBroadcast(round int, src *param.Set) (Broadcast, error)

	// Stats returns the traffic accumulated by this instance.
	Stats() Stats

	// Close releases the backend's resources (connections, the loopback
	// server). The transport must not be used for transfers afterwards;
	// Stats remains readable. The socket backends return a typed error
	// (rpc.ErrClientClosed) on a second Close; the in-memory backends
	// hold no resources and their Close is a nil-returning no-op.
	Close() error
}

// Broadcast is one message delivered to many receivers.
type Broadcast interface {
	// Deliver installs the broadcast payload into receiver to's set,
	// whose structure must match the source's. On error the receiver
	// did not obtain the payload (injected fault or unreachable
	// backend) and dst is unspecified — the receiver must not use it.
	// Safe for concurrent use.
	Deliver(to int, dst *param.Set) error
	// Close releases the broadcast's resources.
	Close()
}

// counters is the shared atomic accounting embedded by every backend.
type counters struct {
	messages, bytes     atomic.Int64
	bMessages, bBytes   atomic.Int64
	rawBytes, rawBBytes atomic.Int64
}

func (c *counters) Stats() Stats {
	return Stats{
		Messages:          c.messages.Load(),
		Bytes:             c.bytes.Load(),
		BroadcastMessages: c.bMessages.Load(),
		BroadcastBytes:    c.bBytes.Load(),
		RawBytes:          c.rawBytes.Load(),
		RawBroadcastBytes: c.rawBBytes.Load(),
	}
}

// Options carries the resilience configuration a backend is built
// with. The zero value selects the defaults everywhere.
type Options struct {
	// Plan, when non-nil, wraps the backend in a Faulty fault injector
	// driven by this plan (the "faulty:" name prefix does the same with
	// DefaultFaultPlan when Plan is nil).
	Plan *FaultPlan
	// Retry overrides the socket backends' RPC RetryPolicy (nil keeps
	// rpc.DefaultRetryPolicy). Ignored by the in-memory backends,
	// which cannot fail.
	Retry *RetryPolicy
	// Compression selects the payload codec for every backend: the
	// zero value keeps the dense float64 codec, 8 or 16 bits switches
	// all transfers to the sparse+quantized CPQ1 codec. Compressed
	// inproc is built as the serializing path Wire runs, so a
	// compressed run computes identical values on every backend.
	Compression param.Compression
}

// validate checks the codec and a struct-built fault plan.
func (o Options) validate() error {
	if err := o.Compression.Validate(); err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if o.Plan != nil {
		return o.Plan.Validate()
	}
	return nil
}

func (o Options) retry() rpc.RetryPolicy {
	if o.Retry != nil {
		return *o.Retry
	}
	return rpc.RetryPolicy{}
}

// FaultyPrefix is the name prefix selecting the fault-injection
// wrapper: "faulty:<inner>" builds <inner> and wraps it in a Faulty.
const FaultyPrefix = "faulty:"

// Names lists the base backend names NewOptions accepts (the empty string
// selects inproc). Any of them can additionally be wrapped in the
// fault injector via the "faulty:" prefix, e.g. "faulty:wire".
func Names() []string {
	return []string{"inproc", "wire", "socket", "socket-tcp"}
}

// Known reports whether name selects a backend — a base name, the
// empty string (inproc), or a "faulty:"-prefixed base name. Use it to
// validate configuration without instantiating anything — NewOptions on a
// socket backend starts a loopback server.
func Known(name string) bool {
	name = strings.TrimPrefix(name, FaultyPrefix)
	if name == "" {
		return true
	}
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// NewOptions builds a fresh transport instance for a backend name:
// "inproc" (or ""), "wire", "socket" (RPC over an in-process loopback
// Unix-domain socket server), "socket-tcp" (the same over loopback
// TCP), or any of those behind the "faulty:" fault-injection prefix.
// o attaches a codec, a FaultPlan and a RetryPolicy; the zero Options
// is a dense, fault-free backend. Each call returns an independent
// instance with its own stats; the caller owns the instance and Closes
// it when the simulation is done. To reach an external worker process
// instead of a loopback server, use DialOptions.
func NewOptions(name string, o Options) (Transport, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	inner, wrap := strings.CutPrefix(name, FaultyPrefix)
	var t Transport
	var err error
	switch inner {
	case "", "inproc":
		t = NewInproc()
		if o.Compression.Enabled() {
			t = &serial{name: "inproc", compressor: compressor{comp: o.Compression}}
		}
	case "wire":
		t = &Wire{serial{name: "wire", compressor: compressor{comp: o.Compression}}}
	case "socket":
		t, err = newLoopbackSocket("unix", o.retry(), o.Compression)
	case "socket-tcp":
		t, err = newLoopbackSocket("tcp", o.retry(), o.Compression)
	default:
		return nil, fmt.Errorf("transport: unknown backend %q (have %v, optionally behind %q)",
			name, Names(), FaultyPrefix)
	}
	if err != nil {
		return nil, err
	}
	return maybeFaulty(t, wrap, o.Plan), nil
}

// DialOptions connects a socket backend to an external RPC worker (a
// `ciaworker` process) instead of a loopback server: "socket" dials a
// Unix-domain socket path, "socket-tcp" a TCP host:port; both accept
// the "faulty:" prefix. The in-process backends have no address to
// dial and are rejected. o is read as by NewOptions.
func DialOptions(name, addr string, o Options) (Transport, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	inner, wrap := strings.CutPrefix(name, FaultyPrefix)
	var t Transport
	var err error
	switch inner {
	case "socket":
		t, err = dialSocket("unix", addr, o.retry(), o.Compression)
	case "socket-tcp":
		t, err = dialSocket("tcp", addr, o.retry(), o.Compression)
	default:
		return nil, fmt.Errorf("transport: backend %q cannot dial an address (want socket or socket-tcp)", name)
	}
	if err != nil {
		return nil, err
	}
	return maybeFaulty(t, wrap, o.Plan), nil
}

// maybeFaulty wraps t in the fault injector when the name carried the
// "faulty:" prefix or an explicit plan was supplied.
func maybeFaulty(t Transport, wrap bool, plan *FaultPlan) Transport {
	if plan == nil {
		if !wrap {
			return t
		}
		p := DefaultFaultPlan()
		plan = &p
	}
	return NewFaulty(t, *plan)
}
