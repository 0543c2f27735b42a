package transport

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// Socket is the multi-process backend: every parameter transfer is a
// framed request/response round-trip over a real socket (Unix-domain
// or TCP) against an internal/transport/rpc server. A point-to-point
// Send uploads the codec bytes and decodes the relay the server
// answers with — the bytes the receiving participant observes; a
// broadcast uploads its source once and downloads it per receiver,
// like a parameter server fanning out the global model.
//
// In loopback mode (NewOptions with "socket" or "socket-tcp") the Socket
// owns an in-process rpc.Server listening on a real socket, so the
// complete network path — framing, kernel socket buffers, concurrent
// connections — runs inside one process, deterministically. Dialed
// mode (DialOptions) connects to an external worker (cmd/ciaworker)
// and the same round spans OS processes.
//
// Socket runs the same serializing path as Wire; only the carry
// differs. Unlike Wire it does not panic on a payload that fails to
// decode: in dialed mode the relayed bytes come from another process,
// so a response that does not parse is a transfer error
// ("transport: socket send: …"), like a network failure. Network
// failures are handled by the client's RetryPolicy: a round-trip that
// exhausts its attempts surfaces as a transfer error wrapping
// rpc.ErrUnavailable. The simulators treat either as a lost message or
// an unreachable participant.
type Socket struct {
	serial
	srv *rpc.Server // loopback mode only
	dir string      // loopback unix socket temp dir
}

var _ Transport = (*Socket)(nil)

// newLoopbackSocket starts an in-process rpc.Server on the given
// network ("unix" on a fresh temp-dir socket path, "tcp" on a
// kernel-assigned loopback port) and connects a Socket to it.
func newLoopbackSocket(network string, policy rpc.RetryPolicy, comp param.Compression) (*Socket, error) {
	var addr, dir string
	switch network {
	case "unix":
		d, err := os.MkdirTemp("", "ciarec-sock-")
		if err != nil {
			return nil, fmt.Errorf("transport: loopback socket dir: %w", err)
		}
		dir = d
		addr = filepath.Join(d, "rpc.sock")
	case "tcp":
		addr = "127.0.0.1:0"
	default:
		return nil, fmt.Errorf("transport: unsupported loopback network %q", network)
	}
	srv, err := rpc.Serve(network, addr)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	t, err := dialSocket(network, srv.Addr(), policy, comp)
	if err != nil {
		srv.Close()
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	t.srv = srv
	t.dir = dir
	return t, nil
}

// dialSocket connects a Socket to an already-running server.
func dialSocket(network, addr string, policy rpc.RetryPolicy, comp param.Compression) (*Socket, error) {
	cl, err := rpc.DialPolicy(network, addr, policy)
	if err != nil {
		return nil, err
	}
	name := "socket"
	if network == "tcp" {
		name = "socket-tcp"
	}
	return &Socket{serial: serial{name: name, cl: cl, compressor: compressor{comp: comp}}}, nil
}

// Stats implements Transport, adding the RPC exchange counters on top
// of the shared traffic accounting.
func (t *Socket) Stats() Stats {
	st := t.counters.Stats()
	st.RoundTrips = t.cl.RoundTrips()
	st.Reconnects = t.cl.Reconnects()
	st.Retries = t.cl.Retries()
	st.Timeouts = t.cl.Timeouts()
	st.GaveUp = t.cl.GaveUp()
	return st
}

// Close implements Transport: it closes the connection pool and, in
// loopback mode, shuts the in-process server down (unlinking the unix
// socket). A second Close returns rpc.ErrClientClosed.
func (t *Socket) Close() error {
	err := t.cl.Close()
	if t.srv != nil {
		if serr := t.srv.Close(); err == nil {
			err = serr
		}
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
	return err
}
