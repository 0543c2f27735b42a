package transport

import (
	"bufio"
	"errors"
	"net"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// The socket backends must round-trip values bit-exactly through a
// real kernel socket, never alias the sender's storage, and account
// the RPC exchanges in the new Stats counters.
func TestSocketSendRoundTripsValues(t *testing.T) {
	for _, name := range []string{"socket", "socket-tcp"} {
		t.Run(name, func(t *testing.T) {
			tr, err := NewOptions(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			var pool param.Buffers
			payload := testSet(1)
			want := payload.Clone()
			got, err := tr.Send(3, 7, payload, &pool)
			if err != nil {
				t.Fatal(err)
			}
			if got == payload {
				t.Fatal("socket Send must not return the sender's set")
			}
			if !param.Equal(want, got, 0) {
				t.Fatal("socket Send changed values")
			}
			st := tr.Stats()
			if st.Messages != 1 || st.Bytes != int64(want.WireBytes()) {
				t.Fatalf("stats = %+v, want 1 message of %d bytes", st, want.WireBytes())
			}
			if st.RoundTrips != 1 {
				t.Fatalf("round-trips = %d, want 1", st.RoundTrips)
			}
			bc, err := tr.OpenBroadcast(4, want)
			if err != nil {
				t.Fatal(err)
			}
			dst := testSet(0)
			if err := bc.Deliver(0, dst); err != nil {
				t.Fatal(err)
			}
			bc.Close()
			if !param.Equal(want, dst, 0) {
				t.Fatal("socket broadcast changed values")
			}
			st = tr.Stats()
			if st.BroadcastMessages != 1 || st.BroadcastBytes != int64(want.WireBytes()) {
				t.Fatalf("broadcast stats = %+v", st)
			}
			// Send + broadcast open + deliver + close = 4 exchanges.
			if st.RoundTrips != 4 {
				t.Fatalf("round-trips = %d, want 4", st.RoundTrips)
			}
		})
	}
}

// Dial must reach an externally managed rpc.Server (the ciaworker
// deployment shape) and reject backends that have no address.
func TestSocketDialExternal(t *testing.T) {
	srv, err := rpc.Serve("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialOptions("socket-tcp", srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var pool param.Buffers
	want := testSet(2)
	got, err := tr.Send(0, 0, pool.Clone(want), &pool)
	if err != nil {
		t.Fatal(err)
	}
	if !param.Equal(want, got, 0) {
		t.Fatal("dialed socket Send changed values")
	}
	if _, err := DialOptions("wire", "nowhere", Options{}); err == nil {
		t.Fatal("Dial must reject in-process backends")
	}
	if _, err := DialOptions("socket-tcp", "127.0.0.1:1", Options{}); err == nil {
		t.Fatal("Dial must fail eagerly on an unreachable address")
	}
}

// Closing a socket transport twice must return a typed error, and the
// loopback server must shut down with it (a fresh Dial to its address
// fails).
func TestSocketDoubleClose(t *testing.T) {
	tr, err := NewOptions("socket-tcp", Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := tr.(*Socket).srv.Addr()
	if err := tr.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := tr.Close(); !errors.Is(err, rpc.ErrClientClosed) {
		t.Fatalf("second Close = %v, want rpc.ErrClientClosed", err)
	}
	if _, err := DialOptions("socket-tcp", addr, Options{}); err == nil {
		t.Fatal("loopback server must be down after Close")
	}
}

// fakeTruncatingServer answers the socket protocol on a loopback TCP
// port like rpc.Server, except that every MsgSendAck and MsgBcastData
// carries only the first half of the payload it relays. It stops
// accepting when the test ends; each connection's goroutine ends when
// the client closes it.
func fakeTruncatingServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serve := func(c net.Conn) {
		defer c.Close()
		br, bw := bufio.NewReader(c), bufio.NewWriter(c)
		var f rpc.Frame
		var bcast []byte
		for rpc.ReadFrame(br, &f) == nil {
			typ, payload := rpc.MsgError, []byte("unexpected request")
			switch f.Type {
			case rpc.MsgSend:
				typ, payload = rpc.MsgSendAck, f.Payload[:len(f.Payload)/2]
			case rpc.MsgBcastOpen:
				bcast = append(bcast[:0], f.Payload...)
				typ, payload = rpc.MsgBcastOpened, nil
			case rpc.MsgBcastGet:
				typ, payload = rpc.MsgBcastData, bcast[:len(bcast)/2]
			case rpc.MsgBcastClose:
				typ, payload = rpc.MsgBcastClosed, nil
			}
			if rpc.WriteFrame(bw, typ, f.Round, 1, payload) != nil || bw.Flush() != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	return ln.Addr().String()
}

// A socket response that does not decode is a transfer error, not a
// panic: in dialed mode another process relayed the bytes. Send must
// return a nil set and hand both the payload and the receive set back
// to the pool; Deliver must report the failure. Neither is counted as
// traffic, and neither is mistaken for an unreachable server.
func TestSocketDecodeFaultIsTransferError(t *testing.T) {
	tr, err := DialOptions("socket-tcp", fakeTruncatingServer(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var pool param.Buffers
	payload := testSet(1)
	got, err := tr.Send(0, 0, payload, &pool)
	if err == nil || got != nil {
		t.Fatalf("Send of an undecodable relay = (%v, %v), want (nil, error)", got, err)
	}
	if errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("decode failure reported as an unreachable server: %v", err)
	}
	if !raceEnabled {
		recycled := 0
		for pool.GetShaped(payload) != nil {
			recycled++
		}
		if recycled != 2 {
			t.Fatalf("failed Send returned %d sets to the pool, want 2 (payload and receive set)", recycled)
		}
	}
	bc, err := tr.OpenBroadcast(0, testSet(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Deliver(0, testSet(0)); err == nil || errors.Is(err, rpc.ErrUnavailable) {
		t.Fatalf("Deliver of an undecodable broadcast = %v, want a decode error", err)
	}
	bc.Close()
	if st := tr.Stats(); st.Messages != 0 || st.BroadcastMessages != 0 {
		t.Fatalf("failed transfers counted as traffic: %+v", st)
	}
}
