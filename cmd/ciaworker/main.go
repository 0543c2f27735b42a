// Command ciaworker runs the round-transport RPC server as a
// standalone OS process: ciabench (or any program threading a
// transport.DialOptions instance into the simulators) can then route every
// parameter transfer of a round through it, making the protocol
// genuinely multi-process while staying byte-identical to the
// in-process backends.
//
// Usage:
//
//	ciaworker -network unix -addr /tmp/cia.sock
//	ciaworker -network tcp  -addr 127.0.0.1:7100
//
// then, in another process:
//
//	ciabench -exp table2 -transport socket -addr /tmp/cia.sock
//
// The worker serves until SIGINT/SIGTERM, then drains gracefully:
// the listener closes immediately (no new connections), in-flight
// RPCs get -grace to finish, and the process exits 0. A second signal
// aborts the drain.
//
// With -ready <path>, the worker writes "<network> <address>\n" to
// path (atomically, via rename) once the listener is accepting. With
// -addr of "auto" (unix) or a :0 port (tcp) the kernel picks the
// address, so supervisors can avoid collisions by reading it back
// from the ready file.
//
// Observability (see OBSERVABILITY.md): -metrics-addr serves the
// worker's RPC counters as Prometheus text exposition and expvar,
// -pprof-addr serves net/http/pprof, and -trace writes a per-request
// span trace (Chrome trace_event JSON) at shutdown. None of them
// affect the bytes served.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// writeReady atomically publishes the worker's bound address.
func writeReady(path, network, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(network+" "+addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func main() {
	var (
		network = flag.String("network", "unix", "socket family: unix | tcp")
		addr    = flag.String("addr", "", "listen address: a socket path (unix, or 'auto' for a temp path) or host:port (tcp; port 0 lets the kernel pick)")
		ready   = flag.String("ready", "", "file to write '<network> <address>' to once the listener is accepting (written atomically)")
		grace   = flag.Duration("grace", 5*time.Second, "drain window for in-flight RPCs after SIGINT/SIGTERM")

		traceOut    = flag.String("trace", "", "write a per-request span trace to this file at shutdown: Chrome trace_event JSON, or JSON lines with a .jsonl extension")
		metricsAddr = flag.String("metrics-addr", "", "serve the worker's RPC counters over HTTP at this address (host:port; port 0 picks one): /metrics Prometheus text exposition, /metrics.json, /debug/vars expvar")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof at this address (host:port; port 0 picks one)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "ciaworker: -addr is required")
		os.Exit(2)
	}
	listen := *addr
	var tmpDir string
	if *network == "unix" && listen == "auto" {
		d, err := os.MkdirTemp("", "ciaworker-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciaworker: %v\n", err)
			os.Exit(1)
		}
		tmpDir = d
		listen = filepath.Join(d, "rpc.sock")
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultSpansPerRing)
	}
	srv, err := rpc.Listen(*network, listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ciaworker: %v\n", err)
		os.Exit(1)
	}
	srv.Trace = tracer
	srv.Start()
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		reg.RegisterFunc("rpc_conn_errors_total", func() float64 { return float64(srv.ConnErrors()) })
		reg.RegisterFunc("rpc_idle_drops_total", func() float64 { return float64(srv.IdleDrops()) })
		reg.RegisterFunc("rpc_broadcast_evictions_total", func() float64 { return float64(srv.BroadcastEvictions()) })
		reg.RegisterTracer(tracer)
		msrv, err := obs.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciaworker: -metrics-addr: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		defer msrv.Close()
		fmt.Printf("ciaworker: metrics at http://%s/metrics\n", msrv.Addr())
	}
	if *pprofAddr != "" {
		psrv, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciaworker: -pprof-addr: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		defer psrv.Close()
		fmt.Printf("ciaworker: pprof at http://%s/debug/pprof/\n", psrv.Addr())
	}
	if *ready != "" {
		if err := writeReady(*ready, srv.Network(), srv.Addr()); err != nil {
			fmt.Fprintf(os.Stderr, "ciaworker: ready file: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
	}
	fmt.Printf("ciaworker: serving %s %s\n", srv.Network(), srv.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	// Graceful drain: stop accepting, let in-flight RPCs finish within
	// the grace window, then exit 0. A second signal aborts the drain.
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(*grace) }()
	select {
	case err = <-done:
	case <-sig:
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
		os.Exit(130)
	}
	if tmpDir != "" {
		os.RemoveAll(tmpDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ciaworker: shutdown: %v\n", err)
		os.Exit(1)
	}
	if tracer != nil {
		if werr := tracer.WriteFile(*traceOut); werr != nil {
			fmt.Fprintf(os.Stderr, "ciaworker: -trace: %v\n", werr)
			os.Exit(1)
		}
	}
	fmt.Printf("ciaworker: drained and shut down (%d conn errors observed)\n", srv.ConnErrors())
}
