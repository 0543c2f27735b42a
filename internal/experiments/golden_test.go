package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// updateGolden regenerates testdata/golden.json:
//
//	go test ./internal/experiments/ -run TestGoldenDeterminism -update
var updateGolden = flag.Bool("update", false, "rewrite the golden determinism hashes")

const goldenPath = "testdata/golden.json"

// readGolden loads the checked-in cell digests, skipping on
// architectures they were not recorded on: other architectures may
// fuse multiply-adds differently.
func readGolden(t *testing.T) map[string]cellDigest {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64; GOARCH=%s may round differently", runtime.GOARCH)
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := map[string]cellDigest{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenDeterminism pins the end-to-end numerical behaviour of the
// round engines and the attack: every cell of goldenCells must replay
// the same digest on every deployment in replays, and reproduce the
// checked-in one exactly. A refactor that silently changes results —
// RNG stream reordering, aggregation-order drift, codec corruption, a
// moved attack score — fails here loudly, naming the first diverging
// round and component, instead of shifting every experiment table a
// little. After an *intentional* behaviour change, regenerate with
//
//	go test ./internal/experiments/ -run TestGoldenDeterminism -update
//
// and justify the new digests in the commit. The replay half runs on
// every architecture; the comparison with the file is gated to amd64
// (where CI runs).
func TestGoldenDeterminism(t *testing.T) {
	// The cells replay as parallel subtests, so a cell stepping at one
	// worker leaves no core idle.
	var mu sync.Mutex
	got := map[string]cellDigest{}
	t.Run("replay", func(t *testing.T) {
		for _, c := range goldenCells {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				ref, _ := runCell(t, c, replays[0])
				for _, p := range replays[1:] {
					dg, _ := runCell(t, c, p)
					if msg := firstDiff(dg, ref); msg != "" {
						t.Fatalf("%s vs %s: %s", p, replays[0], msg)
					}
				}
				mu.Lock()
				got[c.name] = ref
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	// A -run filter may select some cells only: each one that ran is
	// still compared with its recorded digest, but the stale-cell check
	// and -update need them all.
	all := len(got) == len(goldenCells)

	if *updateGolden {
		if !all {
			t.Fatalf("-update rewrites %s whole, but -run selected %d of %d cells; rerun without a cell filter", goldenPath, len(got), len(goldenCells))
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want := readGolden(t)
	for _, name := range slices.Sorted(maps.Keys(got)) {
		w, ok := want[name]
		if !ok {
			t.Errorf("golden file has no %s (regenerate with -update)", name)
			continue
		}
		if msg := firstDiff(got[name], w); msg != "" {
			t.Errorf("%s: %s — results changed; if intentional, rerun with -update", name, msg)
		}
	}
	if !all {
		return
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if _, ok := got[name]; !ok {
			t.Errorf("golden file has %s but the test no longer produces it (regenerate with -update)", name)
		}
	}
}

// TestGoldenFaultyRepeatable is the chaos acceptance check: every cell
// under a fault, churn or Byzantine plan is byte-identical across two
// executions with the same (seed, plan) — chaos is replayable, not
// random.
func TestGoldenFaultyRepeatable(t *testing.T) {
	for _, c := range goldenCells {
		if c.knobs.Faults == "" && c.knobs.Churn == "" && c.knobs.Byzantine == "" {
			continue
		}
		first, _ := runCell(t, c, replays[0])
		second, _ := runCell(t, c, replays[0])
		if msg := firstDiff(second, first); msg != "" {
			t.Errorf("%s: two runs with the same (seed, plan) differ: %s", c.name, msg)
		}
	}
}

// workerEnv is the re-exec trigger: when set (to "network:address"),
// the test binary serves the transport RPC protocol at that address
// instead of running tests — a real second OS process for
// TestGoldenSocketTwoProcess, sharing cmd/ciaworker's serving path
// (rpc.Serve) without needing the Go toolchain to build the binary
// inside the test.
const workerEnv = "CIAREC_RPC_WORKER"

func TestMain(m *testing.M) {
	if spec := os.Getenv(workerEnv); spec != "" {
		network, addr, ok := strings.Cut(spec, ":")
		if !ok {
			fmt.Fprintf(os.Stderr, "bad %s %q (want network:addr)\n", workerEnv, spec)
			os.Exit(1)
		}
		if _, err := rpc.Serve(network, addr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		select {} // serve until the parent kills the process (no orderly teardown)
	}
	os.Exit(m.Run())
}

// startWorker launches a second OS process serving the transport RPC
// protocol on the unix socket path and waits until it accepts
// connections. The returned command is registered for cleanup; callers
// that bounce the worker mid-test kill it themselves.
func startWorker(t *testing.T, sock string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), workerEnv+"=unix:"+sock)
	var output bytes.Buffer
	cmd.Stdout, cmd.Stderr = &output, &output
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		conn, err := net.Dial("unix", sock)
		if err == nil {
			conn.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker process never came up: %v\noutput: %s", err, output.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGoldenSocketTwoProcess is the acceptance check for the
// multi-process round engine: the fed-gmf cell, with every parameter
// transfer dialed out to an RPC worker running in a separate OS
// process, must digest identically to the in-process run.
func TestGoldenSocketTwoProcess(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "worker.sock")
	startWorker(t, sock)

	c := goldenCell(t, "fed-gmf")
	ref, _ := runCell(t, c, replays[0])
	got, _ := runCell(t, c, replay{backend: "socket", workers: 4, addr: sock})
	if msg := firstDiff(got, ref); msg != "" {
		t.Fatalf("two-process socket run vs inproc: %s", msg)
	}
}

// TestGoldenSocketRelayRestart is the partition/heal acceptance check:
// the relay worker process is killed and restarted on the same address
// between two rounds of the fed-gmf cell, every pooled client
// connection goes stale, and the continuing run — recovering purely
// through the RPC retry/reconnect path — must still digest identically
// to the in-process run.
func TestGoldenSocketRelayRestart(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "worker.sock")
	worker := startWorker(t, sock)

	c := goldenCell(t, "fed-gmf")
	ref, _ := runCell(t, c, replays[0])
	bounced := false
	got, res := runCell(t, c, replay{backend: "socket", workers: 4, addr: sock, between: func(round int) {
		if round != 1 {
			return
		}
		// Partition: the relay dies between rounds. A killed process
		// does not unlink its socket file, so clear it before the
		// healed relay binds the same address.
		worker.Process.Kill()
		worker.Wait()
		os.Remove(sock)
		startWorker(t, sock)
		bounced = true
	}})
	if !bounced {
		t.Fatal("the relay was never bounced — the test is vacuous")
	}
	if msg := firstDiff(got, ref); msg != "" {
		t.Fatalf("run across a relay restart vs inproc: %s", msg)
	}
	// Healing must have gone through the reconnect path: every pooled
	// connection was stale after the bounce.
	if res.Traffic.Reconnects == 0 {
		t.Fatalf("relay restart healed without a single reconnect: %+v", res.Traffic)
	}
}
