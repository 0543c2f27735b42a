package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
	"github.com/collablearn/ciarec/internal/transport/rpc"
)

// updateGolden regenerates testdata/golden.json:
//
//	go test ./internal/experiments/ -run TestGoldenDeterminism -update
var updateGolden = flag.Bool("update", false, "rewrite the golden determinism hashes")

const goldenPath = "testdata/golden.json"

// hashRun folds final model parameters (through the wire codec, so
// the digest covers exactly the bytes a deployment would persist) and
// the per-round utility curve into one digest.
func hashRun(params []*param.Set, utility []float64) string {
	h := sha256.New()
	for _, p := range params {
		if _, err := p.WriteTo(h); err != nil {
			panic(err)
		}
	}
	var buf [8]byte
	for _, v := range utility {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenFedRun executes the reference federated workload on the given
// transport backend and digests it.
func goldenFedRun(t *testing.T, backend string) string {
	t.Helper()
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	return goldenFedRunOn(t, tr)
}

// goldenFedRunOn is goldenFedRun on an explicit transport instance
// (owned and closed here), so the two-process test can dial a worker.
func goldenFedRunOn(t *testing.T, tr transport.Transport) string {
	t.Helper()
	defer tr.Close()
	spec := BenchSpec()
	spec.Workers = 2
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	var hr []float64
	sim, err := fed.New(fed.Config{
		Dataset:   d,
		Factory:   model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:    4,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   spec.Workers,
		Transport: tr,
		OnRound: func(round int, s *fed.Simulation) {
			hr = append(hr, s.UtilityHR(spec.HRK, 20))
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	return hashRun([]*param.Set{sim.Global().Params()}, hr)
}

// goldenCompressedFedRun executes the reference federated workload
// with every parameter transfer running through the sparse+quantized
// delta codec at the given bit width, and digests it. Quantization
// moves the result off the dense fed-gmf hashes, but the compressed
// result itself is pinned: the same digest on every backend, every
// run, every worker count.
func goldenCompressedFedRun(t *testing.T, backend string, bits int) string {
	t.Helper()
	tr, err := transport.NewOptions(backend, transport.Options{
		Compression: param.Compression{Bits: bits},
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenFedRunOn(t, tr)
}

// goldenFaultPlan is the chaos scenario pinned by the faulty golden
// hashes: every fault family active, so the digest covers blackout
// rounds, skipped clients, lost uploads and straggler exclusion.
func goldenFaultPlan() transport.FaultPlan {
	return transport.FaultPlan{
		Seed:              3,
		DropProb:          0.1,
		SendLossProb:      0.1,
		DeliverLossProb:   0.1,
		BroadcastFailProb: 0.1,
		SlowProb:          0.3,
		SlowLatency:       500 * time.Millisecond,
	}
}

// goldenFaultyFedRun executes the reference federated workload under
// the golden fault plan — straggler deadline and quorum active — on the
// given backend behind the fault injector, and digests the surviving
// model plus the utility curve and the full fault accounting. A (seed,
// plan) pair must pin the exact output: the same digest on every
// backend, every run.
func goldenFaultyFedRun(t *testing.T, backend string) string {
	t.Helper()
	plan := goldenFaultPlan()
	tr, err := transport.NewOptions(transport.FaultyPrefix+backend, transport.Options{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spec := BenchSpec()
	spec.Workers = 2
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	var hr []float64
	sim, err := fed.New(fed.Config{
		Dataset:           d,
		Factory:           model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:            4,
		Train:             model.TrainOptions{Epochs: 1},
		Workers:           spec.Workers,
		Transport:         tr,
		FaultPlan:         &plan,
		StragglerDeadline: 100 * time.Millisecond,
		Quorum:            0.3,
		OnRound: func(round int, s *fed.Simulation) {
			hr = append(hr, s.UtilityHR(spec.HRK, 20))
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// Fold the fault accounting into the digest so the hash pins the
	// fault schedule, not just what survived it.
	r := sim.Resilience()
	if r.DeliverFailures == 0 || r.UploadFailures == 0 || r.Stragglers == 0 {
		t.Fatalf("golden fault plan failed to exercise every failure path: %+v", r)
	}
	counts := []float64{
		float64(r.BlackoutRounds), float64(r.DeliverFailures),
		float64(r.UploadFailures), float64(r.Stragglers), float64(r.QuorumMisses),
	}
	return hashRun([]*param.Set{sim.Global().Params()}, append(hr, counts...))
}

// goldenRobustFedRun executes the reference federated workload with a
// caller-tweaked config (churn plan, Byzantine population, robust
// aggregator) and digests the surviving model, the utility curve and
// the churn/Byzantine accounting. check rejects a run too tame to pin
// anything (no leaves, no corrupted uploads, …).
func goldenRobustFedRun(t *testing.T, backend string, tweak func(*fed.Config), check func(fed.Resilience) string) string {
	t.Helper()
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	spec := BenchSpec()
	spec.Workers = 2
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	var hr []float64
	cfg := fed.Config{
		Dataset:   d,
		Factory:   model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:    4,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   spec.Workers,
		Transport: tr,
		OnRound: func(round int, s *fed.Simulation) {
			hr = append(hr, s.UtilityHR(spec.HRK, 20))
		},
		Seed: 7,
	}
	tweak(&cfg)
	sim, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	r := sim.Resilience()
	if msg := check(r); msg != "" {
		t.Fatal(msg)
	}
	counts := []float64{
		float64(r.Joins), float64(r.Leaves), float64(r.Rejoins),
		float64(r.ByzantineUploads), float64(r.ClippedUploads),
	}
	return hashRun([]*param.Set{sim.Global().Params()}, append(hr, counts...))
}

// goldenChurnFedRun pins the PR's acceptance scenario: heavy
// deterministic churn (≥20% round-over-round turnover; see
// TestResilienceScenarioTurnover), a 10% sign-flip Byzantine
// population and trimmed-mean aggregation.
func goldenChurnFedRun(t *testing.T, backend string) string {
	t.Helper()
	churn := transport.ChurnPlan{Seed: 5, InitialFraction: 0.8, LeaveProb: 0.25, JoinProb: 0.5, StaleBound: 2}
	byz := attack.Byzantine{Kind: attack.ByzSignFlip, Fraction: 0.1, Seed: 1}
	return goldenRobustFedRun(t, backend, func(c *fed.Config) {
		c.ChurnPlan = &churn
		c.Byzantine = &byz
		c.Aggregator = fed.AggTrimmedMean
		c.TrimFraction = 0.2
	}, func(r fed.Resilience) string {
		if r.Joins == 0 || r.Leaves == 0 || r.Rejoins == 0 || r.ByzantineUploads == 0 {
			return fmt.Sprintf("golden churn scenario failed to exercise every membership path: %+v", r)
		}
		return ""
	})
}

// goldenByzMedianFedRun pins scaled-noise adversaries against the
// coordinate-wise median.
func goldenByzMedianFedRun(t *testing.T, backend string) string {
	t.Helper()
	byz := attack.Byzantine{Kind: attack.ByzScaledNoise, Fraction: 0.2, Scale: 2, Seed: 2}
	return goldenRobustFedRun(t, backend, func(c *fed.Config) {
		c.Byzantine = &byz
		c.Aggregator = fed.AggMedian
	}, func(r fed.Resilience) string {
		if r.ByzantineUploads == 0 {
			return fmt.Sprintf("golden median scenario corrupted nothing: %+v", r)
		}
		return ""
	})
}

// goldenByzClipFedRun pins sign-flip adversaries against norm
// clipping; the bound is chosen below the honest delta norms so the
// hash also covers the clip accounting.
func goldenByzClipFedRun(t *testing.T, backend string) string {
	t.Helper()
	byz := attack.Byzantine{Kind: attack.ByzSignFlip, Fraction: 0.2, Seed: 3}
	return goldenRobustFedRun(t, backend, func(c *fed.Config) {
		c.Byzantine = &byz
		c.Aggregator = fed.AggNormClip
		c.ClipNorm = 0.5
	}, func(r fed.Resilience) string {
		if r.ByzantineUploads == 0 || r.ClippedUploads == 0 {
			return fmt.Sprintf("golden norm-clip scenario clipped nothing: %+v", r)
		}
		return ""
	})
}

// goldenGossipRun executes the reference gossip workload on the given
// transport backend and digests every node's model plus the F1 curve.
func goldenGossipRun(t *testing.T, backend string) string {
	t.Helper()
	spec := BenchSpec()
	spec.Workers = 2
	d, err := MakeDataset("gowalla", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("prme", d)
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var f1 []float64
	sim, err := gossip.New(gossip.Config{
		Dataset:   d,
		Factory:   model.NewPRMEFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:    5,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   spec.Workers,
		Transport: tr,
		OnRound: func(round int, s *gossip.Simulation) {
			f1 = append(f1, s.UtilityF1(spec.HRK))
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	params := make([]*param.Set, d.NumUsers)
	for u := 0; u < d.NumUsers; u++ {
		params[u] = sim.Node(u).Params()
	}
	return hashRun(params, f1)
}

// TestGoldenDeterminism pins the end-to-end numerical behaviour of the
// round engines: a small fed and gossip run, hashed over final model
// parameters plus the per-round utility curve, must reproduce the
// checked-in digests exactly. A refactor that silently changes results
// — RNG stream reordering, aggregation-order drift, codec corruption —
// fails here loudly instead of shifting every experiment table a
// little. After an *intentional* behaviour change, regenerate with
//
//	go test ./internal/experiments/ -run TestGoldenDeterminism -update
//
// and justify the new hashes in the commit. The digests are recorded
// on amd64; other architectures may fuse multiply-adds differently, so
// the comparison is gated to amd64 (where CI runs).
func TestGoldenDeterminism(t *testing.T) {
	// One hash per run: every transport backend must reproduce it,
	// whatever the golden file says (this half runs on every
	// architecture). "socket" runs the complete RPC network path over a
	// loopback Unix-domain socket server, so agreement here means the
	// framed protocol is value-transparent end to end — and for the
	// faulty workload, that the injected fault schedule is
	// backend-independent.
	runs := []struct {
		name string
		run  func(t *testing.T, backend string) string
	}{
		{"fed-gmf", goldenFedRun},
		{"gossip-prme", goldenGossipRun},
		{"fed-gmf-faulty", goldenFaultyFedRun},
		{"fed-gmf-compressed8", func(t *testing.T, backend string) string { return goldenCompressedFedRun(t, backend, 8) }},
		{"fed-gmf-compressed16", func(t *testing.T, backend string) string { return goldenCompressedFedRun(t, backend, 16) }},
		{"fed-gmf-churn", goldenChurnFedRun},
		{"fed-gmf-byz-median", goldenByzMedianFedRun},
		{"fed-gmf-byz-clip", goldenByzClipFedRun},
	}
	hashes := map[string]string{}
	for _, r := range runs {
		ref := r.run(t, "inproc")
		for _, backend := range []string{"wire", "socket"} {
			if h := r.run(t, backend); h != ref {
				t.Fatalf("%s: %s hash %s differs from inproc %s", r.name, backend, h, ref)
			}
		}
		hashes[r.name] = ref
	}
	hashes["cia-shareless/fed-gmf"] = goldenShareLessFedRun(t)
	hashes["cia-shareless/gossip-gmf"] = goldenShareLessGossipRun(t)
	for name, h := range goldenGossipCIAHashes(t) {
		hashes[name] = h
	}
	for name, h := range goldenFedCIAHashes(t) {
		hashes[name] = h
	}

	if *updateGolden {
		blob, err := json.MarshalIndent(hashes, "", "  ")
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
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if hashes[k] == "" {
			t.Errorf("golden file has %s but the test no longer produces it (regenerate with -update)", k)
			continue
		}
		if hashes[k] != want[k] {
			t.Errorf("%s: hash %s != golden %s — results changed; if intentional, rerun with -update",
				k, hashes[k], want[k])
		}
	}
	if len(hashes) != len(want) {
		t.Errorf("produced %d hashes, golden file has %d (regenerate with -update)", len(hashes), len(want))
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
// multi-process round engine: the reference federated workload, with
// every parameter transfer dialed out to an RPC worker running in a
// separate OS process, must hash identically to the in-process run.
func TestGoldenSocketTwoProcess(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "worker.sock")
	startWorker(t, sock)

	ref := goldenFedRun(t, "inproc")
	tr, err := transport.Dial("socket", sock)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenFedRunOn(t, tr)
	if got != ref {
		t.Fatalf("two-process socket hash %s != inproc %s", got, ref)
	}
}

// TestGoldenFaultyRepeatable is the chaos acceptance check: a run
// under an active fault plan is byte-identical across two executions
// with the same (seed, plan) — chaos is replayable, not random.
func TestGoldenFaultyRepeatable(t *testing.T) {
	first := goldenFaultyFedRun(t, "inproc")
	second := goldenFaultyFedRun(t, "inproc")
	if first != second {
		t.Fatalf("two chaos runs with the same (seed, plan) hash differently: %s vs %s", first, second)
	}
}

// TestGoldenSocketRelayRestart is the partition/heal acceptance check:
// the relay worker process is killed and restarted on the same address
// between rounds, every pooled client connection goes stale, and the
// continuing run — recovering purely through the RPC retry/reconnect
// path — must still hash identically to the in-process run.
func TestGoldenSocketRelayRestart(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "worker.sock")
	worker := startWorker(t, sock)

	ref := goldenFedRun(t, "inproc")
	tr, err := transport.Dial("socket", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	spec := BenchSpec()
	spec.Workers = 2
	d, err := MakeDataset("movielens", spec)
	if err != nil {
		t.Fatal(err)
	}
	SplitFor("gmf", d)
	var hr []float64
	bounced := false
	sim, err := fed.New(fed.Config{
		Dataset:   d,
		Factory:   model.NewGMFFactory(d.NumUsers, d.NumItems, spec.Dim),
		Rounds:    4,
		Train:     model.TrainOptions{Epochs: 1},
		Workers:   spec.Workers,
		Transport: tr,
		OnRound: func(round int, s *fed.Simulation) {
			hr = append(hr, s.UtilityHR(spec.HRK, 20))
			if round == 1 {
				// Partition: the relay dies between rounds. A killed
				// process does not unlink its socket file, so clear it
				// before the healed relay binds the same address.
				worker.Process.Kill()
				worker.Wait()
				os.Remove(sock)
				startWorker(t, sock)
				bounced = true
			}
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !bounced {
		t.Fatal("the relay was never bounced — the test is vacuous")
	}
	got := hashRun([]*param.Set{sim.Global().Params()}, hr)
	if got != ref {
		t.Fatalf("run across a relay restart hashes %s, inproc %s", got, ref)
	}
	// Healing must have gone through the reconnect path: every pooled
	// connection was stale after the bounce.
	if st := tr.Stats(); st.Reconnects == 0 {
		t.Fatalf("relay restart healed without a single reconnect: %+v", st)
	}
}
