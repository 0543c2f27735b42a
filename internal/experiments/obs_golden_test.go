package experiments

import (
	"testing"

	"github.com/collablearn/ciarec/internal/obs"
)

// obsCells are the golden cells the obs tests replay: one per protocol.
var obsCells = []string{"fed-gmf", "gossip-prme"}

// TestObsOffByteIdentical pins the disabled-recorder half of the obs
// determinism contract: with the caller's metrics registry attached
// but no tracer (the nil recorder is the hot-path no-op), the fed and
// gossip cells reproduce their golden digests exactly on every
// backend.
func TestObsOffByteIdentical(t *testing.T) {
	want := readGolden(t)
	for _, name := range obsCells {
		c := goldenCell(t, name)
		for _, backend := range []string{"inproc", "wire", "socket"} {
			p := replay{backend: backend, workers: 2, metrics: obs.NewRegistry()}
			got, _ := runCell(t, c, p)
			if msg := firstDiff(got, want[name]); msg != "" {
				t.Errorf("%s on %s with a metrics registry attached: %s", name, p, msg)
			}
			if snap := p.metrics.Snapshot(); snap["transport_messages_total"] == 0 {
				t.Fatalf("%s on %s: registry recorded no transport traffic: %v", name, p, snap)
			}
		}
	}
}

// TestObsOnByteIdentical pins the enabled half: with full span tracing
// (including a deliberately tiny ring, so wraparound and drop
// accounting are exercised mid-run) and a live metric gather between
// every two rounds, the golden digests are still byte-identical —
// across inproc/wire/socket and across worker counts. This is the hard
// determinism constraint of the observability subsystem: recording
// must never perturb results.
func TestObsOnByteIdentical(t *testing.T) {
	want := readGolden(t)
	for _, name := range obsCells {
		c := goldenCell(t, name)
		for _, backend := range []string{"inproc", "wire", "socket"} {
			for _, workers := range []int{2, 3} {
				reg := obs.NewRegistry()
				p := replay{
					backend: backend, workers: workers,
					trace:   obs.NewTracer(64), // tiny rings: force wraparound
					metrics: reg,
					between: func(int) { reg.Snapshot() },
				}
				got, _ := runCell(t, c, p)
				if msg := firstDiff(got, want[name]); msg != "" {
					t.Errorf("%s on %s traced: %s", name, p, msg)
				}
				if p.trace.Recorded() == 0 {
					t.Fatalf("%s on %s: tracer recorded nothing", name, p)
				}
			}
		}
	}
}
