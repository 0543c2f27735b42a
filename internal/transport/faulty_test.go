package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/param"
)

// chaosPlan is a representative mixed-fault scenario used across the
// wrapper tests: every family active at a rate that fires within a few
// hundred (round, participant) cells.
func chaosPlan() FaultPlan {
	return FaultPlan{
		Seed:              3,
		DropProb:          0.15,
		SendLossProb:      0.15,
		DeliverLossProb:   0.15,
		BroadcastFailProb: 0.1,
		SlowProb:          0.3,
		SlowLatency:       500 * time.Millisecond,
	}
}

// Every fault decision must be a pure function of (seed, family,
// round, participant): repeated queries agree, and a different seed
// produces a different schedule.
func TestFaultPlanDeterminism(t *testing.T) {
	p := chaosPlan()
	q := p
	q.Seed = 4
	var same, diff int
	for round := 0; round < 40; round++ {
		for id := 0; id < 20; id++ {
			a := [4]bool{p.Unreachable(round, id), p.SendLost(round, id), p.DeliverLost(round, id), p.Slow(round, id)}
			b := [4]bool{p.Unreachable(round, id), p.SendLost(round, id), p.DeliverLost(round, id), p.Slow(round, id)}
			if a != b {
				t.Fatalf("fault decision not deterministic at round %d id %d", round, id)
			}
			c := [4]bool{q.Unreachable(round, id), q.SendLost(round, id), q.DeliverLost(round, id), q.Slow(round, id)}
			if a == c {
				same++
			} else {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("changing the seed never changed the fault schedule")
	}
}

// Enabling one fault family must not shift another family's decisions:
// each family draws from its own counter-based stream.
func TestFaultPlanFamilyIndependence(t *testing.T) {
	base := FaultPlan{Seed: 9, DropProb: 0.2}
	more := base
	more.SendLossProb = 0.5
	more.DeliverLossProb = 0.5
	more.SlowProb = 0.5
	for round := 0; round < 50; round++ {
		for id := 0; id < 20; id++ {
			if base.Unreachable(round, id) != more.Unreachable(round, id) {
				t.Fatalf("enabling other families shifted Unreachable at round %d id %d", round, id)
			}
		}
	}
}

// FromRound/ToRound bound the active window; outside it nothing fires.
func TestFaultPlanWindow(t *testing.T) {
	p := FaultPlan{Seed: 1, DropProb: 1, FromRound: 2, ToRound: 5}
	for round := 0; round < 8; round++ {
		want := round >= 2 && round < 5
		if got := p.Unreachable(round, 0); got != want {
			t.Fatalf("round %d: Unreachable = %v, want %v", round, got, want)
		}
	}
	// ToRound == 0 means "no upper bound".
	open := FaultPlan{Seed: 1, DropProb: 1, FromRound: 3}
	if open.Unreachable(2, 0) || !open.Unreachable(1000, 0) {
		t.Fatal("open-ended window misbehaved")
	}
}

// Latency is BaseLatency plus SlowLatency exactly when Slow fires.
func TestFaultPlanLatency(t *testing.T) {
	p := FaultPlan{Seed: 5, SlowProb: 0.5, BaseLatency: 10 * time.Millisecond, SlowLatency: 300 * time.Millisecond}
	var slow, fast int
	for id := 0; id < 50; id++ {
		want := p.BaseLatency
		if p.Slow(0, id) {
			want += p.SlowLatency
			slow++
		} else {
			fast++
		}
		if got := p.Latency(0, id); got != want {
			t.Fatalf("id %d: latency %v, want %v", id, got, want)
		}
	}
	if slow == 0 || fast == 0 {
		t.Fatalf("SlowProb=0.5 over 50 ids drew slow=%d fast=%d — stream looks degenerate", slow, fast)
	}
}

// String must render a form ParseFaultPlan reads back verbatim.
func TestFaultPlanStringRoundTrip(t *testing.T) {
	plans := []FaultPlan{
		{Seed: 7},
		chaosPlan(),
		DefaultFaultPlan(),
		{Seed: 2, DropProb: 0.5, BaseLatency: time.Millisecond, FromRound: 1, ToRound: 9, RealSleep: true},
	}
	for _, p := range plans {
		got, err := ParseFaultPlan(p.String())
		if err != nil {
			t.Fatalf("ParseFaultPlan(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("round trip of %q: got %+v, want %+v", p.String(), got, p)
		}
	}
}

func TestParseFaultPlan(t *testing.T) {
	if p, err := ParseFaultPlan(""); err != nil || p.Enabled() {
		t.Fatalf("empty spec: plan %+v err %v, want inactive zero plan", p, err)
	}
	if p, err := ParseFaultPlan("default"); err != nil || p != DefaultFaultPlan() {
		t.Fatalf("'default' spec: plan %+v err %v", p, err)
	}
	p, err := ParseFaultPlan("seed=7,drop=0.1,slow=0.2,slow-latency=1s,from=2,to=8,real-sleep")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPlan{Seed: 7, DropProb: 0.1, SlowProb: 0.2, SlowLatency: time.Second, FromRound: 2, ToRound: 8, RealSleep: true}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	for _, bad := range []string{
		"drop",           // no value
		"drop=1.5",       // probability out of range
		"drop=-0.1",      // probability out of range
		"drop=x",         // not a number
		"slow-latency=9", // not a duration
		"warp=0.5",       // unknown key
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Fatalf("ParseFaultPlan(%q) accepted a bad spec", bad)
		}
	}
}

// A certain-loss plan must convert every transfer into an ErrInjected
// failure, recycle the payload into the pool, and count the injection —
// without the inner backend seeing any traffic.
func TestFaultyInjectsAndRecycles(t *testing.T) {
	tr := NewFaulty(NewInproc(), FaultPlan{Seed: 1, SendLossProb: 1})
	var pool param.Buffers
	payload := testSet(1)
	got, err := tr.Send(0, 4, payload, &pool)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Send under certain loss = (%v, %v), want ErrInjected", got, err)
	}
	if got != nil {
		t.Fatal("failed Send must return a nil set")
	}
	// The payload went back to the pool: a shaped Get must find it.
	// Not assertable under -race, whose runtime drops random pool puts.
	if reused := pool.GetShaped(payload); reused == nil && !raceEnabled {
		t.Fatal("failed Send did not recycle the payload into the pool")
	}
	st := tr.Stats()
	if st.InjectedFaults != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", st.InjectedFaults)
	}
	if st.Messages != 0 || st.Bytes != 0 {
		t.Fatalf("inner backend saw traffic despite certain loss: %+v", st)
	}
}

func TestFaultyBroadcastFailure(t *testing.T) {
	tr := NewFaulty(NewInproc(), FaultPlan{Seed: 1, BroadcastFailProb: 1})
	bc, err := tr.OpenBroadcast(0, testSet(2))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("OpenBroadcast under certain failure = (%v, %v), want ErrInjected", bc, err)
	}
	if tr.Stats().InjectedFaults != 1 {
		t.Fatalf("InjectedFaults = %d, want 1", tr.Stats().InjectedFaults)
	}
}

func TestFaultyDeliverFailure(t *testing.T) {
	tr := NewFaulty(NewWire(), FaultPlan{Seed: 1, DeliverLossProb: 1})
	src := testSet(2)
	bc, err := tr.OpenBroadcast(0, src)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	dst := testSet(0)
	if err := bc.Deliver(3, dst); !errors.Is(err, ErrInjected) {
		t.Fatalf("Deliver under certain loss = %v, want ErrInjected", err)
	}
	st := tr.Stats()
	if st.InjectedFaults != 1 || st.BroadcastMessages != 0 {
		t.Fatalf("stats after injected delivery loss: %+v", st)
	}
}

// The wrapper injects the identical fault schedule over every inner
// backend, and the surviving transfers stay value-transparent: the
// per-(round, participant) outcome grid is equal across inproc, wire
// and socket under the same plan.
func TestFaultyScheduleBackendIndependent(t *testing.T) {
	plan := chaosPlan()
	type outcome struct {
		sendOK, deliverOK bool
	}
	record := func(backend string) ([]outcome, int64) {
		tr, err := NewOptions(FaultyPrefix+backend, Options{Plan: &plan})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if want := FaultyPrefix + backend; tr.Name() != want {
			t.Fatalf("Name() = %q, want %q", tr.Name(), want)
		}
		var pool param.Buffers
		var grid []outcome
		for round := 0; round < 12; round++ {
			bc, err := tr.OpenBroadcast(round, testSet(2))
			for id := 0; id < 8; id++ {
				var o outcome
				if err == nil {
					dst := testSet(0)
					o.deliverOK = bc.Deliver(id, dst) == nil
					if o.deliverOK && !param.Equal(testSet(2), dst, 0) {
						t.Fatalf("%s: surviving delivery corrupted values", backend)
					}
				}
				got, serr := tr.Send(round, id, testSet(1), &pool)
				o.sendOK = serr == nil
				if o.sendOK {
					if !param.Equal(testSet(1), got, 0) {
						t.Fatalf("%s: surviving send corrupted values", backend)
					}
					pool.Put(got)
				}
				grid = append(grid, o)
			}
			if err == nil {
				bc.Close()
			}
		}
		return grid, tr.Stats().InjectedFaults
	}
	refGrid, refInjected := record("inproc")
	if refInjected == 0 {
		t.Fatal("chaos plan injected nothing over 12 rounds × 8 participants")
	}
	var survived bool
	for _, o := range refGrid {
		if o.sendOK || o.deliverOK {
			survived = true
			break
		}
	}
	if !survived {
		t.Fatal("chaos plan killed every transfer — schedule looks degenerate")
	}
	for _, backend := range []string{"wire", "socket"} {
		grid, injected := record(backend)
		if injected != refInjected {
			t.Fatalf("%s injected %d faults, inproc injected %d", backend, injected, refInjected)
		}
		for i := range refGrid {
			if grid[i] != refGrid[i] {
				t.Fatalf("%s: fault schedule diverges from inproc at cell %d: %+v vs %+v",
					backend, i, grid[i], refGrid[i])
			}
		}
	}
}

// The "faulty:" prefix must thread through New, Known and Names-based
// validation; an explicit Options.Plan wraps even without the prefix.
func TestFaultyConstruction(t *testing.T) {
	for _, base := range Names() {
		name := FaultyPrefix + base
		if !Known(name) {
			t.Fatalf("Known(%q) = false", name)
		}
		tr, err := NewOptions(name, Options{})
		if err != nil {
			t.Fatalf("NewOptions(%q): %v", name, err)
		}
		f, ok := tr.(*Faulty)
		if !ok {
			t.Fatalf("NewOptions(%q) is %T, want *Faulty", name, tr)
		}
		if f.Plan() != DefaultFaultPlan() {
			t.Fatalf("bare prefix must select DefaultFaultPlan, got %+v", f.Plan())
		}
		if f.Inner().Name() != base {
			t.Fatalf("inner backend = %q, want %q", f.Inner().Name(), base)
		}
		tr.Close()
	}
	if _, err := NewOptions(FaultyPrefix+"carrier-pigeon", Options{}); err == nil {
		t.Fatal("faulty over an unknown backend must error")
	}
	plan := FaultPlan{Seed: 2, DropProb: 0.5}
	tr, err := NewOptions("wire", Options{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	f, ok := tr.(*Faulty)
	if !ok || f.Plan() != plan {
		t.Fatalf("explicit plan did not wrap: %T", tr)
	}
}

// A struct-built plan passes the same Validate as a parsed one: an
// out-of-range probability must not silently black out everybody.
func TestFaultPlanValidatedByNewOptions(t *testing.T) {
	for _, plan := range []FaultPlan{{DropProb: 1.5}, {SlowLatency: -time.Second}, {ToRound: -1}} {
		if tr, err := NewOptions("wire", Options{Plan: &plan}); err == nil {
			tr.Close()
			t.Errorf("NewOptions accepted the invalid plan %+v", plan)
		}
	}
}

// RealSleep burns the virtual latency as wall time inside Send.
func TestFaultyRealSleep(t *testing.T) {
	plan := FaultPlan{Seed: 1, BaseLatency: 30 * time.Millisecond, RealSleep: true}
	tr := NewFaulty(NewInproc(), plan)
	var pool param.Buffers
	start := time.Now()
	if _, err := tr.Send(0, 0, testSet(1), &pool); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < plan.BaseLatency {
		t.Fatalf("RealSleep send took %v, want >= %v", elapsed, plan.BaseLatency)
	}
}

// Example-style check that the documented spec grammar keeps parsing.
func TestFaultPlanSpecExamples(t *testing.T) {
	for _, spec := range []string{
		"seed=7,drop=0.05,send-loss=0.05,slow=0.1,slow-latency=500ms",
		"seed=1,bcast-fail=0.02,deliver-loss=0.1,base-latency=5ms",
		"default",
	} {
		if _, err := ParseFaultPlan(spec); err != nil {
			t.Fatalf("documented spec %q no longer parses: %v", spec, err)
		}
	}
	// String of a parsed spec must parse again (idempotence).
	p, _ := ParseFaultPlan("seed=7,drop=0.05,slow=0.1,slow-latency=500ms")
	q, err := ParseFaultPlan(p.String())
	if err != nil || q != p {
		t.Fatalf("String/Parse idempotence broke: %v (%+v vs %+v)", err, q, p)
	}
	_ = fmt.Sprintf("%s", p) // String must not panic on partially-filled plans
}
