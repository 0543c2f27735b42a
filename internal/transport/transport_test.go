package transport

import (
	"sync"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
)

// testSet builds a model-shaped set: a private user table, an item
// table and a bias vector, with distinctive values.
func testSet(scale float64) *param.Set {
	s := param.New()
	ue := make([]float64, 6*4)
	ie := make([]float64, 10*4)
	b := make([]float64, 10)
	for i := range ue {
		ue[i] = scale * (1.5 + float64(i))
	}
	for i := range ie {
		ie[i] = scale * (-0.25 * float64(i+1))
	}
	for i := range b {
		b[i] = scale * float64(i) * 1e-3
	}
	s.Add("user_emb", 6, 4, ue)
	s.Add("item_emb", 10, 4, ie)
	s.AddVector("bias", b)
	return s
}

func TestNewBackends(t *testing.T) {
	for _, name := range append([]string{""}, Names()...) {
		tr, err := NewOptions(name, Options{})
		if err != nil {
			t.Fatalf("NewOptions(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = "inproc"
		}
		if tr.Name() != want {
			t.Fatalf("NewOptions(%q).Name() = %q", name, tr.Name())
		}
		if !Known(name) {
			t.Fatalf("Known(%q) = false for a New-able backend", name)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("NewOptions(%q).Close(): %v", name, err)
		}
	}
	if _, err := NewOptions("carrier-pigeon", Options{}); err == nil {
		t.Fatal("unknown backend must error")
	}
	if Known("carrier-pigeon") {
		t.Fatal("Known must reject unknown backends")
	}
}

func TestInprocSendPassesPointerThrough(t *testing.T) {
	tr := NewInproc()
	var pool param.Buffers
	payload := testSet(1)
	got, err := tr.Send(0, 0, payload, &pool)
	if err != nil {
		t.Fatal(err)
	}
	if got != payload {
		t.Fatal("inproc Send must return the same set")
	}
	st := tr.Stats()
	if st.Messages != 1 || st.Bytes != int64(payload.WireBytes()) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWireSendRoundTripsValues(t *testing.T) {
	for _, tr := range []Transport{NewWire()} {
		t.Run(tr.Name(), func(t *testing.T) {
			var pool param.Buffers
			payload := testSet(1)
			want := payload.Clone()
			got, err := tr.Send(0, 0, payload, &pool)
			if err != nil {
				t.Fatal(err)
			}
			if got == payload {
				t.Fatal("wire Send must not return the sender's set")
			}
			if !param.Equal(want, got, 0) {
				t.Fatal("wire Send changed values")
			}
			st := tr.Stats()
			if st.Messages != 1 || st.Bytes != int64(want.WireBytes()) {
				t.Fatalf("stats = %+v, want 1 message of %d bytes", st, want.WireBytes())
			}
		})
	}
}

// The wire backend's received sets must not alias the sender's
// storage: mutating the sender afterwards cannot leak into the
// receiver (that would be Inproc semantics by accident).
func TestWireSendDoesNotAlias(t *testing.T) {
	tr := NewWire()
	payload := testSet(1)
	got, _ := tr.Send(0, 0, payload, nil) // nil pool: Send falls back to allocation
	payload.Get("item_emb")[0] = 1e9
	if got.Get("item_emb")[0] == 1e9 {
		t.Fatal("received set aliases sender storage")
	}
}

func TestBroadcastDelivers(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			tr, err := NewOptions(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			src := testSet(2)
			bc, err := tr.OpenBroadcast(0, src)
			if err != nil {
				t.Fatal(err)
			}
			dsts := []*param.Set{testSet(0), testSet(-1), testSet(7)}
			for i, dst := range dsts {
				if err := bc.Deliver(i, dst); err != nil {
					t.Fatal(err)
				}
			}
			bc.Close()
			for i, dst := range dsts {
				if !param.Equal(src, dst, 0) {
					t.Fatalf("receiver %d differs from source", i)
				}
			}
			st := tr.Stats()
			if st.BroadcastMessages != 3 || st.BroadcastBytes != 3*int64(src.WireBytes()) {
				t.Fatalf("stats = %+v", st)
			}
			if st.Messages != 0 {
				t.Fatal("broadcast must not count as point-to-point traffic")
			}
		})
	}
}

// Broadcast delivery writes values into the destination's existing
// backing storage — receivers register live model tensors and rely on
// the aliasing surviving a download.
func TestBroadcastDeliverPreservesAliasing(t *testing.T) {
	for _, name := range Names() {
		tr, err := NewOptions(name, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		src := testSet(3)
		dst := testSet(0)
		backing := dst.Get("item_emb")
		bc, err := tr.OpenBroadcast(0, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := bc.Deliver(0, dst); err != nil {
			t.Fatal(err)
		}
		bc.Close()
		if &backing[0] != &dst.Get("item_emb")[0] {
			t.Fatalf("%s: Deliver replaced the destination's backing storage", name)
		}
		if backing[0] != src.Get("item_emb")[0] {
			t.Fatalf("%s: delivered values missing from backing storage", name)
		}
	}
}

// Send and Deliver run from worker goroutines in the simulators; the
// backends must tolerate concurrent use (run under -race in CI).
func TestConcurrentUse(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			tr, err := NewOptions(name, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			var pool param.Buffers
			src := testSet(5)
			bc, err := tr.OpenBroadcast(0, src)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			const perG = 20
			var wg sync.WaitGroup
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					dst := testSet(0)
					for i := 0; i < perG; i++ {
						if err := bc.Deliver(g, dst); err != nil {
							panic(err)
						}
						got, err := tr.Send(0, 0, pool.Clone(src), &pool)
						if err != nil {
							panic(err)
						}
						if !param.Equal(src, got, 0) || !param.Equal(src, dst, 0) {
							panic("concurrent transfer corrupted values")
						}
						pool.Put(got)
					}
				}(g)
			}
			wg.Wait()
			bc.Close()
			st := tr.Stats()
			if st.Messages != goroutines*perG || st.BroadcastMessages != goroutines*perG {
				t.Fatalf("stats = %+v, want %d of each", st, goroutines*perG)
			}
		})
	}
}

// After the pool warms up, the wire backend's steady state allocates
// nothing on the Send path beyond what the codec itself needs.
func TestWireSendReusesPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomizes reuse under -race")
	}
	tr := NewWire()
	var pool param.Buffers
	send := func() *param.Set {
		got, err := tr.Send(0, 0, pool.Clone(testSet(1)), &pool)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// Warm: first sends populate the free-list.
	for i := 0; i < 4; i++ {
		pool.Put(send())
	}
	allocs := testing.AllocsPerRun(50, func() {
		pool.Put(send())
	})
	// testSet itself allocates ~10; the transfer should add ~0. Allow
	// slack for pool misses under GC.
	if allocs > 16 {
		t.Fatalf("steady-state wire send allocates too much: %.1f allocs/op", allocs)
	}
}
