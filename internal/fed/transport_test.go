package fed

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// uploads is the client→server share of a transport's accounting.
func uploads(tr transport.Transport) [2]int64 {
	st := tr.Stats()
	return [2]int64{st.Messages, st.Bytes}
}

// runWithTransport executes a fresh simulation from cfg on the named
// transport backend and returns the transport, the final global
// parameters and the per-round HR/F1 utility curves.
func runWithTransport(t *testing.T, cfg Config, backend string) (transport.Transport, *param.Set, []float64, []float64) {
	t.Helper()
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cfg.Transport = tr
	var hr, f1 []float64
	cfg.OnRound = func(round int, s *Simulation) {
		hr = append(hr, s.UtilityHR(10, 20))
		f1 = append(f1, s.UtilityF1(10))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return tr, s.Global().Params().Clone(), hr, f1
}

// The tentpole guarantee of the pluggable round transport: for every
// (policy, model, workers) cell, routing all parameter traffic through
// the serializing backends — the wire codec and the socket RPC path over a loopback Unix-domain socket server —
// produces byte-identical final models, identical utility curves and
// identical upload accounting to the in-memory backend. CI runs this
// under -race, which also exercises concurrent wire encode/decode and
// concurrent RPC round-trips from the worker pool.
func TestTransportBackendEquivalence(t *testing.T) {
	d := fedTestDataset(t)
	policies := map[string]defense.Policy{
		"full":       nil,
		"share-less": defense.ShareLess{Tau: 1},
		"dp-sgd":     defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05},
	}
	models := map[string]model.Factory{
		"gmf":  model.NewGMFFactory(d.NumUsers, d.NumItems, 8),
		"prme": model.NewPRMEFactory(d.NumUsers, d.NumItems, 8),
	}
	for pname, policy := range policies {
		for mname, factory := range models {
			for _, workers := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", pname, mname, workers), func(t *testing.T) {
					cfg := fedConfig(d)
					cfg.Policy = policy
					cfg.Factory = factory
					cfg.Rounds = 3
					cfg.Workers = workers
					refTr, refParams, refHR, refF1 := runWithTransport(t, cfg, "inproc")
					for _, backend := range []string{"wire", "socket"} {
						tr, params, hr, f1 := runWithTransport(t, cfg, backend)
						if !param.Equal(refParams, params, 0) {
							t.Fatalf("%s final global params differ from inproc", backend)
						}
						for r := range refHR {
							if hr[r] != refHR[r] || f1[r] != refF1[r] {
								t.Fatalf("%s utility curve differs from inproc at round %d", backend, r)
							}
						}
						if uploads(tr) != uploads(refTr) {
							t.Fatalf("%s traffic %v != inproc %v", backend, uploads(tr), uploads(refTr))
						}
						ws, is := tr.Stats(), refTr.Stats()
						if ws.BroadcastMessages != is.BroadcastMessages || ws.BroadcastBytes != is.BroadcastBytes {
							t.Fatalf("%s broadcast accounting %+v != inproc %+v", backend, ws, is)
						}
					}
				})
			}
		}
	}
}

// Sampling and dropout consume the shared round RNG before dispatch;
// the wire backend must not perturb that discipline.
func TestTransportEquivalenceWithDropoutAndSampling(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 6
	cfg.ClientFraction = 0.6
	cfg.DropoutProb = 0.2
	cfg.Workers = 3
	refTr, refParams, refHR, _ := runWithTransport(t, cfg, "inproc")
	for _, backend := range []string{"wire", "socket"} {
		tr, params, hr, _ := runWithTransport(t, cfg, backend)
		if !param.Equal(refParams, params, 0) {
			t.Fatalf("%s run differs from inproc under sampling+dropout", backend)
		}
		for r := range refHR {
			if hr[r] != refHR[r] {
				t.Fatalf("%s utility differs at round %d", backend, r)
			}
		}
		if uploads(tr) != uploads(refTr) {
			t.Fatalf("%s traffic %v != %v", backend, uploads(tr), uploads(refTr))
		}
	}
}

// The adversary's observation stream must be identical under the wire
// backend: same senders, same order, same payload values.
func TestTransportObserverSequence(t *testing.T) {
	d := fedTestDataset(t)
	type seen struct {
		round, from int
		norm        float64
	}
	record := func(backend string) []seen {
		tr, err := transport.New(backend)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		var log []seen
		cfg := fedConfig(d)
		cfg.Workers = 4
		cfg.Transport = tr
		cfg.Observer = observerFunc(func(msg Message) {
			log = append(log, seen{msg.Round, msg.From, msg.Params.L2Norm()})
		})
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return log
	}
	ref := record("inproc")
	for _, backend := range []string{"wire", "socket"} {
		got := record(backend)
		if len(ref) != len(got) {
			t.Fatalf("%s observation count %d != inproc %d", backend, len(got), len(ref))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("%s observation %d differs: %+v vs %+v", backend, i, got[i], ref[i])
			}
		}
	}
}

// The fed broadcast is accounted per sampled client, and wire byte
// accounting must agree exactly with the WireBytes predictor.
func TestTransportBroadcastAccounting(t *testing.T) {
	d := fedTestDataset(t)
	tr := transport.NewWire()
	cfg := fedConfig(d)
	cfg.Rounds = 2
	cfg.Transport = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := tr.Stats()
	wantMsgs := int64(d.NumUsers * cfg.Rounds)
	if st.BroadcastMessages != wantMsgs {
		t.Fatalf("broadcast messages = %d, want %d", st.BroadcastMessages, wantMsgs)
	}
	perMsg := int64(s.Global().Params().WireBytes())
	if st.BroadcastBytes != wantMsgs*perMsg {
		t.Fatalf("broadcast bytes = %d, want %d", st.BroadcastBytes, wantMsgs*perMsg)
	}
	if st.Messages != wantMsgs || st.Bytes != wantMsgs*perMsg {
		t.Fatalf("upload accounting %+v, want %d msgs × %d bytes", st, wantMsgs, perMsg)
	}
}
