package fed

import (
	"fmt"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// benchSim builds a bench-scale federation (the Table II MovieLens
// sizing) with the given worker count on the default (inproc)
// transport.
func benchSim(b *testing.B, workers int) *Simulation {
	return benchSimOn(b, workers, nil)
}

// benchSimOn is benchSim on an explicit transport backend.
func benchSimOn(b *testing.B, workers int, tr transport.Transport) *Simulation {
	b.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "bench", NumUsers: 140, NumItems: 260,
		NumCommunities: 4, MeanItemsPerUser: 40, MinItemsPerUser: 10,
		Affinity: 0.85, ZipfExponent: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.SplitLeaveOneOut(3)
	s, err := New(Config{
		Dataset:   d,
		Factory:   model.NewGMFFactory(d.NumUsers, d.NumItems, 8),
		Rounds:    1 << 30, // benchmarks drive RunRound directly
		Train:     model.TrainOptions{Epochs: 2},
		Workers:   workers,
		Transport: tr,
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchSimTraced is benchSim with the span tracer attached, for
// pricing the observability layer on the hot round path.
func benchSimTraced(b *testing.B, workers int, tracer *obs.Tracer) *Simulation {
	b.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "bench", NumUsers: 140, NumItems: 260,
		NumCommunities: 4, MeanItemsPerUser: 40, MinItemsPerUser: 10,
		Affinity: 0.85, ZipfExponent: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	d.SplitLeaveOneOut(3)
	s, err := New(Config{
		Dataset: d,
		Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 8),
		Rounds:  1 << 30, // benchmarks drive RunRound directly
		Train:   model.TrainOptions{Epochs: 2},
		Workers: workers,
		Tracer:  tracer,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchRound runs one RunRound benchmark cell on the named backend and
// reports payload traffic next to the usual time/allocs: payloadB/round
// is the encoded bytes actually moved (sends + broadcast deliveries),
// rawB/round what the same transfers would cost under the dense codec
// (transport.Stats raw accounting). Dense cells report the two equal;
// compressed cells show the measured wire saving.
func benchRound(b *testing.B, workers int, backend string, comp param.Compression) {
	b.Helper()
	tr, err := transport.NewOptions(backend, transport.Options{Compression: comp})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	s := benchSimOn(b, workers, tr)
	s.RunRound() // warm scratch models, pools (and the conn pool on socket)
	b.ReportAllocs()
	before := tr.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunRound()
	}
	b.StopTimer()
	st := tr.Stats()
	rounds := float64(b.N)
	b.ReportMetric(float64((st.Bytes+st.BroadcastBytes)-(before.Bytes+before.BroadcastBytes))/rounds, "payloadB/round")
	b.ReportMetric(float64((st.RawBytes+st.RawBroadcastBytes)-(before.RawBytes+before.RawBroadcastBytes))/rounds, "rawB/round")
}

// BenchmarkWireRound prices the wire transport against the in-memory
// baseline: one full FedAvg round where every download and upload
// round-trips the binary codec through pooled buffers (140 clients ×
// ~26 KB models each way per round). The wire/inproc gap is the
// serialization tax a multi-process deployment would pay on top of
// training; the c8/c16 cells run the same round through the
// sparse+quantized CPQ1 codec (8/16-bit, delta-coded uploads) and
// report how many payload bytes the round still moves — see
// PERFORMANCE.md for recorded numbers.
func BenchmarkWireRound(b *testing.B) {
	cases := []struct {
		name, backend string
		comp          param.Compression
	}{
		{"inproc", "inproc", param.Compression{}},
		{"wire", "wire", param.Compression{}},
		{"wire/c8", "wire", param.Compression{Bits: 8}},
		{"wire/c16", "wire", param.Compression{Bits: 16}},
	}
	for _, bc := range cases {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				benchRound(b, workers, bc.backend, bc.comp)
			})
		}
	}
}

// BenchmarkSocketRound prices the multi-process RPC transport: one
// full FedAvg round where every download and upload is a framed
// request/response round-trip over a loopback Unix-domain socket
// against the in-process rpc.Server — serialization plus syscalls,
// kernel socket buffers and connection-pool traffic. The socket/inproc
// gap is the full single-host IPC tax; compare with BenchmarkWireRound
// to isolate what the socket hop adds on top of the codec. The c8/c16
// cells push the same RPC traffic through the CPQ1 codec — the
// acceptance gauge for the compression work is the socket/c8
// payloadB/round at ≤½ the dense socket cell. See PERFORMANCE.md for
// recorded numbers.
func BenchmarkSocketRound(b *testing.B) {
	cases := []struct {
		name, backend string
		comp          param.Compression
	}{
		{"inproc", "inproc", param.Compression{}},
		{"socket", "socket", param.Compression{}},
		{"socket/c8", "socket", param.Compression{Bits: 8}},
		{"socket/c16", "socket", param.Compression{Bits: 16}},
	}
	for _, bc := range cases {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", bc.name, workers), func(b *testing.B) {
				benchRound(b, workers, bc.backend, bc.comp)
			})
		}
	}
}

// BenchmarkFaultyRound prices the resilience layer: one full FedAvg
// round behind the fault injector — every transfer pays the plan's
// counter-based fault draws, plus straggler-deadline and quorum checks
// in the sequential phase — against the plain inproc baseline. The
// "clean" case runs an all-zero plan (the wrapper installed but every
// probability off) to isolate the pure bookkeeping overhead; "chaos"
// runs the default plan, where the work saved on lost transfers can
// even make rounds cheaper. Latencies are virtual, so no case sleeps.
// See PERFORMANCE.md for recorded numbers.
func BenchmarkFaultyRound(b *testing.B) {
	plans := []struct {
		name string
		plan *transport.FaultPlan
	}{
		{"baseline", nil},
		{"clean", &transport.FaultPlan{Seed: 1}},
		{"chaos", func() *transport.FaultPlan { p := transport.DefaultFaultPlan(); return &p }()},
	}
	for _, pc := range plans {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", pc.name, workers), func(b *testing.B) {
				var tr transport.Transport
				var err error
				if pc.plan == nil {
					tr, err = transport.NewOptions("inproc", transport.Options{})
				} else {
					tr, err = transport.NewOptions("faulty:inproc", transport.Options{Plan: pc.plan})
				}
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { tr.Close() })
				s := benchSimOn(b, workers, tr)
				s.cfg.FaultPlan = pc.plan
				if pc.plan != nil {
					s.cfg.StragglerDeadline = 100 * time.Millisecond
					s.cfg.Quorum = 0.3
				}
				s.RunRound() // warm scratch models and both pools
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.RunRound()
				}
			})
		}
	}
}

// BenchmarkFedRound measures one full FedAvg round (140 clients × 2
// local epochs plus aggregation) at several worker counts. The
// acceptance target is ≥2× wall-clock at workers=4 vs workers=1 on a
// ≥4-core machine; allocs/op tracks the zero-allocation payload
// pipeline.
func BenchmarkFedRound(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := benchSim(b, workers)
			s.RunRound() // warm scratch models and the payload pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunRound()
			}
		})
	}
}

// BenchmarkObsOverhead prices the observability layer on the hot
// round path: the BenchmarkFedRound workload untraced (nil tracer —
// the disabled recorder's no-op fast path) against fully traced
// (every phase span of every participant recorded into the per-worker
// rings, including ring wraparound at steady state). The acceptance
// budget is <5% wall-clock overhead on/off; PERFORMANCE.md records
// the measured numbers.
func BenchmarkObsOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var tracer *obs.Tracer
			if traced {
				tracer = obs.NewTracer(obs.DefaultSpansPerRing)
			}
			s := benchSimTraced(b, 4, tracer)
			s.RunRound() // warm scratch models and the payload pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.RunRound()
			}
			b.StopTimer()
			if traced && tracer.Recorded() == 0 {
				b.Fatal("traced cell recorded no spans")
			}
		})
	}
}

// BenchmarkUtilityHR measures one leave-one-out HR@10 sweep (140 users
// × 50 negatives) on the deterministic parallel evaluation engine.
// allocs/op tracks the per-worker scratch discipline: after warm-up a
// sweep allocates O(1) regardless of the user count.
func BenchmarkUtilityHR(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := benchSim(b, workers)
			s.RunRound()
			s.UtilityHR(10, 50) // warm eval scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.UtilityHR(10, 50)
			}
		})
	}
}

// BenchmarkUtilityF1 measures one top-10 F1 sweep (140 users × the full
// 260-item catalogue) on the evaluation engine — the acceptance gauge
// for the parallel eval work: expect ≥2× at workers=4 on a ≥4-core
// machine and ~zero per-user allocations (the seed implementation
// allocated two catalogue-length slices per user per round).
func BenchmarkUtilityF1(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := benchSim(b, workers)
			s.RunRound()
			s.UtilityF1(10) // warm eval scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.UtilityF1(10)
			}
		})
	}
}

// BenchmarkFedAggregate isolates the server's streaming fold — one
// round's observe/fold/apply over 40 full-model uploads at a paper-ish
// catalogue size (2000 items × dim 16 ≈ 32k-element item table) —
// without the local training that dominates BenchmarkFedRound. The
// fold runs on one goroutine whatever Workers says, so there is one
// cell. Each iteration hands the folder fresh pooled copies of the
// uploads (it recycles what it consumes); the copies are made with the
// timer stopped, so the measurement is the fold alone.
func BenchmarkFedAggregate(b *testing.B) {
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "agg-bench", NumUsers: 40, NumItems: 2000,
		NumCommunities: 4, MeanItemsPerUser: 40, MinItemsPerUser: 10,
		Affinity: 0.85, ZipfExponent: 0.8, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Dataset: d,
		Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 16),
		Rounds:  1,
		Seed:    1,
	})
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([]*param.Set, d.NumUsers)
	for u := range payloads {
		payload := s.Global().Params().Clone()
		for _, name := range payload.Names() {
			data := payload.Get(name)
			for i := range data {
				data[i] += float64(u+1) * 1e-4
			}
		}
		payloads[u] = payload
	}
	uploads := make([]upload, d.NumUsers)
	stage := func() {
		for u := range uploads {
			uploads[u] = upload{from: u, payload: s.pool.Clone(payloads[u])}
		}
	}
	stage()
	foldUploads(s, uploads) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stage()
		b.StartTimer()
		foldUploads(s, uploads)
	}
}
