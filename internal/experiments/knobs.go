package experiments

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// Knobs is the deployment a run executes under: transport, codec,
// fault injection, churn, Byzantine population and the fed server's
// aggregation rule. It is the one place these are parsed and
// validated — Scenario embeds it (the JSON keys below are the
// scenario file's), `ciabench` binds its flags onto it (Flags) and
// ciarec.RunConfig copies its fields into one. Workload sizing (paper
// scale, rounds, epochs, workers, seed) is not a knob: each caller
// defaults it differently.
//
// The nested plan fields reuse the textual key=value specs of their
// typed parsers (transport.ParseFaultPlan, transport.ParseRetryPolicy,
// transport.ParseChurnPlan, attack.ParseByzantine), so scenario files
// and flags share one syntax. Package planspec defines that grammar
// once for all four.
type Knobs struct {
	// Transport names the round-transport backend (see Spec.Transport);
	// TransportAddr dials an external ciaworker instead of a loopback
	// server and needs a socket backend.
	Transport     string `json:"transport,omitempty"`
	TransportAddr string `json:"transport_addr,omitempty"`
	// Compression is "off", "8bit" or "16bit" (param.ParseCompression).
	Compression string `json:"compression,omitempty"`
	// Faults is a transport.ParseFaultPlan spec
	// (e.g. "seed=3,drop=0.1,slow=0.3,slow-latency=500ms") or "default".
	Faults string `json:"faults,omitempty"`
	// Retry is a transport.ParseRetryPolicy spec for the socket
	// backends (e.g. "attempts=6,backoff=5ms,timeout=2s").
	Retry string `json:"retry,omitempty"`

	// Churn is a transport.ParseChurnPlan spec
	// (e.g. "seed=5,initial=0.8,leave=0.25,join=0.5,stale-bound=2")
	// or "default". Empty: static membership.
	Churn string `json:"churn,omitempty"`
	// Byzantine is an attack.ParseByzantine spec
	// (e.g. "kind=sign-flip,frac=0.1,seed=1") or "default". Empty: no
	// adversaries.
	Byzantine string `json:"byzantine,omitempty"`
	// Aggregator is the fed server's rule: "" or "fedavg", "median",
	// "trimmed-mean", "norm-clip" (fed.ParseAggregator). Fed only.
	Aggregator string `json:"aggregator,omitempty"`
	// TrimFraction is the trimmed mean's per-end trim in [0, 0.5).
	TrimFraction float64 `json:"trim_fraction,omitempty"`
	// ClipNorm is norm-clip's per-upload L2 bound (required with
	// aggregator "norm-clip").
	ClipNorm float64 `json:"clip_norm,omitempty"`
	// Quorum and StragglerDeadline parameterize fed partial
	// aggregation; the deadline is a Go duration string ("100ms").
	Quorum            float64 `json:"quorum,omitempty"`
	StragglerDeadline string  `json:"straggler_deadline,omitempty"`
}

// Flags binds every knob to a command-line flag of fs, defaulting to
// the knob's current value. Parse errors surface from Apply, naming
// the JSON field.
func (k *Knobs) Flags(fs *flag.FlagSet) {
	fs.StringVar(&k.Transport, "transport", k.Transport, "round transport backend: "+strings.Join(transport.Names(), " | ")+", optionally behind the fault-injecting prefix \"faulty:\" (default inproc; socket backends spin up a loopback server unless -addr is given)")
	fs.StringVar(&k.TransportAddr, "addr", k.TransportAddr, "external ciaworker address for the socket backends: a socket path (socket) or host:port (socket-tcp)")
	fs.StringVar(&k.Compression, "compress", k.Compression, "wire compression for every parameter transfer: 'off' (default, lossless dense codec) or '8'/'16' for the sparse+quantized delta codec at that bit width")
	fs.StringVar(&k.Faults, "faults", k.Faults, "deterministic fault-injection spec, e.g. 'seed=7,drop=0.05,send-loss=0.05,slow=0.1,slow-latency=500ms' or 'default'; wraps the transport in the fault injector and drives straggler latencies")
	fs.StringVar(&k.Retry, "retry", k.Retry, "socket RPC retry policy, e.g. 'attempts=6,backoff=5ms,timeout=2s' (empty keeps the defaults)")
	fs.StringVar(&k.Churn, "churn", k.Churn, "deterministic participant-churn spec, e.g. 'seed=5,initial=0.8,leave=0.25,join=0.5,stale-bound=2' or 'default'; memberships grow and shrink round over round, rejoiners resume from their stale snapshot")
	fs.StringVar(&k.Byzantine, "byz", k.Byzantine, "Byzantine adversary spec, e.g. 'kind=sign-flip,frac=0.1,seed=1' or 'default'; kinds: sign-flip, scaled-noise, collude")
	fs.StringVar(&k.Aggregator, "agg", k.Aggregator, "FL aggregation rule: fedavg (default), median, trimmed-mean or norm-clip")
	fs.Float64Var(&k.TrimFraction, "trim", k.TrimFraction, "trimmed-mean per-end trim fraction in [0, 0.5) (0 keeps the default 0.1)")
	fs.Float64Var(&k.ClipNorm, "clip", k.ClipNorm, "norm-clip per-upload L2 bound (required with -agg norm-clip)")
	fs.Float64Var(&k.Quorum, "quorum", k.Quorum, "minimum fraction of sampled clients whose uploads must arrive in time for an FL round to aggregate; below it the round keeps the previous global model (0 disables)")
	fs.StringVar(&k.StragglerDeadline, "straggler-deadline", k.StragglerDeadline, "FL per-round upload deadline, a Go duration: uploads whose fault-plan latency exceeds it are observed by the adversary but excluded from aggregation (empty or 0 disables)")
}

// Apply parses and validates every knob exactly once and returns s
// with the knobs' deployment fields set; the plan and policy pointers
// are set only for non-empty knobs. An error names the offending JSON
// field. Apply on a zero Spec is the knobs' validation.
func (k Knobs) Apply(s Spec) (Spec, error) {
	if !transport.Known(k.Transport) {
		return s, fieldErr("transport", fmt.Errorf("unknown transport %q (have %s, optionally behind %q)",
			k.Transport, strings.Join(transport.Names(), ", "), transport.FaultyPrefix))
	}
	s.Transport = k.Transport
	if k.TransportAddr != "" {
		switch strings.TrimPrefix(k.Transport, transport.FaultyPrefix) {
		case "socket", "socket-tcp":
		default:
			return s, fieldErr("transport_addr", fmt.Errorf("needs transport socket or socket-tcp, got %q", k.Transport))
		}
	}
	s.TransportAddr = k.TransportAddr
	var err error
	if s.Compression, err = param.ParseCompression(k.Compression); err != nil {
		return s, fieldErr("compression", err)
	}
	if k.Faults != "" {
		plan, err := transport.ParseFaultPlan(k.Faults)
		if err != nil {
			return s, fieldErr("faults", err)
		}
		s.FaultPlan = &plan
	}
	if k.Retry != "" {
		policy, err := transport.ParseRetryPolicy(k.Retry)
		if err != nil {
			return s, fieldErr("retry", err)
		}
		s.Retry = &policy
	}
	if k.Churn != "" {
		plan, err := transport.ParseChurnPlan(k.Churn)
		if err != nil {
			return s, fieldErr("churn", err)
		}
		s.ChurnPlan = &plan
	}
	if k.Byzantine != "" {
		byz, err := attack.ParseByzantine(k.Byzantine)
		if err != nil {
			return s, fieldErr("byzantine", err)
		}
		s.Byzantine = &byz
	}
	if s.Aggregator, err = fed.ParseAggregator(k.Aggregator); err != nil {
		return s, fieldErr("aggregator", err)
	}
	if k.TrimFraction < 0 || k.TrimFraction >= 0.5 {
		return s, fieldErr("trim_fraction", fmt.Errorf("%g outside [0, 0.5)", k.TrimFraction))
	}
	s.TrimFraction = k.TrimFraction
	if k.ClipNorm < 0 {
		return s, fieldErr("clip_norm", fmt.Errorf("negative bound %g", k.ClipNorm))
	}
	if s.Aggregator == fed.AggNormClip && k.ClipNorm == 0 {
		return s, fieldErr("clip_norm", fmt.Errorf("required with aggregator norm-clip"))
	}
	s.ClipNorm = k.ClipNorm
	if k.Quorum < 0 || k.Quorum > 1 {
		return s, fieldErr("quorum", fmt.Errorf("%g outside [0, 1]", k.Quorum))
	}
	s.Quorum = k.Quorum
	if k.StragglerDeadline != "" {
		if s.StragglerDeadline, err = time.ParseDuration(k.StragglerDeadline); err != nil {
			return s, fieldErr("straggler_deadline", err)
		}
		if s.StragglerDeadline < 0 {
			return s, fieldErr("straggler_deadline", fmt.Errorf("negative deadline %v", s.StragglerDeadline))
		}
	}
	return s, nil
}
