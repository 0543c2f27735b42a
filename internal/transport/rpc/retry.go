package rpc

import (
	"errors"
	"flag"
	"net"
	"os"
	"time"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/planspec"
)

// ErrUnavailable tags round-trip failures where the server could not be
// reached within the client's RetryPolicy: every attempt either failed
// to dial or failed its I/O deadline. Callers distinguish it from
// protocol errors (ErrBadFrame, *RemoteError) to decide whether the
// peer is down versus misbehaving.
var ErrUnavailable = errors.New("rpc: server unavailable")

// RetryPolicy bounds how hard a Client tries to complete one
// round-trip against a flaky or partitioned server. The zero value
// selects the defaults below (see normalize), so existing callers get
// retry, timeouts and bounded redials without configuration.
//
// Requests in this protocol are replayable — the server holds no
// per-request state beyond stored broadcasts, and a replayed
// MsgBcastOpen at worst orphans one bounded-store entry — so retrying
// a round-trip whose response was lost is always safe.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per round-trip,
	// including the first (default 4). Stale pooled connections drained
	// after a server restart do not consume attempts; only fresh dials
	// and fresh-connection I/O failures do.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 2ms);
	// each further retry doubles it, capped at MaxBackoff (default
	// 250ms). The actual sleep is jittered deterministically into
	// [d/2, d) from JitterSeed, so a retry schedule is reproducible
	// from the seed while concurrent clients still decorrelate.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Timeout is the per-attempt deadline covering dial, request write
	// and response read (default 30s; set via SetDeadline on the
	// connection). Expiries are counted in Timeouts.
	Timeout time.Duration
	// JitterSeed drives the deterministic backoff jitter (0 is a valid
	// seed).
	JitterSeed uint64
}

// DefaultRetryPolicy returns the defaults documented on RetryPolicy.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  250 * time.Millisecond,
		Timeout:     30 * time.Second,
	}
}

// normalize fills unset fields with the defaults.
func (p RetryPolicy) normalize() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	return p
}

// backoff returns the jittered delay before retry number retry (1 =
// first retry). The jitter is a pure function of (JitterSeed, key,
// retry): reproducible from the seed, decorrelated across concurrent
// round-trips via the caller-supplied key.
func (p RetryPolicy) backoff(key uint64, retry int) time.Duration {
	d := p.BaseBackoff << (retry - 1)
	if d > p.MaxBackoff || d <= 0 { // <= 0: shift overflow
		d = p.MaxBackoff
	}
	u := mathx.StreamUniform(p.JitterSeed, key, uint64(retry))
	return time.Duration((0.5 + 0.5*u) * float64(d))
}

// retrySpec declares the retry-spec keys. Both "" and "default" are
// DefaultRetryPolicy, and every spec starts from it.
var retrySpec = planspec.Grammar[RetryPolicy]{
	Name:    "rpc: retry",
	Empty:   DefaultRetryPolicy(),
	Default: DefaultRetryPolicy(),
	Bind: func(fs *flag.FlagSet, p *RetryPolicy) {
		fs.IntVar(&p.MaxAttempts, "attempts", p.MaxAttempts, "")
		fs.DurationVar(&p.BaseBackoff, "backoff", p.BaseBackoff, "")
		fs.DurationVar(&p.MaxBackoff, "max-backoff", p.MaxBackoff, "")
		fs.DurationVar(&p.Timeout, "timeout", p.Timeout, "")
		fs.Uint64Var(&p.JitterSeed, "seed", p.JitterSeed, "")
	},
}

// Validate checks that no field is negative (0 selects the default).
func (p RetryPolicy) Validate() error {
	return planspec.Check("rpc: retry policy",
		planspec.NonNegative("attempts", p.MaxAttempts),
		planspec.NonNegative("backoff", p.BaseBackoff),
		planspec.NonNegative("max-backoff", p.MaxBackoff),
		planspec.NonNegative("timeout", p.Timeout))
}

// String renders the policy in the form ParseRetryPolicy accepts,
// omitting the fields equal to DefaultRetryPolicy's.
func (p RetryPolicy) String() string { return retrySpec.String(p) }

// ParseRetryPolicy parses a comma-separated key=value retry spec, e.g.
// "attempts=6,backoff=5ms,timeout=2s" (the keys are declared in
// retrySpec, the grammar is package planspec's). Unknown keys error;
// omitted keys keep the defaults. An empty string is the default
// policy. The result passes Validate.
func ParseRetryPolicy(spec string) (RetryPolicy, error) { return retrySpec.Parse(spec) }

// isTimeout reports whether err is an I/O deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
