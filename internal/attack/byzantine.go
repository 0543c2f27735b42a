package attack

import (
	"flag"
	"fmt"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/planspec"
)

// ByzKind selects a Byzantine corruption strategy.
type ByzKind int

const (
	// ByzSignFlip reflects the honest update around the received model:
	// the upload becomes ref - Scale*(upload - ref), i.e. the client
	// pushes the aggregate in exactly the wrong direction (Scale = 1 is
	// the classic sign-flipping attacker, larger scales amplify it).
	ByzSignFlip ByzKind = iota
	// ByzScaledNoise adds N(0, Scale²) noise to every uploaded
	// coordinate, drawn from a counter-based stream — an unstructured
	// poisoner that degrades the aggregate without a preferred
	// direction.
	ByzScaledNoise
	// ByzCollude makes the adversaries colluding CIA senders: each
	// echoes the model it received back verbatim. The upload carries no
	// local signal (free-riding that dilutes honest updates), which is
	// the sender-side half of a colluding inference coalition — the
	// colluders' outgoing traffic is indistinguishable from the
	// broadcast while their received models feed a shared CIA instance.
	ByzCollude
)

// String returns the spec token for the kind.
func (k ByzKind) String() string {
	switch k {
	case ByzSignFlip:
		return "sign-flip"
	case ByzScaledNoise:
		return "scaled-noise"
	case ByzCollude:
		return "collude"
	default:
		return fmt.Sprintf("ByzKind(%d)", int(k))
	}
}

// Byzantine-decision stream tags (namespaced away from the transport
// fault and churn tags so a shared seed still separates families).
const (
	byzTagSelect uint64 = iota + 0x20
	byzTagNoise
)

// Byzantine is a declarative, seed-driven active-adversary population:
// a fixed Fraction of participants — chosen as a pure function of
// (Seed, participant), so the set is identical on every backend and
// worker count — corrupt every payload they send. The corruption
// itself is deterministic too: sign-flips are algebra, and the noise
// attack draws from a counter-based per-(round, participant) stream.
// Selection and corruption consume no simulator RNG, so a nil (or
// zero-Fraction) adversary leaves a run byte-identical.
type Byzantine struct {
	// Kind selects the corruption strategy.
	Kind ByzKind
	// Fraction of participants that are adversarial, in [0, 1].
	Fraction float64
	// Scale parameterizes the strategy: the reflection gain for
	// sign-flip, the noise stddev for scaled-noise (ignored by
	// collude). 0 means the default, 1.
	Scale float64
	// Seed drives adversary selection and the noise streams.
	Seed uint64
}

// DefaultByzantine is the population behind the bare "default" spec:
// 10% sign-flipping adversaries, unit scale, seed 1.
func DefaultByzantine() Byzantine {
	return Byzantine{Kind: ByzSignFlip, Fraction: 0.1, Scale: 1, Seed: 1}
}

// scale resolves the "0 means 1" default.
func (b Byzantine) scale() float64 {
	if b.Scale == 0 {
		return 1
	}
	return b.Scale
}

// Enabled reports whether any participant can be adversarial.
func (b Byzantine) Enabled() bool { return b.Fraction > 0 }

// Validate checks the population's parameters.
func (b Byzantine) Validate() error {
	switch b.Kind {
	case ByzSignFlip, ByzScaledNoise, ByzCollude:
	default:
		return fmt.Errorf("attack: byzantine: unknown kind %d", int(b.Kind))
	}
	return planspec.Check("attack: byzantine",
		planspec.Prob("frac", b.Fraction),
		planspec.NonNegative("scale", b.Scale))
}

// IsAdversary reports whether the participant is in the adversarial
// population — a pure function of (Seed, id), constant across rounds
// (a compromised client stays compromised).
func (b Byzantine) IsAdversary(id int) bool {
	if b.Fraction <= 0 {
		return false
	}
	if b.Fraction >= 1 {
		return true
	}
	return mathx.StreamUniform(b.Seed, byzTagSelect, 0, uint64(id)) < b.Fraction
}

// Corrupt applies the adversary's strategy to the outgoing payload in
// place. ref is the model the participant received this round (the
// broadcast / pushed state it would echo or reflect around); entries
// of the payload missing from ref are left untouched. Deterministic:
// the only randomness is the scaled-noise stream keyed by
// (Seed, round, id).
func (b Byzantine) Corrupt(round, id int, payload, ref *param.Set) {
	switch b.Kind {
	case ByzSignFlip:
		s := b.scale()
		for i := 0; i < payload.Len(); i++ {
			e := payload.At(i)
			if !ref.Has(e.Name) {
				continue
			}
			// e.Data ← (1+s)·ref − s·e.Data, i.e. ref − s·(e.Data − ref).
			mathx.Scale(-s, e.Data)
			mathx.Axpy(1+s, ref.Get(e.Name), e.Data)
		}
	case ByzScaledNoise:
		rng := mathx.NewStreamRand(b.Seed, byzTagNoise, uint64(round), uint64(id))
		payload.AddNoise(rng.NormFloat64, b.scale())
	case ByzCollude:
		payload.CopyShared(ref)
	}
}

// byzKindFlag is ByzKind as a flag.Value over its spec tokens.
type byzKindFlag ByzKind

func (k *byzKindFlag) String() string { return ByzKind(*k).String() }

func (k *byzKindFlag) Set(s string) error {
	for kind := ByzSignFlip; kind <= ByzCollude; kind++ {
		if kind.String() == s {
			*k = byzKindFlag(kind)
			return nil
		}
	}
	return fmt.Errorf("unknown kind %q (want sign-flip, scaled-noise or collude)", s)
}

// byzSpec declares the Byzantine-spec keys: "default" is
// DefaultByzantine and "" the zero (disabled) population.
var byzSpec = planspec.Grammar[Byzantine]{
	Name:    "attack: byzantine",
	Default: DefaultByzantine(),
	Bind: func(fs *flag.FlagSet, b *Byzantine) {
		fs.Var((*byzKindFlag)(&b.Kind), "kind", "")
		fs.Float64Var(&b.Fraction, "frac", b.Fraction, "")
		fs.Float64Var(&b.Scale, "scale", b.Scale, "")
		fs.Uint64Var(&b.Seed, "seed", b.Seed, "")
	},
}

// String renders the population in the form ParseByzantine accepts.
func (b Byzantine) String() string { return byzSpec.String(b) }

// ParseByzantine parses a comma-separated key=value adversary spec,
// e.g. "kind=sign-flip,frac=0.1,scale=2,seed=3" (the keys are declared
// in byzSpec, the grammar is package planspec's). "default" selects
// DefaultByzantine verbatim; an empty string is the zero (disabled)
// population. The result passes Validate.
func ParseByzantine(spec string) (Byzantine, error) { return byzSpec.Parse(spec) }
