// Package defense implements the two mitigation strategies evaluated
// in the paper: the Share-less policy (§III-D, keep user embeddings
// private and regularize item-embedding drift) and user-level DP-SGD
// (§III-E, per-example clipping plus calibrated Gaussian noise on the
// shared update), together with a zCDP privacy accountant.
//
// Both federated and gossip clients interact with defenses through the
// Policy interface: a policy shapes the client's local training and
// builds the outgoing message payload from the client's live model.
package defense

import (
	"math/rand/v2"

	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// Policy shapes what a collaborative-learning client shares and how it
// trains locally. Implementations must be stateless with respect to
// individual clients (one Policy instance serves every client).
type Policy interface {
	// Name identifies the policy in experiment output
	// ("full", "share-less", "dp-sgd").
	Name() string

	// PrepareTrain adjusts the client's local-training options.
	// received is the payload the client installed at the start of the
	// round (the drift reference for Share-less); it may be nil on the
	// very first round.
	PrepareTrain(opt *model.TrainOptions, m model.Recommender, received *param.Set)

	// Outgoing builds the message payload from the client's live model
	// after local training. prev is a snapshot of the client's
	// parameters before local training (DP-SGD clips and noises the
	// prev→current delta). The returned set must not alias model
	// storage. buf is an optional recycled-set pool (nil is valid and
	// falls back to plain allocation); payloads drawn from it are
	// returned to it by the simulator once the round is over.
	Outgoing(m model.Recommender, prev *param.Set, rng *rand.Rand, buf *param.Buffers) *param.Set

	// ReadsSnapshot reports whether PrepareTrain or Outgoing reads the
	// pre-training snapshot (received / prev). When it does not, the
	// simulators skip copying the model and pass nil.
	ReadsSnapshot() bool
}

// FullSharing is the no-defense baseline: the complete model is shared
// and local training is unmodified.
type FullSharing struct{}

var _ Policy = FullSharing{}

// Name implements Policy.
func (FullSharing) Name() string { return "full" }

// ReadsSnapshot implements Policy: the full model needs no baseline.
func (FullSharing) ReadsSnapshot() bool { return false }

// PrepareTrain implements Policy (no adjustment).
func (FullSharing) PrepareTrain(*model.TrainOptions, model.Recommender, *param.Set) {}

// Outgoing implements Policy: a deep copy of all parameters.
func (FullSharing) Outgoing(m model.Recommender, _ *param.Set, _ *rand.Rand, buf *param.Buffers) *param.Set {
	return buf.Clone(m.Params())
}

// ShareLess implements the §III-D policy: user embeddings never leave
// the device, and local updates to item embeddings are pulled towards
// their received values with strength Tau (Eq. 2).
type ShareLess struct {
	// Tau is the regularization factor τ of Eq. 2.
	Tau float64
}

var _ Policy = ShareLess{}

// Name implements Policy.
func (ShareLess) Name() string { return "share-less" }

// ReadsSnapshot implements Policy: the snapshot is the drift reference.
func (ShareLess) ReadsSnapshot() bool { return true }

// PrepareTrain implements Policy: enables the item-drift regularizer
// against the received payload. On the first round (no payload yet)
// the client regularizes against its own initial parameters, matching
// the paper's GL convention of using e_{j,u}^{t-1}.
func (p ShareLess) PrepareTrain(opt *model.TrainOptions, m model.Recommender, received *param.Set) {
	if p.Tau <= 0 {
		return
	}
	opt.DriftTau = p.Tau
	if received != nil && hasAll(received, m.ItemEntries()) {
		opt.DriftRef = received
	} else {
		opt.DriftRef = m.Params().Clone()
	}
}

// Outgoing implements Policy: every entry except the model's private
// (user-embedding) entries.
func (ShareLess) Outgoing(m model.Recommender, _ *param.Set, _ *rand.Rand, buf *param.Buffers) *param.Set {
	return buf.CloneWithout(m.Params(), m.PrivateEntries()...)
}

func hasAll(s *param.Set, names []string) bool {
	for _, n := range names {
		if !s.Has(n) {
			return false
		}
	}
	return true
}

// DPSGD implements user-level local differential privacy (§III-E):
// per-example gradients are clipped to Clip during local SGD, the
// whole local update (current − prev) is clipped to Clip again, and
// Gaussian noise N(0, (NoiseMultiplier·Clip)²) is added to every
// coordinate of the shared update.
type DPSGD struct {
	// Clip is the L2 clipping threshold C (the paper uses 2).
	Clip float64
	// NoiseMultiplier is ι; the per-coordinate noise std is ι·C.
	NoiseMultiplier float64
}

var _ Policy = DPSGD{}

// Name implements Policy.
func (DPSGD) Name() string { return "dp-sgd" }

// ReadsSnapshot implements Policy: the snapshot is the delta baseline.
func (DPSGD) ReadsSnapshot() bool { return true }

// PrepareTrain implements Policy: enables per-example clipping.
func (p DPSGD) PrepareTrain(opt *model.TrainOptions, _ model.Recommender, _ *param.Set) {
	opt.PerExampleClip = p.Clip
}

// Outgoing implements Policy: prev + clip(Δ) + noise, over all entries.
func (p DPSGD) Outgoing(m model.Recommender, prev *param.Set, rng *rand.Rand, buf *param.Buffers) *param.Set {
	if prev == nil {
		panic("defense: DPSGD.Outgoing requires the pre-training snapshot")
	}
	delta := buf.Clone(m.Params())
	delta.Axpy(-1, prev)
	delta.ClipL2(p.Clip)
	if p.NoiseMultiplier > 0 {
		delta.AddNoise(rng.NormFloat64, p.NoiseMultiplier*p.Clip)
	}
	out := buf.Clone(prev)
	out.Axpy(1, delta)
	buf.Put(delta)
	return out
}
