package defense_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// recordingPolicy wraps a policy and checks the pre-training snapshot
// the simulators hand it: PrepareTrain's received must hold the model's
// parameters at that moment, and Outgoing's prev the parameters the
// model's last PrepareTrain saw (or the model's initial ones, seeded
// before the run). A snapshot may be nil only when the policy does not
// read it, and must be nil then unless a Byzantine plan is active
// (adversaries get one whatever the policy).
type recordingPolicy struct {
	defense.Policy
	t   *testing.T
	byz bool

	mu    sync.Mutex
	hist  map[model.Recommender][]*param.Set // per model, every pre-training state
	order []*param.Set                       // every pre-training state, in PrepareTrain call order
	seen  int                                // snapshots checked
}

func newRecordingPolicy(t *testing.T, inner defense.Policy, byz bool) *recordingPolicy {
	return &recordingPolicy{Policy: inner, t: t, byz: byz, hist: map[model.Recommender][]*param.Set{}}
}

func (p *recordingPolicy) seed(m model.Recommender) {
	p.hist[m] = append(p.hist[m], m.Params().Clone())
}

func (p *recordingPolicy) PrepareTrain(opt *model.TrainOptions, m model.Recommender, received *param.Set) {
	p.mu.Lock()
	state := m.Params().Clone()
	p.hist[m] = append(p.hist[m], state)
	p.order = append(p.order, state)
	p.check("PrepareTrain", received, state)
	p.mu.Unlock()
	p.Policy.PrepareTrain(opt, m, received)
}

func (p *recordingPolicy) Outgoing(m model.Recommender, prev *param.Set, rng *rand.Rand, buf *param.Buffers) *param.Set {
	p.mu.Lock()
	h := p.hist[m]
	if len(h) == 0 {
		p.t.Error("Outgoing before any recorded pre-training state")
	} else {
		p.check("Outgoing", prev, h[len(h)-1])
	}
	p.mu.Unlock()
	return p.Policy.Outgoing(m, prev, rng, buf)
}

func (p *recordingPolicy) check(where string, snap, want *param.Set) {
	reads := p.Policy.ReadsSnapshot()
	switch {
	case snap == nil && reads:
		p.t.Errorf("%s: no snapshot", where)
	case snap != nil && !reads && !p.byz:
		p.t.Errorf("%s: got a snapshot the policy does not read", where)
	case snap != nil && !param.Equal(snap, want, 0):
		p.t.Errorf("%s: snapshot differs from the pre-training parameters", where)
	}
	p.seen++
}

// state returns the i-th pre-training state in call order, or the n-th
// of model m.
func (p *recordingPolicy) state(i int) *param.Set {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.order[i]
}

func (p *recordingPolicy) stateOf(m model.Recommender, n int) *param.Set {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hist[m][n]
}

// echoObserver checks that every Byzantine colluder's message, which
// echoes its snapshot, equals the pre-training state want returns.
type echoObserver struct {
	t      *testing.T
	byz    *attack.Byzantine
	want   func(round, from int) *param.Set
	echoes int
}

func (o *echoObserver) observe(round, from int, params *param.Set) {
	want := o.want(round, from)
	if o.byz == nil || !o.byz.IsAdversary(from) {
		return
	}
	o.echoes++
	if !param.Equal(params, want, 0) {
		o.t.Errorf("round %d: colluder %d did not echo its pre-training parameters", round, from)
	}
}

func snapshotDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 16, NumItems: 50, NumCommunities: 2,
		MeanItemsPerUser: 10, MinItemsPerUser: 4, Affinity: 0.9, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type snapshotCase struct {
	name   string
	policy defense.Policy
	byz    *attack.Byzantine
}

func snapshotCases() []snapshotCase {
	colluders := &attack.Byzantine{Kind: attack.ByzCollude, Fraction: 0.5, Seed: 3}
	return []snapshotCase{
		{"dp-sgd", defense.DPSGD{Clip: 2, NoiseMultiplier: 0.1}, nil},
		{"topk-sparsify", defense.TopKSparsify{Fraction: 0.3}, nil},
		{"share-less", defense.ShareLess{Tau: 0.5}, nil},
		{"full", defense.FullSharing{}, nil},
		{"full+colluders", defense.FullSharing{}, colluders},
	}
}

// Skipping the snapshot for policies that do not read it must leave
// every reader — DP-SGD, top-k sparsification, Share-less and
// Byzantine adversaries — with a snapshot equal to the pre-training
// parameters, on FedAvg and on gossip.
func TestSnapshotReachesEveryReader(t *testing.T) {
	d := snapshotDataset(t)
	const rounds = 3
	for _, c := range snapshotCases() {
		t.Run("fed/"+c.name, func(t *testing.T) {
			workers := 3
			if c.byz != nil {
				// Uploads pair with PrepareTrain calls by order only
				// when one worker trains the clients in sampling order.
				workers = 1
			}
			p := newRecordingPolicy(t, c.policy, c.byz != nil)
			var uploads int
			obs := &echoObserver{t: t, byz: c.byz}
			obs.want = func(_, _ int) *param.Set {
				uploads++
				return p.state(uploads - 1)
			}
			sim, err := fed.New(fed.Config{
				Dataset: d, Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 4),
				Policy: p, Rounds: rounds, Train: model.TrainOptions{Epochs: 1},
				Seed: 5, Workers: workers, Byzantine: c.byz, Observer: fedEcho{obs},
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run()
			if p.seen != 2*rounds*d.NumUsers {
				t.Fatalf("checked %d snapshots, want %d", p.seen, 2*rounds*d.NumUsers)
			}
			if c.byz != nil && obs.echoes == 0 {
				t.Fatal("no colluder upload observed")
			}
		})
		t.Run("gossip/"+c.name, func(t *testing.T) {
			p := newRecordingPolicy(t, c.policy, c.byz != nil)
			obs := &echoObserver{t: t, byz: c.byz}
			sim, err := gossip.New(gossip.Config{
				Dataset: d, Factory: model.NewGMFFactory(d.NumUsers, d.NumItems, 4),
				Policy: p, Rounds: rounds, Train: model.TrainOptions{Epochs: 1},
				Seed: 5, Workers: 3, Byzantine: c.byz, Observer: gossipEcho{obs},
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]model.Recommender, d.NumUsers)
			for u := range nodes {
				nodes[u] = sim.Node(u)
				p.seed(nodes[u])
			}
			obs.want = func(round, from int) *param.Set { return p.stateOf(nodes[from], round) }
			sim.Run()
			if p.seen != 2*rounds*d.NumUsers {
				t.Fatalf("checked %d snapshots, want %d", p.seen, 2*rounds*d.NumUsers)
			}
			if c.byz != nil && obs.echoes == 0 {
				t.Fatal("no colluder push observed")
			}
		})
	}
}

type fedEcho struct{ *echoObserver }

func (o fedEcho) OnUpload(msg fed.Message) { o.observe(msg.Round, msg.From, msg.Params) }
func (fedEcho) OnRoundEnd(int)             {}

type gossipEcho struct{ *echoObserver }

func (o gossipEcho) OnReceive(msg gossip.Message) { o.observe(msg.Round, msg.From, msg.Params) }
func (gossipEcho) OnRoundEnd(int)                 {}
