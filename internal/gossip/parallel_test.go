package gossip

import (
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// keepingObserver holds on to every payload of a round, with a
// snapshot taken on receipt, and checks in OnRoundEnd that none
// changed. It is unsynchronized on purpose: under -race, OnReceive
// calls from more than one goroutine, or overlapping OnRoundEnd, fail.
type keepingObserver struct {
	t     *testing.T
	round int
	kept  []Message
	snaps []*param.Set
	count int
}

func (o *keepingObserver) OnReceive(msg Message) {
	if msg.Round != o.round {
		o.t.Errorf("message of round %d delivered in round %d", msg.Round, o.round)
	}
	if n := len(o.kept); n > 0 && o.kept[n-1].From >= msg.From {
		o.t.Errorf("round %d: sender %d observed after %d", o.round, msg.From, o.kept[n-1].From)
	}
	o.kept = append(o.kept, msg)
	o.snaps = append(o.snaps, msg.Params.Clone())
}

func (o *keepingObserver) OnRoundEnd(round int) {
	for i, msg := range o.kept {
		if !param.Equal(msg.Params, o.snaps[i], 0) {
			o.t.Errorf("round %d: payload %d→%d changed before OnRoundEnd", round, msg.From, msg.To)
		}
	}
	o.count += len(o.kept)
	o.kept, o.snaps = o.kept[:0], o.snaps[:0]
	o.round++
}

// Payloads handed to OnReceive stay valid, unchanged, until OnRoundEnd,
// while the nodes aggregate and train alongside the observer.
func TestObserverPayloadsLiveUntilRoundEnd(t *testing.T) {
	d := gossipTestDataset(t)
	for _, backend := range []string{"inproc", "wire"} {
		for name, policy := range map[string]defense.Policy{
			"full":       defense.FullSharing{},
			"share-less": defense.ShareLess{Tau: 1},
		} {
			t.Run(backend+"/"+name, func(t *testing.T) {
				tr, err := transport.NewOptions(backend, transport.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer tr.Close()
				obs := &keepingObserver{t: t}
				cfg := gossipConfig(d)
				cfg.Policy = policy
				cfg.Workers = 4
				cfg.Transport = tr
				cfg.Observer = obs
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
				if obs.round != cfg.Rounds || obs.count != cfg.Rounds*d.NumUsers {
					t.Fatalf("saw %d rounds and %d messages, want %d and %d",
						obs.round, obs.count, cfg.Rounds, cfg.Rounds*d.NumUsers)
				}
			})
		}
	}
}
