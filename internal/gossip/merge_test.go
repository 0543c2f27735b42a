package gossip

import (
	"fmt"
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// oracleAggregateInbox is a frozen copy of the inbox merge before it
// was fused into one pass per coordinate: an Axpy pass per message,
// then a Scale pass. Never edit it to follow gossip.go.
func oracleAggregateInbox(own *param.Set, inbox []Message, dropOwn bool) {
	for i := 0; i < own.Len(); i++ {
		oe := own.At(i)
		name := oe.Name
		if dropOwn {
			var cnt float64
			for _, msg := range inbox {
				if !msg.Params.Has(name) {
					continue
				}
				if cnt == 0 {
					copy(oe.Data, msg.Params.Get(name))
				} else {
					mathx.Axpy(1, msg.Params.Get(name), oe.Data)
				}
				cnt++
			}
			if cnt > 1 {
				mathx.Scale(1/cnt, oe.Data)
			}
			continue
		}
		cnt := 1.0
		for _, msg := range inbox {
			if !msg.Params.Has(name) {
				continue
			}
			mathx.Axpy(1, msg.Params.Get(name), oe.Data)
			cnt++
		}
		if cnt > 1 {
			mathx.Scale(1/cnt, oe.Data)
		}
	}
}

// spread overwrites every value of s with a random one whose magnitude
// ranges over six decades, so that any change to the order of the
// additions shows in the rounding.
func spread(s *param.Set, seed uint64) {
	r := mathx.NewRand(seed)
	for i := 0; i < s.Len(); i++ {
		for j := range s.At(i).Data {
			s.At(i).Data[j] = mathx.Normal(r, 0, 1) * math.Pow(10, float64(r.IntN(7)-3))
		}
	}
}

func TestMergeMatchesAxpyScale(t *testing.T) {
	m := model.NewGMF(7, 11, 5, 1)
	entries := m.Params().Names()
	for _, n := range []int{0, 1, 2, 3, 4, 5} {
		for _, dropOwn := range []bool{false, true} {
			for _, missing := range []bool{false, true} {
				t.Run(fmt.Sprintf("msgs=%d/dropOwn=%v/missing=%v", n, dropOwn, missing), func(t *testing.T) {
					base := m.Params().Clone()
					spread(base, 1)
					inbox := make([]Message, n)
					for i := range inbox {
						p := base.Clone()
						spread(p, uint64(10+i))
						if missing {
							// Message i lacks entry i, and every message
							// lacks the last entry.
							p = p.Without(entries[i%len(entries)], entries[len(entries)-1])
						}
						inbox[i] = Message{From: i, Params: p}
					}
					nd := &node{m: m.Clone(), inbox: inbox}
					nd.m.Params().CopyFrom(base)
					want := base.Clone()
					oracleAggregateInbox(want, inbox, dropOwn)
					(&Simulation{}).aggregateInbox(nd, dropOwn)
					got := nd.m.Params()
					for _, name := range entries {
						g, w := got.Get(name), want.Get(name)
						for j := range w {
							if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
								t.Fatalf("entry %s[%d] = %v, Axpy+Scale gives %v", name, j, g[j], w[j])
							}
						}
					}
				})
			}
		}
	}
}
