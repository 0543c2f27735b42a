// Package gossip fixtures the mapiter analyzer: order-sensitive bodies
// under range-over-map are findings; a justified //lint:sorted
// sanctions a site; an unjustified directive does not.
package gossip

import (
	"math/rand/v2"
	"sort"
)

func badAppend(pool map[int]bool) []int {
	out := make([]int, 0, len(pool))
	for v := range pool { // want `appends to a slice declared outside the loop`
		out = append(out, v)
	}
	return out
}

func badFloatAccum(w map[int]float64) float64 {
	var total float64
	for k := range w { // want `accumulates floats in iteration order`
		total += w[k]
	}
	return total
}

func badRandDraw(pool map[int]bool, r *rand.Rand) int {
	last := -1
	for v := range pool { // want `consumes a threaded RNG stream`
		if r.IntN(2) == 0 {
			last = v
		}
	}
	return last
}

func badSend(pool map[int]bool, ch chan int) {
	for v := range pool { // want `sends on a channel`
		ch <- v
	}
}

type wire struct{}

func (wire) Send(v int) {}

func badSink(pool map[int]bool, w wire) {
	for v := range pool { // want `pushes into a transport/encoder \(Send\)`
		w.Send(v)
	}
}

// Counting is order-insensitive: no finding.
func okCount(pool map[int]bool) int {
	n := 0
	for range pool {
		n++
	}
	return n
}

func okSanctioned(pool map[int]bool) []int {
	out := make([]int, 0, len(pool))
	//lint:sorted keys are drained into a slice and sorted immediately below
	for v := range pool {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func badUnjustified(pool map[int]bool) []int {
	out := make([]int, 0, len(pool))
	//lint:sorted
	for v := range pool { // want `missing its justification`
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// badAnyKey is the "pick any member" shape: the first key wins, and
// which key comes first changes from run to run.
func badAnyKey(colluders map[int]struct{}) int {
	var anyC int
	for c := range colluders { // want `assigns the key or value to a variable declared outside the loop`
		anyC = c
		break
	}
	return anyC
}

// badLastValue keeps whichever value the iteration visits last.
func badLastValue(w map[int]float64) float64 {
	var last float64
	for _, v := range w { // want `assigns the key or value to a variable declared outside the loop`
		last = v
	}
	return last
}

// Writes into slots indexed by the key are keyed, not ordered: no
// finding.
func okKeyedWrite(w map[int]float64, out []float64) {
	for k, v := range w {
		out[k] = v
	}
}

func okSanctionedAnyKey(members map[int]struct{}) bool {
	found := false
	//lint:sorted only whether the map is non-empty escapes the loop, never which key was seen
	for k := range members {
		found = k >= 0
		break
	}
	return found
}
