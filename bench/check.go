package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// maxCheckedNode bounds the replica ids the lease checker tracks; the
// benchmark's groups use ids 1..4.
const maxCheckedNode = 7

// leaseChecker verifies the lease plane's two promises across all load
// workers, using happened-before order only (the discipline of cmd/ctsload):
// a floor is compared against a response only when it was recorded before
// that response's request was sent, so the server-side read it reflects
// strictly preceded this one. Receipt order across workers is not
// generation order and is never compared.
type leaseChecker struct {
	// lowerFloor is the highest (group − bound) of any completed reading;
	// every reading sent later must advertise an interval reaching it,
	// or its bound lies.
	lowerFloor atomic.Int64
	// nodeFloor is the highest group clock each replica has served; a later
	// answer below it means that replica's served clock ran backwards.
	nodeFloor [maxCheckedNode + 1]atomic.Int64
}

// floors is one worker's pre-send view of every floor.
type floors struct {
	lower int64
	node  [maxCheckedNode + 1]int64
}

// preSend snapshots the floors a response to the next request must respect.
func (c *leaseChecker) preSend(f *floors) {
	f.lower = c.lowerFloor.Load()
	for i := range c.nodeFloor {
		f.node[i] = c.nodeFloor[i].Load()
	}
}

// onResponse checks one leased answer against the pre-send floors and folds
// it into them. fresh: the advertised interval reaches the staleness floor.
// monotone: the replica's served clock did not run backwards.
func (c *leaseChecker) onResponse(node uint32, group, bound time.Duration, pre *floors) (fresh, monotone bool) {
	g, b := int64(group), int64(bound)
	fresh = g+b >= pre.lower
	monotone = true
	if node <= maxCheckedNode {
		monotone = g >= pre.node[node]
		raise(&c.nodeFloor[node], g)
	}
	raise(&c.lowerFloor, g-b)
	return fresh, monotone
}

// raise lifts a to at least v.
func raise(a *atomic.Int64, v int64) {
	for {
		prev := a.Load()
		if v <= prev || a.CompareAndSwap(prev, v) {
			return
		}
	}
}

// checkAgreement is the paper's one promise: every replica observes the same
// group clock value for the same (thread, round). seqs is indexed
// [replica][thread][round].
func checkAgreement(seqs [][][]time.Duration) error {
	for r := 1; r < len(seqs); r++ {
		if len(seqs[r]) != len(seqs[0]) {
			return fmt.Errorf("replica %d ran %d threads, replica 1 ran %d", r+1, len(seqs[r]), len(seqs[0]))
		}
		for t := range seqs[0] {
			a, b := seqs[0][t], seqs[r][t]
			if len(a) != len(b) {
				return fmt.Errorf("thread %d: replica 1 completed %d rounds, replica %d completed %d", t, len(a), r+1, len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					return fmt.Errorf("thread %d round %d: replica 1 read %v, replica %d read %v", t, i+1, a[i], r+1, b[i])
				}
			}
		}
	}
	return nil
}

// checkIncreasing reports the first index at which vals runs backwards — or,
// when strict, fails to advance — and -1 if there is none.
func checkIncreasing(vals []time.Duration, strict bool) int {
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] || strict && vals[i] == vals[i-1] {
			return i
		}
	}
	return -1
}
