package invariant

import (
	"sync"
	"testing"
	"time"
)

const (
	us = time.Microsecond
	ms = time.Millisecond
)

// exchange is one observer round trip: snapshot, then observe the readings
// that answered the request sent after it.
type reading struct {
	key          Key
	clock, bound time.Duration
}

func exchange(c *Checker, rs ...reading) {
	var pre Snapshot
	c.Snap(&pre)
	for _, r := range rs {
		c.Observe(&pre, r.key, r.clock, r.bound)
	}
}

func violations(t *testing.T, c *Checker, staleness, regressions uint64) {
	t.Helper()
	if s, r := c.Violations(); s != staleness || r != regressions {
		t.Fatalf("violations = staleness %d, regressions %d; want %d, %d", s, r, staleness, regressions)
	}
}

var (
	a1 = Key{Group: 0, Node: 1}
	a2 = Key{Group: 0, Node: 2}
	b1 = Key{Group: 1, Node: 1} // another group reusing node id 1
)

// An honest pair of replicas: clocks a few µs apart, bounds that cover the
// difference. Nothing trips, however long it runs.
func TestHonestReadingsPass(t *testing.T) {
	var c Checker
	for i := 0; i < 100; i++ {
		now := time.Duration(i) * ms
		exchange(&c, reading{a1, now, 80 * us}, reading{a2, now - 5*us, 80 * us})
	}
	violations(t, &c, 0, 0)
}

// Mutation: a lying lease. Replica 2 lags by 1ms but advertises a 10µs bound,
// so its interval ends below a lower bound replica 1 served in an earlier
// exchange.
func TestLyingLeaseTripsStaleness(t *testing.T) {
	var c Checker
	exchange(&c, reading{a1, 10 * ms, 10 * us})
	exchange(&c, reading{a2, 9 * ms, 10 * us})
	violations(t, &c, 1, 0)

	// The same lag with an honest bound is fine.
	var h Checker
	exchange(&h, reading{a1, 10 * ms, 10 * us})
	exchange(&h, reading{a2, 9 * ms, 2 * ms})
	violations(t, &h, 0, 0)
}

// Mutation: a regressing node. Its second answer is below its first, with a
// bound wide enough that staleness alone would not notice.
func TestRegressingNodeTrips(t *testing.T) {
	var c Checker
	exchange(&c, reading{a1, 10 * ms, ms})
	exchange(&c, reading{a1, 10*ms - us, ms})
	violations(t, &c, 0, 1)
	// The floor is the maximum served, not the last: a third answer between
	// the two still regresses.
	exchange(&c, reading{a1, 10*ms - us/2, ms})
	violations(t, &c, 0, 2)
}

// Two groups reuse node id 1. Group 1's replica runs 5ms behind group 0's
// (within its bound): keyed by node alone that is a phantom regression, keyed
// by (group, node) it is none — and each key still catches its own.
func TestCrossGroupNodeIDCollision(t *testing.T) {
	var c Checker
	exchange(&c, reading{a1, 20 * ms, 10 * ms})
	exchange(&c, reading{b1, 15 * ms, 10 * ms})
	violations(t, &c, 0, 0)
	exchange(&c, reading{b1, 14 * ms, 10 * ms})
	violations(t, &c, 0, 1)
	exchange(&c, reading{a1, 19 * ms, 10 * ms})
	violations(t, &c, 0, 2)
}

// A response may only be held to floors recorded BEFORE its request was
// sent. Observer X snapshots, then observer Y completes an exchange that
// raises both floors, then X's response — generated before Y's — arrives.
// Against the live floors it would be both stale and a regression; against
// X's pre-send snapshot it is neither.
func TestFloorRecordedAfterSendDoesNotApply(t *testing.T) {
	var c Checker
	exchange(&c, reading{a1, 10 * ms, 10 * us})

	var x Snapshot
	c.Snap(&x)
	exchange(&c, reading{a1, 12 * ms, 10 * us}) // observer Y, after X's send
	c.Observe(&x, a1, 11*ms, 10*us)
	violations(t, &c, 0, 0)

	// Once X snapshots again, the same reading is held to Y's floors.
	c.Snap(&x)
	c.Observe(&x, a1, 11*ms, 10*us)
	violations(t, &c, 1, 1)
}

// Readings of one pass are never compared with each other: the campaign
// monitors read every node at one virtual instant, and simultaneous
// cross-node comparison would demand worst-case bounds.
func TestSamePassReadingsNotCompared(t *testing.T) {
	var c Checker
	exchange(&c, reading{a1, 10 * ms, us}, reading{a2, 9 * ms, us}, reading{a1, 8 * ms, us})
	violations(t, &c, 0, 0)
}

// A replica first seen after the snapshot has no regression floor in it.
func TestReplicaUnknownAtSnapshot(t *testing.T) {
	var c Checker
	var pre Snapshot
	c.Snap(&pre)
	exchange(&c, reading{a2, 10 * ms, ms})
	c.Observe(&pre, a2, 9*ms, ms)
	violations(t, &c, 0, 0)
}

// Concurrent observers, each with its own snapshot, over a table that keeps
// growing: the race detector checks the lock-free read path, the counts check
// that honest monotone readings never trip.
func TestConcurrentObservers(t *testing.T) {
	var c Checker
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var pre Snapshot
			for i := 0; i < 2000; i++ {
				c.Snap(&pre)
				k := Key{Group: uint32(w % 2), Node: uint32(i % 50)}
				c.Observe(&pre, k, time.Hour, ms) // constant clock: never stale, never regressing
			}
		}(w)
	}
	wg.Wait()
	violations(t, &c, 0, 0)
	if n := len(c.tab.Load().clocks); n != 100 {
		t.Fatalf("table holds %d replicas, want 100", n)
	}
}
