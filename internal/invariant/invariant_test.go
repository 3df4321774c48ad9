package invariant

import (
	"strings"
	"sync"
	"testing"
	"time"

	"cts/internal/testutil"
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
	if (c.Err() == nil) != (staleness+regressions == 0) {
		t.Fatalf("Err() = %v with %d violations", c.Err(), staleness+regressions)
	}
}

// first checks the first witness against want and that Err names it.
func first(t *testing.T, c *Checker, want Witness, text string) {
	t.Helper()
	if w, ok := c.First(); !ok || w != want {
		t.Fatalf("first witness = %+v (%v), want %+v", w, ok, want)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), text) {
		t.Fatalf("Err() = %v, want it to contain %q", err, text)
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
// exchange. The witness names both readings' replicas and the broken floor,
// and a later violation does not replace it.
func TestLyingLeaseTripsStaleness(t *testing.T) {
	var c Checker
	exchange(&c, reading{a1, 10 * ms, 10 * us})
	exchange(&c, reading{a2, 9 * ms, 10 * us})
	violations(t, &c, 1, 0)
	exchange(&c, reading{b1, 8 * ms, 10 * us})
	violations(t, &c, 2, 0)
	first(t, &c, Witness{Kind: Staleness, Key: a2, Clock: 9 * ms, Bound: 10 * us, Floor: 10*ms - 10*us, FloorKey: a1},
		"2 staleness and 0 regression violation(s), first: staleness: group 0 node 2 served 9ms (bound 10µs), below the floor 9.99ms set by group 0 node 1")

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
	first(t, &c, Witness{Kind: Regression, Key: a1, Clock: 10*ms - us, Bound: ms, Floor: 10 * ms, FloorKey: a1},
		"regression: group 0 node 1 served 9.999ms (bound 1ms) after serving 10ms")
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
// that honest monotone readings never trip. Then every observer breaks both
// floors at once: all sixteen violations count, and exactly one of them is
// the first witness.
func TestConcurrentObservers(t *testing.T) {
	var c Checker
	var wg sync.WaitGroup
	observers := func(last func(w int, pre *Snapshot)) {
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
				last(w, &pre)
			}(w)
		}
		wg.Wait()
	}
	observers(func(int, *Snapshot) {})
	violations(t, &c, 0, 0)
	if n := len(c.tab.Load().floors); n != 100 {
		t.Fatalf("table holds %d replicas, want 100", n)
	}
	observers(func(w int, pre *Snapshot) {
		c.Observe(pre, Key{Node: uint32(w)}, time.Hour-time.Duration(w+2)*ms, 0)
	})
	violations(t, &c, 8, 8)
	w, _ := c.First()
	if w.Kind != Staleness || w.Key.Group != 0 || w.Key.Node >= 8 || w.Clock != time.Hour-time.Duration(w.Key.Node+2)*ms ||
		w.Floor != time.Hour-ms || w.FloorKey.Node >= 50 {
		t.Fatalf("first witness = %+v, want one observer's stale reading", w)
	}
}

// On the clean path Snap and Observe allocate nothing: ctsload calls Observe
// once per response and the simulated clients once per reply.
func TestCheckerAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocs/op is perturbed by race-detector instrumentation")
	}
	var c Checker
	var pre Snapshot
	exchange(&c, reading{a1, ms, us}, reading{a2, ms, us}, reading{b1, ms, us})
	clock := ms
	if allocs := testing.AllocsPerRun(1000, func() {
		clock += us
		c.Snap(&pre)
		c.Observe(&pre, a2, clock, us)
	}); allocs != 0 {
		t.Fatalf("Snap+Observe allocate %.1f times per reading, want 0", allocs)
	}
	violations(t, &c, 0, 0)
}
