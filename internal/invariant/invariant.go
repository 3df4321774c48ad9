// Package invariant holds the service's two oracles. Rounds (rounds.go)
// checks that replicas agree on every CCS round. Checker checks the lease
// plane's two client-visible promises with happened-before ordering only (no
// global clock):
//
//   - staleness: a reading's interval [clock−bound, clock+bound] must reach
//     the highest lower bound of any reading that completed before this one
//     was requested — the true group clock only advances, so otherwise the
//     advertised bound lies. The floor is global, across replicas and across
//     federated groups.
//   - regression: one replica's served clock never runs backwards between
//     two of its readings ordered by the observer. Replicas are keyed by
//     (group, node): wire node ids are only unique within one group.
//
// A floor is compared against a reading only if it was recorded BEFORE that
// reading's request was sent, so the server-side read it reflects strictly
// preceded this one. The discipline is: Snap, send (or sample), Observe every
// answer against that snapshot. Comparing readings by receipt order would be
// unsound — receipt order is not generation order.
//
// One Checker serves concurrent observers (ctsload's workers, one Snapshot
// each) and single-goroutine pass-wise monitors (the campaigns: one Snap at
// the start of a sample pass, one Observe per replica).
package invariant

import (
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one replica across replica groups.
type Key struct{ Group, Node uint32 }

// table maps replicas to their regression floors. Tables are immutable once
// published; a new replica publishes a grown copy, so readers never lock.
type table struct {
	index  map[Key]int
	clocks []*atomic.Int64 // per replica: highest clock served
}

// Checker accumulates the floors and counts violations. The zero value is
// ready to use; all methods are safe for concurrent use.
type Checker struct {
	lower       atomic.Int64 // highest clock−bound of any observed reading
	tab         atomic.Pointer[table]
	grow        sync.Mutex // serializes table growth
	staleness   atomic.Uint64
	regressions atomic.Uint64
}

// Snapshot is an observer's pre-send view of every floor. Reuse one per
// observer: Snap recycles its buffer.
type Snapshot struct {
	lower  int64
	clocks []int64 // by table index; replicas first seen later have no floor
}

// Snap records the floors that readings requested from now on must respect.
func (c *Checker) Snap(s *Snapshot) {
	s.lower = c.lower.Load()
	s.clocks = s.clocks[:0]
	if t := c.tab.Load(); t != nil {
		for _, f := range t.clocks {
			s.clocks = append(s.clocks, f.Load())
		}
	}
}

// Observe validates one reading against the snapshot taken before its
// request was sent, then folds it into the live floors.
func (c *Checker) Observe(pre *Snapshot, k Key, clock, bound time.Duration) {
	g, b := int64(clock), int64(bound)
	if g+b < pre.lower {
		c.staleness.Add(1)
	}
	i, floor := c.replica(k)
	if i < len(pre.clocks) && g < pre.clocks[i] {
		c.regressions.Add(1)
	}
	raise(floor, g)
	raise(&c.lower, g-b)
}

// Violations reports the staleness and regression violations counted so far.
func (c *Checker) Violations() (staleness, regressions uint64) {
	return c.staleness.Load(), c.regressions.Load()
}

// replica finds k's table index and floor, registering k on first sight.
func (c *Checker) replica(k Key) (int, *atomic.Int64) {
	if t := c.tab.Load(); t != nil {
		if i, ok := t.index[k]; ok {
			return i, t.clocks[i]
		}
	}
	c.grow.Lock()
	defer c.grow.Unlock()
	old := c.tab.Load()
	if old == nil {
		old = &table{}
	} else if i, ok := old.index[k]; ok {
		return i, old.clocks[i]
	}
	i := len(old.clocks)
	t := &table{
		index:  make(map[Key]int, i+1),
		clocks: append(append(make([]*atomic.Int64, 0, i+1), old.clocks...), new(atomic.Int64)),
	}
	for key, idx := range old.index {
		t.index[key] = idx
	}
	t.index[k] = i
	c.tab.Store(t)
	return i, t.clocks[i]
}

// raise lifts f to at least v.
func raise(f *atomic.Int64, v int64) {
	for {
		prev := f.Load()
		if v <= prev || f.CompareAndSwap(prev, v) {
			return
		}
	}
}
