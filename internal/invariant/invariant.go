// Package invariant holds the service's two oracles. Rounds (rounds.go)
// checks that replicas agree on every CCS round. Checker checks what clients
// read, with happened-before ordering only (no global clock):
//
//   - staleness: a reading's interval [clock−bound, clock+bound] must reach
//     the highest lower bound of any reading that completed before this one
//     was requested — the true group clock only advances, so otherwise the
//     advertised bound lies. The floor spans every replica the Checker
//     observes; federated groups share one, independent groups do not.
//   - regression: one replica's served clock never runs backwards between
//     two of its readings ordered by the observer. Replicas are keyed by
//     (group, node): wire node ids are only unique within one group.
//
// Lease answers carry their bound; a CCS read is exact, so its bound is 0
// and the staleness floor is the real-time check of a monotone register: a
// read invoked after another returned must not return less.
//
// A floor is compared against a reading only if it was recorded BEFORE that
// reading's request was sent, so the server-side read it reflects strictly
// preceded this one. The discipline is: Snap, send (or sample), Observe every
// answer against that snapshot. Comparing readings by receipt order would be
// unsound — receipt order is not generation order.
//
// One Checker serves concurrent observers (ctsload's workers, one Snapshot
// each), single-goroutine pass-wise monitors (the campaigns: one Snap at the
// start of a sample pass, one Observe per replica) and simulated clients (one
// Snap per invocation, one Observe per reply).
package invariant

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Key identifies one replica across replica groups.
type Key struct{ Group, Node uint32 }

// floors are one replica's contributions to the checks: the highest clock it
// served and the highest clock−bound.
type floors struct{ clock, lower atomic.Int64 }

// table maps replicas to their floors. Tables are immutable once published;
// a new replica publishes a grown copy, so readers never lock.
type table struct {
	index  map[Key]int
	keys   []Key // by table index
	floors []*floors
}

// Checker accumulates the floors, counts violations and keeps the first
// witness. The zero value is ready to use; all methods are safe for
// concurrent use.
type Checker struct {
	tab         atomic.Pointer[table]
	grow        sync.Mutex // serializes table growth
	staleness   atomic.Uint64
	regressions atomic.Uint64
	first       atomic.Pointer[Witness]
}

// Witness is the first reading that broke a floor: the reading, the floor
// and the replica whose earlier reading set it. For Regression that replica
// is Key itself.
type Witness struct {
	Kind         Violation // Staleness or Regression
	Key          Key
	Clock, Bound time.Duration
	Floor        time.Duration
	FloorKey     Key
}

func (w Witness) String() string {
	if w.Kind == Regression {
		return fmt.Sprintf("regression: group %d node %d served %v (bound %v) after serving %v",
			w.Key.Group, w.Key.Node, w.Clock, w.Bound, w.Floor)
	}
	return fmt.Sprintf("staleness: group %d node %d served %v (bound %v), below the floor %v set by group %d node %d",
		w.Key.Group, w.Key.Node, w.Clock, w.Bound, w.Floor, w.FloorKey.Group, w.FloorKey.Node)
}

// Snapshot is an observer's pre-send view of every floor. Reuse one per
// observer: Snap recycles its buffer.
type Snapshot struct {
	lower   int64
	lowerBy Key     // the replica that set lower; zero for the initial 0
	clocks  []int64 // by table index; replicas first seen later have no floor
}

// Snap records the floors that readings requested from now on must respect.
func (c *Checker) Snap(s *Snapshot) {
	s.lower, s.lowerBy = 0, Key{}
	s.clocks = s.clocks[:0]
	if t := c.tab.Load(); t != nil {
		for i, f := range t.floors {
			if l := f.lower.Load(); l > s.lower {
				s.lower, s.lowerBy = l, t.keys[i]
			}
			s.clocks = append(s.clocks, f.clock.Load())
		}
	}
}

// Observe validates one reading against the snapshot taken before its
// request was sent, then folds it into the live floors.
func (c *Checker) Observe(pre *Snapshot, k Key, clock, bound time.Duration) {
	g, b := int64(clock), int64(bound)
	i, f := c.replica(k)
	if g+b < pre.lower {
		c.violate(&c.staleness, Witness{Kind: Staleness, Key: k, Clock: clock, Bound: bound,
			Floor: time.Duration(pre.lower), FloorKey: pre.lowerBy})
	}
	if i < len(pre.clocks) && g < pre.clocks[i] {
		c.violate(&c.regressions, Witness{Kind: Regression, Key: k, Clock: clock, Bound: bound,
			Floor: time.Duration(pre.clocks[i]), FloorKey: k})
	}
	raise(&f.clock, g)
	raise(&f.lower, g-b)
}

// violate keeps w if it is the first witness, then counts it: a count seen
// by Err is never without its witness.
func (c *Checker) violate(n *atomic.Uint64, w Witness) {
	c.first.CompareAndSwap(nil, &w)
	n.Add(1)
}

// Violations reports the staleness and regression violations counted so far.
func (c *Checker) Violations() (staleness, regressions uint64) {
	return c.staleness.Load(), c.regressions.Load()
}

// First reports the first witness, if any reading has broken a floor.
func (c *Checker) First() (Witness, bool) {
	if w := c.first.Load(); w != nil {
		return *w, true
	}
	return Witness{}, false
}

// Err is nil while no reading has broken a floor, else it names the counts
// and the first witness.
func (c *Checker) Err() error {
	s, r := c.Violations()
	if s+r == 0 {
		return nil
	}
	w, _ := c.First()
	return fmt.Errorf("client oracle: %d staleness and %d regression violation(s), first: %v", s, r, w)
}

// replica finds k's table index and floors, registering k on first sight.
func (c *Checker) replica(k Key) (int, *floors) {
	if t := c.tab.Load(); t != nil {
		if i, ok := t.index[k]; ok {
			return i, t.floors[i]
		}
	}
	c.grow.Lock()
	defer c.grow.Unlock()
	old := c.tab.Load()
	if old == nil {
		old = &table{}
	} else if i, ok := old.index[k]; ok {
		return i, old.floors[i]
	}
	i := len(old.floors)
	t := &table{
		index:  make(map[Key]int, i+1),
		keys:   append(old.keys[:i:i], k),
		floors: append(old.floors[:i:i], new(floors)),
	}
	for key, idx := range old.index {
		t.index[key] = idx
	}
	t.index[k] = i
	c.tab.Store(t)
	return i, t.floors[i]
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
