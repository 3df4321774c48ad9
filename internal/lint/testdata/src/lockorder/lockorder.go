// Package lockorder exercises the lockorder rule's reporting shapes: an
// order cycle between two mutex classes, a self-cycle (re-acquiring a held
// mutex), a blocking hazard reached through a call while locked, a
// Broadcast-under-lock wakeup, and the negative — nested ordered acquisition
// through a call chain without any inversion. blocking.go covers every kind
// of blocking operation under a lock.
package lockorder

import "sync"

type pair struct {
	a, b sync.Mutex
	ch   chan int
	cond *sync.Cond
}

// lockAB and lockBA take the same two mutex classes in opposite orders: the
// classic inversion. One finding per cycle, at the earliest witness edge.

func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want: lockorder lock order cycle: lockorder.pair.a → lockorder.pair.b → lockorder.pair.a
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) lockBA() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// hazard blocks on a channel through a call made while holding p.a: the
// send is in push, which holds no lock itself.

func (p *pair) push() {
	p.ch <- 1
}

func (p *pair) hazard() {
	p.a.Lock()
	p.push() // want: lockorder channel send while lockorder.pair.a is held (chain: lockorder.pair.hazard → lockorder.pair.push)
	p.a.Unlock()
}

// wake stampedes every cond waiter into a mutex the caller still holds.

func (p *pair) wake() {
	p.a.Lock()
	p.cond.Broadcast() // want: lockorder sync.Cond.Broadcast while lockorder.pair.a is held
	p.a.Unlock()
}

// selfish re-acquires a mutex class it already holds: a self-cycle.

type selfish struct{ mu sync.Mutex }

func (s *selfish) relock() {
	s.mu.Lock()
	s.mu.Lock() // want: lockorder lock order cycle: lockorder.selfish.mu → lockorder.selfish.mu
	s.mu.Unlock()
	s.mu.Unlock()
}

// nested is the negative: outer is always taken before inner, including
// through the call chain, so the order graph has an edge but no cycle.

type nested struct {
	outer, inner sync.Mutex
}

func (n *nested) takeInner() {
	n.inner.Lock()
	n.inner.Unlock()
}

func (n *nested) outerThenInner() {
	n.outer.Lock()
	n.takeInner()
	n.outer.Unlock()
}
