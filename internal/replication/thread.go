package replication

import (
	"time"
)

// A logical thread executes application code that may block on
// non-deterministic operations (clock reads, sleeps) without blocking the
// event loop the replica runs on. Each logical thread is a goroutine in
// strict alternation with the loop: exactly one of them runs at any moment,
// handing control back and forth over unbuffered channels. This gives the
// application a natural blocking API (the paper's get_grp_clock_time blocks
// the calling thread) while keeping execution deterministic — the loop never
// proceeds while a thread is computing, and a thread only resumes when the
// loop decides it does, driven by the total message order.
//
// The paper requires threads to be "created during the initialization of a
// replica, or during runtime, in the same order at different replicas"; the
// Manager assigns thread identifiers in creation order, and creation happens
// inside deterministic execution, so identifiers agree across replicas.
//
// A thread's goroutine starts with its first work item: a replica that
// never executes anything (a campaign replica, a passive backup) parks no
// goroutine for its invocation thread.

// yield is what a thread hands to the loop when it stops running.
type yield struct {
	done   bool   // the submitted work item finished
	action func() // loop-side action to perform before the thread resumes
}

// thread is one logical thread. Its channels are made, and its goroutine
// started, by its first work item (runOnThread).
type thread struct {
	id      uint64
	workCh  chan func()
	yieldCh chan yield
}

func newThread(id uint64) *thread { return &thread{id: id} }

func (t *thread) run() {
	for f := range t.workCh {
		f()
		t.yieldCh <- yield{done: true}
	}
}

// close retires the thread goroutine, if it ever started. Must only be
// called while the thread is idle (not executing a work item).
func (t *thread) close() {
	if t.workCh != nil {
		close(t.workCh)
	}
}

// Ctx is the execution context handed to application code running on a
// logical thread. Its blocking methods suspend the logical thread while the
// replica's event loop keeps processing messages.
type Ctx struct {
	t *thread
	m *Manager
}

// ThreadID reports the logical thread identifier, identical at every replica
// for the same logical thread (§3.1: the CCS message carries the sending
// thread identifier).
func (c *Ctx) ThreadID() uint64 { return c.t.id }

// Manager returns the replica manager this context executes under.
func (c *Ctx) Manager() *Manager { return c.m }

// Call suspends the logical thread, runs action on the replica's event loop,
// and resumes the thread with the value eventually passed to complete.
// complete may be invoked synchronously by action or later from any loop
// event (e.g. a message delivery); it must be invoked exactly once.
//
// This is the primitive the consistent time service builds its interposed
// clock operations on: the clock read blocks the calling thread until the
// round's first CCS message is delivered (§3.2).
func (c *Ctx) Call(action func(complete func(v any))) any {
	resCh := make(chan any)
	c.t.yieldCh <- yield{action: func() {
		action(func(v any) { c.m.resumeThread(c.t, resCh, v) })
	}}
	return <-resCh
}

// Sleep suspends the logical thread for d of the runtime's time (virtual
// time under simulation). It models the application's processing delay —
// e.g. the paper's inserted busy-wait between consecutive clock operations.
func (c *Ctx) Sleep(d time.Duration) {
	c.Call(func(complete func(any)) {
		c.m.rt.After(d, func() { complete(nil) })
	})
}

// runOnThread hands f to the thread, starting it on its first work item,
// and processes its first yield. Called on the loop.
func (m *Manager) runOnThread(t *thread, f func()) {
	if t.workCh == nil {
		t.workCh, t.yieldCh = make(chan func()), make(chan yield)
		go t.run()
	}
	t.workCh <- f
	m.dispatchYield(t, <-t.yieldCh)
}

// resumeThread delivers a Call result and processes the thread's next yield.
// Called on the loop.
func (m *Manager) resumeThread(t *thread, resCh chan any, v any) {
	resCh <- v
	m.dispatchYield(t, <-t.yieldCh)
}

func (m *Manager) dispatchYield(t *thread, y yield) {
	switch {
	case y.done:
		m.onThreadDone(t)
	case y.action != nil:
		y.action()
	}
}
