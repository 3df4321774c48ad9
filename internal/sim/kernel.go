package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Kernel is a deterministic discrete-event simulation kernel. Events execute
// in (time, insertion-order) sequence on the goroutine that calls Run,
// RunUntil or Step. Given the same seed and the same sequence of scheduling
// calls, a simulation replays identically.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	mu   sync.Mutex
	now  atomic.Int64 // virtual time; written under mu, read lock-free by Now
	q    eventQueue
	seq  uint64
	rng  *rand.Rand
	halt bool
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current virtual time.
func (k *Kernel) Now() time.Duration { return time.Duration(k.now.Load()) }

// RNG returns the kernel's deterministic random source. It must only be used
// from event callbacks (they run serially), never concurrently.
func (k *Kernel) RNG() *rand.Rand { return k.rng }

// After schedules fn at Now()+d. A negative d is treated as zero.
func (k *Kernel) After(d time.Duration, fn func()) Canceler {
	if d < 0 {
		d = 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.scheduleLocked(k.Now()+d, fn)
}

// At schedules fn at absolute virtual time t. Times in the past run at the
// current time.
func (k *Kernel) At(t time.Duration, fn func()) Canceler {
	k.mu.Lock()
	defer k.mu.Unlock()
	if now := k.Now(); t < now {
		t = now
	}
	return k.scheduleLocked(t, fn)
}

// Post schedules fn at the current virtual time, after events already
// scheduled for that time.
func (k *Kernel) Post(fn func()) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.scheduleLocked(k.Now(), fn)
}

func (k *Kernel) scheduleLocked(t time.Duration, fn func()) *event {
	ev := &event{at: t, seq: k.seq, fn: fn}
	k.seq++
	k.q.push(ev)
	return ev
}

// Step executes the next pending event, advancing virtual time to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	k.mu.Lock()
	for len(k.q) > 0 {
		ev := k.q.pop()
		if ev.cancelled {
			continue
		}
		k.now.Store(int64(ev.at))
		ev.done = true
		fn := ev.fn
		ev.fn = nil
		k.mu.Unlock()
		fn()
		return true
	}
	k.mu.Unlock()
	return false
}

// Run executes events until the queue drains or Halt is called.
func (k *Kernel) Run() {
	for !k.halted() && k.Step() {
	}
	k.setHalt(false)
}

// RunUntil executes events with timestamps <= t, then advances virtual time
// to t — except that it can overshoot. The stop test looks at the head of
// the queue without discarding cancelled events, so when the head is a
// cancelled event at or before t, Step skips it and runs the next live event
// even if that one lies beyond t, and Now() is then that event's time, not t.
// (Totem cancels two timers per token visit, so under it the head usually is
// a cancelled event.) Callers that need to stop at exactly t cannot rely on
// this; ROADMAP item 3 records the defect and what fixing it moves.
func (k *Kernel) RunUntil(t time.Duration) {
	for {
		k.mu.Lock()
		if k.halt || len(k.q) == 0 || k.q[0].at > t {
			if k.Now() < t && !k.halt {
				k.now.Store(int64(t))
			}
			k.halt = false
			k.mu.Unlock()
			return
		}
		k.mu.Unlock()
		k.Step()
	}
}

// RunFor executes events for virtual duration d from the current time, with
// RunUntil's overshoot.
func (k *Kernel) RunFor(d time.Duration) {
	k.RunUntil(k.Now() + d)
}

// Halt stops a Run/RunUntil in progress after the current event completes.
// It is intended to be called from within an event callback.
func (k *Kernel) Halt() { k.setHalt(true) }

func (k *Kernel) setHalt(v bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.halt = v
}

func (k *Kernel) halted() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.halt
}

// Pending reports the number of events still queued (including cancelled
// events not yet discarded).
func (k *Kernel) Pending() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.q)
}

// event is a scheduled callback; it implements Canceler.
type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	done      bool
}

// Cancel implements Canceler. It is not safe for concurrent use with the
// kernel loop from other goroutines; call it from event callbacks.
func (e *event) Cancel() bool {
	if e.done || e.cancelled {
		return false
	}
	e.cancelled = true
	e.fn = nil
	return true
}

// eventQueue is a binary min-heap ordered by (at, seq). The order is total
// (seq is unique), so the pop sequence does not depend on the heap's layout.
type eventQueue []*event

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event of a non-empty queue.
func (q *eventQueue) pop() *event {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for child := 1; child < n; child = 2*i + 1 {
			if child+1 < n && h[child+1].before(h[child]) {
				child++
			}
			if !h[child].before(last) {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	*q = h
	return top
}
