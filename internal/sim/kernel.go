package sim

import (
	"math"
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
// There are three kinds of event and two queues. Timers (After, At) and
// deliveries (Deliver) go on a min-heap ordered by (at, seq). Posts go on
// the lane, a FIFO of callbacks due at the current instant: a Post always
// lands at Now() with the largest seq so far, so the lane is sorted by
// (at, seq) by construction and needs no heap, and since its entries are at
// Now() time cannot advance while it is non-empty. Step merges the two
// heads by (at, seq), which is exactly the order one heap holding every
// event would pop.
//
// The heap's slots hold no pointer. A timer's slot names its *event by an
// index into a kernel-owned slab; a delivery's slot names a registered Sink
// and the index the sink gave it, and needs nothing else because a delivery
// cannot be cancelled.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	mu  sync.Mutex
	now atomic.Int64 // virtual time; written under mu, read lock-free by Now
	q   eventQueue
	// compactAt is the heap length at which the next schedule first drops
	// cancelled timers from q (see compactLocked).
	compactAt int
	// timers[i] is the timer of the heap slot whose ref is i; the indices of
	// the nil entries are in free. Each After allocates its own *event, since
	// it is the Canceler the caller holds; only the index is reused.
	timers []*event
	free   []uint32
	sinks  []Sink   // sinks[id-1] is the sink RegisterSink numbered id
	lane   []posted // lane[head:] are the pending Posts, all due at Now()
	head   int
	seq    uint64
	rng    *rand.Rand
	halt   bool
}

// Sink receives the deliveries scheduled for it with Deliver.
type Sink interface {
	// Fire runs the delivery the sink numbered idx when it scheduled it.
	Fire(idx uint32)
}

// posted is one lane entry. Posts cannot be cancelled, so it needs no more.
type posted struct {
	seq uint64
	fn  func()
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
	k.lane = append(k.lane, posted{seq: k.seq, fn: fn})
	k.seq++
}

// RegisterSink adds s to the sinks Deliver can name and returns its id.
// Ids start at 1.
func (k *Kernel) RegisterSink(s Sink) uint32 {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.sinks = append(k.sinks, s)
	return uint32(len(k.sinks))
}

// Deliver schedules sink.Fire(idx) at Now()+d, ordered with timers and
// Posts exactly as After(d, ...) would be. A negative d is treated as zero.
// A delivery cannot be cancelled, and scheduling and running one allocates
// nothing.
func (k *Kernel) Deliver(d time.Duration, sink, idx uint32) {
	if sink == 0 {
		panic("sim: Deliver to sink 0; ids come from RegisterSink")
	}
	if d < 0 {
		d = 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.compactLocked()
	k.pushLocked(k.Now()+d, uint64(sink)<<32|uint64(idx))
}

func (k *Kernel) scheduleLocked(t time.Duration, fn func()) *event {
	k.compactLocked()
	ev := &event{fn: fn}
	var i uint32
	if n := len(k.free); n > 0 {
		i = k.free[n-1]
		k.free = k.free[:n-1]
		k.timers[i] = ev
	} else {
		i = uint32(len(k.timers))
		k.timers = append(k.timers, ev)
	}
	k.pushLocked(t, uint64(i))
	return ev
}

// compactLocked runs before every push onto the heap. Cancelled timers wait
// in the heap until they reach its head, and Totem cancels two per token
// visit, so most of a Totem run's heap can be dead entries deepening every
// push and pop. Whenever the heap has doubled since it last held only live
// events, drop the dead ones: amortised O(1) per schedule, and a heap of
// live events is never scanned again until it doubles.
func (k *Kernel) compactLocked() {
	if len(k.q) >= k.compactAt {
		k.dropCancelledLocked()
		k.compactAt = max(2*len(k.q), minCompact)
	}
}

func (k *Kernel) pushLocked(t time.Duration, ref uint64) {
	k.q.push(slot{at: t, seq: k.seq, ref: ref})
	k.seq++
}

// cancelledLocked reports whether ref names a cancelled timer.
func (k *Kernel) cancelledLocked(ref uint64) bool {
	return ref>>32 == 0 && k.timers[ref].cancelled
}

// releaseLocked returns the slab index of a timer that has left the heap.
func (k *Kernel) releaseLocked(ref uint64) {
	k.timers[ref] = nil
	k.free = append(k.free, uint32(ref))
}

// nextLocked reports when the next live event is due and whether it is the
// lane's head, discarding cancelled timers that would have run before it. It
// reports ok=false when nothing is pending.
func (k *Kernel) nextLocked() (at time.Duration, fromLane, ok bool) {
	laneLive := k.head < len(k.lane)
	for len(k.q) > 0 {
		s := k.q[0]
		if laneLive && (s.at != k.Now() || k.lane[k.head].seq < s.seq) {
			break // the lane's head comes first
		}
		if !k.cancelledLocked(s.ref) {
			return s.at, false, true
		}
		k.q.pop()
		k.releaseLocked(s.ref)
	}
	return k.Now(), laneLive, laneLive
}

// runLocked removes the event nextLocked chose, releases the lock and runs
// it.
func (k *Kernel) runLocked(fromLane bool) {
	var fn func()
	if fromLane {
		p := &k.lane[k.head]
		fn = p.fn
		p.fn = nil
		k.head++
		if k.head == len(k.lane) {
			k.lane, k.head = k.lane[:0], 0
		}
	} else {
		s := k.q.pop()
		k.now.Store(int64(s.at))
		if sink := s.ref >> 32; sink != 0 {
			dst := k.sinks[sink-1]
			k.mu.Unlock()
			dst.Fire(uint32(s.ref))
			return
		}
		ev := k.timers[s.ref]
		k.releaseLocked(s.ref)
		ev.done = true
		fn = ev.fn
		ev.fn = nil
	}
	k.mu.Unlock()
	fn()
}

// Step executes the next pending event, advancing virtual time to its
// timestamp. It reports whether an event was executed.
func (k *Kernel) Step() bool {
	k.mu.Lock()
	_, fromLane, ok := k.nextLocked()
	if !ok {
		k.mu.Unlock()
		return false
	}
	k.runLocked(fromLane)
	return true
}

// Run executes events until the queue drains or Halt is called.
func (k *Kernel) Run() {
	k.runThrough(math.MaxInt64)
}

// RunUntil executes every event due at or before t, then sets virtual time
// to t: afterwards Now() == t and no event due after t has run. When a
// callback calls Halt it returns at once instead, with Now() at that event.
// A t before Now() runs nothing and leaves the clock where it is.
func (k *Kernel) RunUntil(t time.Duration) {
	if !k.runThrough(t) {
		return
	}
	k.mu.Lock()
	if k.Now() < t {
		k.now.Store(int64(t))
	}
	k.mu.Unlock()
}

// runThrough executes every event due at or before t, reporting false if
// Halt stopped it first (and clearing the halt).
func (k *Kernel) runThrough(t time.Duration) bool {
	for {
		k.mu.Lock()
		if k.halt {
			k.halt = false
			k.mu.Unlock()
			return false
		}
		at, fromLane, ok := k.nextLocked()
		if !ok || at > t {
			k.mu.Unlock()
			return true
		}
		k.runLocked(fromLane)
	}
}

// RunFor executes events for virtual duration d from the current time; it
// is RunUntil(Now()+d).
func (k *Kernel) RunFor(d time.Duration) {
	k.RunUntil(k.Now() + d)
}

// Halt stops a Run/RunUntil in progress after the current event completes.
// It is intended to be called from within an event callback.
func (k *Kernel) Halt() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.halt = true
}

// Pending reports the number of events scheduled that have neither run nor
// been cancelled.
func (k *Kernel) Pending() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := len(k.lane) - k.head
	for _, s := range k.q {
		if !k.cancelledLocked(s.ref) {
			n++
		}
	}
	return n
}

// event is a scheduled timer; it implements Canceler.
type event struct {
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

// minCompact is the smallest heap length worth compacting.
const minCompact = 64

// slot is one heap entry: a timer when ref < 1<<32 (ref indexes
// Kernel.timers), otherwise a delivery (ref is sink<<32 | idx). It holds no
// pointer, so the garbage collector never scans the heap and moving a slot
// needs no write barrier.
type slot struct {
	at  time.Duration
	seq uint64
	ref uint64
}

// eventQueue is a binary min-heap ordered by (at, seq). The order is total
// (seq is unique), so the pop sequence does not depend on the heap's layout.
type eventQueue []slot

func (s slot) before(o slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

func (q *eventQueue) push(s slot) {
	h := append(*q, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = s
	*q = h
}

// pop removes and returns the earliest slot of a non-empty queue.
func (q *eventQueue) pop() slot {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h = h[:n]
	if n > 0 {
		h.down(0, last)
	}
	*q = h
	return top
}

// down places s at index i, or below it, restoring the heap order of the
// subtree rooted there.
func (h eventQueue) down(i int, s slot) {
	n := len(h)
	for child := 2*i + 1; child < n; child = 2*i + 1 {
		if child+1 < n && h[child+1].before(h[child]) {
			child++
		}
		if !h[child].before(s) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = s
}

// dropCancelledLocked removes every cancelled timer from the heap, frees its
// slab index, and rebuilds the heap. The order is total, so what pops next
// does not depend on the rebuilt layout.
func (k *Kernel) dropCancelledLocked() {
	h := k.q[:0]
	for _, s := range k.q {
		if k.cancelledLocked(s.ref) {
			k.releaseLocked(s.ref)
		} else {
			h = append(h, s)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
	k.q = h
}
