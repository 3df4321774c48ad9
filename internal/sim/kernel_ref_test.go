package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cts/internal/testutil"
)

// refKernel is the heap-only kernel the two-lane Kernel replaced, kept as the
// reference model: every event, Posts and deliveries included, is an
// *refEvent on one (at, seq) min-heap, and a delivery is a closure calling
// its sink. Its RunUntil pops cancelled heads before peeking, so it stops
// exactly at t.
type refKernel struct {
	now   time.Duration
	q     []*refEvent
	seq   uint64
	halt  bool
	sinks []Sink
}

type refEvent struct {
	at              time.Duration
	seq             uint64
	fn              func()
	cancelled, done bool
}

func (e *refEvent) Cancel() bool {
	if e.done || e.cancelled {
		return false
	}
	e.cancelled = true
	e.fn = nil
	return true
}

func (e *refEvent) before(o *refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (k *refKernel) Now() time.Duration { return k.now }

func (k *refKernel) After(d time.Duration, fn func()) Canceler {
	if d < 0 {
		d = 0
	}
	return k.schedule(k.now+d, fn)
}

func (k *refKernel) At(t time.Duration, fn func()) Canceler {
	if t < k.now {
		t = k.now
	}
	return k.schedule(t, fn)
}

func (k *refKernel) Post(fn func()) { k.schedule(k.now, fn) }

func (k *refKernel) RegisterSink(s Sink) uint32 {
	k.sinks = append(k.sinks, s)
	return uint32(len(k.sinks))
}

func (k *refKernel) Deliver(d time.Duration, sink, idx uint32) {
	s := k.sinks[sink-1]
	k.After(d, func() { s.Fire(idx) })
}

func (k *refKernel) schedule(t time.Duration, fn func()) *refEvent {
	ev := &refEvent{at: t, seq: k.seq, fn: fn}
	k.seq++
	k.q = append(k.q, ev)
	for i := len(k.q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !k.q[i].before(k.q[parent]) {
			break
		}
		k.q[i], k.q[parent] = k.q[parent], k.q[i]
		i = parent
	}
	return ev
}

func (k *refKernel) pop() *refEvent {
	top, n := k.q[0], len(k.q)-1
	k.q[0] = k.q[n]
	k.q = k.q[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && k.q[l].before(k.q[m]) {
			m = l
		}
		if r < n && k.q[r].before(k.q[m]) {
			m = r
		}
		if m == i {
			break
		}
		k.q[i], k.q[m] = k.q[m], k.q[i]
		i = m
	}
	return top
}

func (k *refKernel) Step() bool {
	for len(k.q) > 0 {
		ev := k.pop()
		if ev.cancelled {
			continue
		}
		k.now = ev.at
		ev.done = true
		fn := ev.fn
		ev.fn = nil
		fn()
		return true
	}
	return false
}

func (k *refKernel) Run() {
	for !k.halt && k.Step() {
	}
	k.halt = false
}

func (k *refKernel) RunUntil(t time.Duration) {
	for {
		if k.halt {
			k.halt = false
			return
		}
		for len(k.q) > 0 && k.q[0].cancelled {
			k.pop()
		}
		if len(k.q) == 0 || k.q[0].at > t {
			if k.now < t {
				k.now = t
			}
			return
		}
		k.Step()
	}
}

func (k *refKernel) Halt() { k.halt = true }

func (k *refKernel) Pending() int {
	n := 0
	for _, ev := range k.q {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// kernelAPI is what the model test drives, implemented by both kernels.
type kernelAPI interface {
	Now() time.Duration
	After(time.Duration, func()) Canceler
	At(time.Duration, func()) Canceler
	Post(func())
	RegisterSink(Sink) uint32
	Deliver(time.Duration, uint32, uint32)
	Run()
	RunUntil(time.Duration)
	Halt()
	Pending() int
}

// sinkFunc adapts a function to Sink.
type sinkFunc func(idx uint32)

func (f sinkFunc) Fire(idx uint32) { f(idx) }

// kernelScript drives k with a random mix of scheduling calls made from
// inside callbacks and deliveries, and returns one line per observation:
// every callback and delivery with the Now() and Pending() it saw, every
// Cancel's result, and the clock and Pending() after every Run/RunUntil. Two
// kernels that order events alike produce the same script from the same
// seed.
func kernelScript(k kernelAPI, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	var handles []Canceler
	next := 0
	var spawn func()
	body := func(id int) {
		out = append(out, fmt.Sprintf("run %d at %v pending %d", id, k.Now(), k.Pending()))
		for i := 1 + rng.Intn(2); i > 0 && next < 2000; i-- {
			spawn()
		}
		switch r := rng.Intn(20); {
		case r < 3 && len(handles) > 0:
			h := rng.Intn(len(handles))
			out = append(out, fmt.Sprintf("cancel %d -> %v", h, handles[h].Cancel()))
		case r == 3:
			k.Halt()
		}
	}
	// Two sinks, so a delivery that reached the wrong one shows.
	var sinks [2]uint32
	for i := range sinks {
		i := i
		sinks[i] = k.RegisterSink(sinkFunc(func(idx uint32) {
			out = append(out, fmt.Sprintf("sink %d fires", i))
			body(int(idx))
		}))
	}
	spawn = func() {
		id := next
		next++
		fn := func() { body(id) }
		us := time.Duration(rng.Intn(4)) * time.Microsecond
		switch rng.Intn(7) {
		case 0:
			k.Post(fn)
		case 1:
			handles = append(handles, k.After(0, fn))
		case 2:
			handles = append(handles, k.After(us, fn))
		case 3:
			handles = append(handles, k.At(k.Now()-us, fn))
		case 4:
			handles = append(handles, k.At(k.Now()+us, fn))
		default: // a delay of -2µs..1µs: negative ones deliver now
			k.Deliver(us-2*time.Microsecond, sinks[rng.Intn(2)], uint32(id))
		}
	}
	for i := 0; i < 5; i++ {
		spawn()
	}
	for k.Pending() > 0 {
		if rng.Intn(2) == 0 {
			k.Run()
		} else {
			k.RunUntil(k.Now() + time.Duration(rng.Intn(3))*time.Microsecond)
		}
		out = append(out, fmt.Sprintf("stop at %v pending %d", k.Now(), k.Pending()))
	}
	return out
}

// TestKernelMatchesReferenceModel: the two-lane kernel runs the same events
// in the same order, at the same instants, with the same number of events
// pending, as the heap-only kernel, over 50 random scripts mixing Post,
// After(0), After(d), At in the past and future, Deliver to two sinks with
// zero, positive and negative delays, Cancel of pending and finished
// events, and Halt.
func TestKernelMatchesReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		got := kernelScript(NewKernel(seed), seed)
		want := kernelScript(&refKernel{}, seed)
		if len(got) < 100 {
			t.Fatalf("seed %d: script of %d lines exercises too little", seed, len(got))
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d diverges at line %d: kernel %q, reference %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: kernel script has %d lines, reference %d", seed, len(got), len(want))
		}
	}
}

// TestKernelRunUntilIsExact: after RunUntil(t), Now() == t and no event due
// after t has run, however many cancelled events sit at the head of the
// queue, and every live event due at or before t has run.
func TestKernelRunUntilIsExact(t *testing.T) {
	// The case that used to overshoot: a cancelled timer at or before t,
	// then a live one after t.
	k := NewKernel(1)
	k.After(5*time.Millisecond, func() {}).Cancel()
	k.After(10*time.Millisecond, func() {}).Cancel()
	late := false
	k.After(15*time.Millisecond, func() { late = true })
	k.RunUntil(10 * time.Millisecond)
	if late || k.Now() != 10*time.Millisecond {
		t.Fatalf("RunUntil(10ms): Now()=%v, 15ms event ran=%v; want 10ms, false", k.Now(), late)
	}

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		due := map[int]time.Duration{} // live events not yet run
		ran := 0
		for i := 0; i < 30; i++ {
			i, at := i, time.Duration(rng.Intn(100))*time.Microsecond
			c := k.At(at, func() {
				if k.Now() != at {
					t.Errorf("seed %d: event due %v ran at %v", seed, at, k.Now())
				}
				delete(due, i)
				ran++
				if rng.Intn(3) == 0 {
					k.Post(func() { ran++ })
				}
			})
			if rng.Intn(2) == 0 {
				c.Cancel()
			} else {
				due[i] = at
			}
		}
		for _, t0 := range []int{rng.Intn(50), 50 + rng.Intn(50), 100} {
			until := time.Duration(t0) * time.Microsecond
			k.RunUntil(until)
			if k.Now() != until {
				t.Fatalf("seed %d: RunUntil(%v) left Now()=%v", seed, until, k.Now())
			}
			for i, at := range due {
				if at <= until {
					t.Fatalf("seed %d: event %d due %v not run by RunUntil(%v)", seed, i, at, until)
				}
			}
		}
		if len(due) != 0 || k.Pending() != 0 {
			t.Fatalf("seed %d: %d events never ran, %d pending", seed, len(due), k.Pending())
		}
	}
}

// TestKernelDropsCancelledTimers: timers cancelled long before they are due,
// as Totem cancels its token timers, do not pile up in the heap or in the
// timer slab, and dropping them keeps the (at, seq) order of the live ones.
func TestKernelDropsCancelledTimers(t *testing.T) {
	k := NewKernel(1)
	// slabInUse is the number of slab entries held: every one must belong
	// to a timer still in the heap, and a swept timer must give its back.
	slabInUse := func() int { return len(k.timers) - len(k.free) }
	var want, got []int
	for i := 0; i < 10000; i++ {
		i := i
		c := k.After(time.Hour+time.Duration(i%7)*time.Second, func() { got = append(got, i) })
		if i%10 == 0 {
			want = append(want, i)
		} else {
			c.Cancel()
		}
		bound := max(2*len(want), minCompact)
		if len(k.q) > bound || len(k.timers) > bound {
			t.Fatalf("after %d timers, %d live: heap holds %d, slab %d", i+1, len(want), len(k.q), len(k.timers))
		}
		if slabInUse() != len(k.q) {
			t.Fatalf("after %d timers: %d slab entries in use for %d heap slots", i+1, slabInUse(), len(k.q))
		}
	}
	if k.Pending() != len(want) {
		t.Fatalf("Pending = %d, want %d", k.Pending(), len(want))
	}
	slices.SortStableFunc(want, func(a, b int) int { return a%7 - b%7 })
	k.Run()
	if !slices.Equal(got, want) {
		t.Fatalf("live timers ran out of (at, seq) order")
	}
	if slabInUse() != 0 {
		t.Fatalf("%d slab entries still held after Run", slabInUse())
	}
}

// TestKernelPostStepAllocatesNothing: once the lane has grown, a Post and
// the Step that runs it allocate nothing.
func TestKernelPostStepAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.Post(fn)
	}
	k.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		k.Post(fn)
		k.Step()
	}); allocs != 0 {
		t.Fatalf("Post+Step allocates %.1f times, want 0", allocs)
	}
}

// TestKernelDeliverStepAllocatesNothing: once the heap has grown, a Deliver
// and the Step that fires it allocate nothing.
func TestKernelDeliverStepAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k := NewKernel(1)
	fired := 0
	sink := k.RegisterSink(sinkFunc(func(uint32) { fired++ }))
	for i := 0; i < 64; i++ {
		k.Deliver(time.Microsecond, sink, uint32(i))
	}
	k.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		k.Deliver(time.Microsecond, sink, 7)
		k.Step()
	}); allocs != 0 {
		t.Fatalf("Deliver+Step allocates %.1f times, want 0", allocs)
	}
	if fired != 64+1001 {
		t.Fatalf("sink fired %d times, want %d", fired, 64+1001)
	}
}

// BenchmarkKernelDeliverStep: a delivery through the heap, over a standing
// queue of 1024 later timers, as in a simulation with live refresh timers.
func BenchmarkKernelDeliverStep(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		k.After(time.Hour+time.Duration(i), fn)
	}
	sink := k.RegisterSink(sinkFunc(func(uint32) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Deliver(time.Microsecond, sink, uint32(i))
		k.Step()
	}
}

// BenchmarkKernelPostStep: the same-instant lane, one Post and its Step.
func BenchmarkKernelPostStep(b *testing.B) {
	k := NewKernel(1)
	k.After(time.Hour, func() {}) // a timer in the heap, as in any simulation
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Post(fn)
		k.Step()
	}
}

// BenchmarkKernelAfterStep: a timer through the heap, over a standing queue
// of 1024 later timers.
func BenchmarkKernelAfterStep(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		k.After(time.Hour+time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(time.Microsecond, fn)
		k.Step()
	}
}
