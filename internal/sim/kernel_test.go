package sim

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.After(30*time.Millisecond, func() { got = append(got, 3) })
	k.After(10*time.Millisecond, func() { got = append(got, 1) })
	k.After(20*time.Millisecond, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", k.Now())
	}
}

func TestKernelTieBreaksByInsertionOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("events at equal time ran out of insertion order: %v", got)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var fired []time.Duration
	k.After(time.Millisecond, func() {
		fired = append(fired, k.Now())
		k.After(2*time.Millisecond, func() {
			fired = append(fired, k.Now())
		})
	})
	k.Run()
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 3*time.Millisecond {
		t.Fatalf("fired = %v, want [1ms 3ms]", fired)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	c := k.After(time.Millisecond, func() { ran = true })
	if !c.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if c.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestKernelCancelAfterRun(t *testing.T) {
	k := NewKernel(1)
	c := k.After(0, func() {})
	k.Run()
	if c.Cancel() {
		t.Fatal("Cancel after the event ran should report false")
	}
}

func TestKernelRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var ran []int
	k.After(5*time.Millisecond, func() { ran = append(ran, 1) })
	k.After(15*time.Millisecond, func() { ran = append(ran, 2) })
	k.RunUntil(10 * time.Millisecond)
	if len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran = %v, want [1]", ran)
	}
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v, want 10ms", k.Now())
	}
	k.Run()
	if len(ran) != 2 {
		t.Fatalf("ran = %v, want [1 2]", ran)
	}
}

func TestKernelRunForIsRelative(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(4 * time.Millisecond)
	hit := false
	k.After(2*time.Millisecond, func() { hit = true })
	k.RunFor(time.Millisecond)
	if hit {
		t.Fatal("event 2ms away fired within a 1ms RunFor")
	}
	k.RunFor(time.Millisecond)
	if !hit {
		t.Fatal("event did not fire after cumulative 2ms")
	}
}

func TestKernelHaltStopsRun(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 0; i < 10; i++ {
		k.After(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				k.Halt()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (halted)", count)
	}
	// A subsequent Run resumes.
	k.Run()
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestKernelPostRunsAtCurrentTime(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration = -1
	k.After(7*time.Millisecond, func() {
		k.Post(func() { at = k.Now() })
	})
	k.Run()
	if at != 7*time.Millisecond {
		t.Fatalf("posted event ran at %v, want 7ms", at)
	}
}

func TestKernelPastAtClampsToNow(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(10 * time.Millisecond)
	var at time.Duration = -1
	k.At(2*time.Millisecond, func() { at = k.Now() })
	k.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past event ran at %v, want clamped to 10ms", at)
	}
}

func TestKernelNegativeAfterClampsToZero(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.After(-time.Second, func() { ran = true })
	k.Run()
	if !ran || k.Now() != 0 {
		t.Fatalf("ran=%v now=%v, want true, 0", ran, k.Now())
	}
}

func TestKernelDeterministicReplay(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		k := NewKernel(seed)
		rng := k.RNG()
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, k.Now())
			if len(out) < 50 {
				k.After(time.Duration(rng.Intn(1000))*time.Microsecond, step)
			}
		}
		k.Post(step)
		k.Run()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: however events are inserted, execution order is sorted by time
// with stable insertion order among equals.
func TestKernelOrderingProperty(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		k := NewKernel(3)
		type rec struct {
			at  time.Duration
			seq int
		}
		var got []rec
		for i, d := range delaysRaw {
			i, at := i, time.Duration(d)*time.Microsecond
			k.After(at, func() { got = append(got, rec{at, i}) })
		}
		k.Run()
		if len(got) != len(delaysRaw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].seq < got[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same holds when callbacks schedule as they run — zero-delay
// events interleaved with events scheduled earlier for the same instant.
// Every event runs in (time, scheduling order).
func TestKernelNestedOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKernel(seed)
		rng := rand.New(rand.NewSource(seed))
		type rec struct {
			at  time.Duration
			seq int
		}
		var got []rec
		scheduled := 0
		var spawn func(depth int)
		spawn = func(depth int) {
			at, seq := k.Now()+time.Duration(rng.Intn(3))*time.Microsecond, scheduled
			scheduled++
			fn := func() {
				if k.Now() != at {
					t.Errorf("event %d ran at %v, want %v", seq, k.Now(), at)
				}
				got = append(got, rec{at, seq})
				for i := rng.Intn(3); depth < 6 && i > 0; i-- {
					spawn(depth + 1)
				}
			}
			switch rng.Intn(3) {
			case 0:
				k.At(at, fn)
			case 1:
				k.After(at-k.Now(), fn)
			default:
				at = k.Now()
				k.Post(fn)
			}
		}
		for i := 0; i < 8; i++ {
			spawn(0)
		}
		k.Run()
		return len(got) == scheduled && k.Pending() == 0 &&
			sort.SliceIsSorted(got, func(i, j int) bool {
				if got[i].at != got[j].at {
					return got[i].at < got[j].at
				}
				return got[i].seq < got[j].seq
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelPendingCount(t *testing.T) {
	k := NewKernel(1)
	k.After(time.Millisecond, func() {})
	k.After(time.Millisecond, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", k.Pending())
	}
}

func TestLoopRunsPostedCallbacksInOrder(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	for i := 0; i < 100; i++ {
		i := i
		l.Post(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			if i == 99 {
				close(done)
			}
		})
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i := range got {
		if got[i] != i {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestLoopAfterFires(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	done := make(chan time.Duration, 1)
	start := l.Now()
	l.After(10*time.Millisecond, func() { done <- l.Now() - start })
	select {
	case d := <-done:
		if d < 5*time.Millisecond {
			t.Fatalf("fired too early: %v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestLoopAfterCancel(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	fired := make(chan struct{}, 1)
	c := l.After(50*time.Millisecond, func() { fired <- struct{}{} })
	if !c.Cancel() {
		t.Fatal("Cancel should report true")
	}
	select {
	case <-fired:
		t.Fatal("cancelled timer fired")
	case <-time.After(120 * time.Millisecond):
	}
}

func TestLoopCloseDrainsQueue(t *testing.T) {
	l := NewLoop()
	var mu sync.Mutex
	n := 0
	for i := 0; i < 50; i++ {
		l.Post(func() {
			mu.Lock()
			n++
			mu.Unlock()
		})
	}
	l.Close()
	mu.Lock()
	defer mu.Unlock()
	if n != 50 {
		t.Fatalf("drained %d callbacks, want 50", n)
	}
}

func TestLoopCloseIdempotent(t *testing.T) {
	l := NewLoop()
	l.Close()
	l.Close() // must not panic or hang
	l.Post(func() { t.Error("posted callback ran after Close") })
	time.Sleep(10 * time.Millisecond)
}

func TestLoopConcurrentPosters(t *testing.T) {
	l := NewLoop()
	var wg sync.WaitGroup
	var mu sync.Mutex
	n := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Post(func() {
					mu.Lock()
					n++
					mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	l.Close()
	mu.Lock()
	defer mu.Unlock()
	if n != 8*200 {
		t.Fatalf("ran %d callbacks, want %d", n, 8*200)
	}
}

func TestKernelRNGStableAcrossConstruction(t *testing.T) {
	a := NewKernel(7).RNG()
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("kernel RNG not seeded from the provided seed")
		}
	}
}
