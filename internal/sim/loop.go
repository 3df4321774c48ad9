package sim

import (
	"sync"
	"time"
)

var (
	_ Runtime = (*Kernel)(nil)
	_ Runtime = (*Loop)(nil)
)

// Loop is a real-time Runtime: a single goroutine drains a mailbox of
// callbacks, and After is backed by wall-clock timers. It is the production
// counterpart of Kernel, used when nodes run over real transports.
type Loop struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool

	start time.Time
	done  chan struct{}
}

// NewLoop returns a started loop. The caller must Close it when finished.
func NewLoop() *Loop {
	l := &Loop{
		start: time.Now(),
		done:  make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// Now reports wall-clock time elapsed since the loop started.
func (l *Loop) Now() time.Duration { return time.Since(l.start) }

// Post schedules fn on the loop. It is safe from any goroutine. Posting to a
// closed loop drops fn.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.queue = append(l.queue, fn)
	l.cond.Signal()
}

// After schedules fn on the loop after wall-clock delay d. The wall-clock
// timer only posts; whether fn runs is decided on the loop, so a Cancel made
// after the timer fired but before its post ran still prevents fn.
func (l *Loop) After(d time.Duration, fn func()) Canceler {
	lt := &loopTimer{}
	lt.t = time.AfterFunc(d, func() {
		l.Post(func() {
			lt.mu.Lock()
			if lt.cancelled {
				lt.mu.Unlock()
				return
			}
			lt.fired = true
			lt.mu.Unlock()
			fn()
		})
	})
	return lt
}

// Close stops the loop after pending callbacks drain and waits for the loop
// goroutine to exit. Close is idempotent.
func (l *Loop) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
}

// run drains the mailbox a batch at a time: it swaps the queue for the
// emptied slice of the previous batch and runs the batch unlocked, so posts
// keep appending to a slice that has grown, and order stays FIFO.
func (l *Loop) run() {
	defer close(l.done)
	var batch []func()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		batch, l.queue = l.queue, batch[:0]
		l.mu.Unlock()
		for i, fn := range batch {
			batch[i] = nil // the callback may be collected once it ran
			fn()
		}
	}
}

// loopTimer adapts time.Timer to Canceler. fired is set on the loop just
// before fn runs, so Cancel reports true exactly when fn will never run.
type loopTimer struct {
	mu        sync.Mutex
	t         *time.Timer
	fired     bool
	cancelled bool
}

func (lt *loopTimer) Cancel() bool {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if lt.fired || lt.cancelled {
		return false
	}
	lt.cancelled = true
	lt.t.Stop()
	return true
}
