package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestCancelAfterDeadlineBeforeRun checks the Canceler contract on both
// runtimes: a Cancel made on the loop once the timer's deadline has passed,
// but before its callback started, returns true, and the callback never
// runs.
func TestCancelAfterDeadlineBeforeRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		// cancelLate arms a timer, lets its deadline pass, cancels it from
		// the loop, drains the loop, and reports what Cancel returned and
		// whether the timer's callback ran.
		cancelLate func() (cancelled, ran bool)
	}{
		{"loop", func() (bool, bool) {
			l := NewLoop()
			defer l.Close()
			var ran atomic.Bool
			result := make(chan bool, 1)
			l.Post(func() {
				c := l.After(time.Millisecond, func() { ran.Store(true) })
				// Keep the loop busy well past the deadline: the wall-clock
				// timer fires and posts meanwhile.
				time.Sleep(20 * time.Millisecond)
				result <- c.Cancel()
			})
			cancelled := <-result
			time.Sleep(5 * time.Millisecond)
			drained := make(chan struct{})
			l.Post(func() { close(drained) })
			<-drained
			return cancelled, ran.Load()
		}},
		{"kernel", func() (bool, bool) {
			k := NewKernel(1)
			var c Canceler
			cancelled, ran := false, false
			// Due at the same instant and scheduled first, so it runs once
			// the timer's deadline has been reached but before the timer.
			k.After(time.Millisecond, func() { cancelled = c.Cancel() })
			c = k.After(time.Millisecond, func() { ran = true })
			k.Run()
			return cancelled, ran
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cancelled, ran := tc.cancelLate()
			if !cancelled {
				t.Error("Cancel after the deadline, before the callback ran, returned false")
			}
			if ran {
				t.Error("cancelled timer's callback ran")
			}
		})
	}
}
