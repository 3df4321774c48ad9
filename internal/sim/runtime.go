// Package sim provides the event-driven runtimes on which every protocol
// node in this repository executes: a deterministic discrete-event kernel
// with virtual time (used by tests, benchmarks and the experiment harness)
// and a real-time loop backed by wall-clock timers (used by the UDP
// deployment in cmd/ctsnode).
//
// Protocol code is written against the Runtime interface only, so the same
// state machines run unmodified in simulation and in production.
package sim

import "time"

// Runtime abstracts the single-threaded event loop a protocol node runs on.
// All callbacks scheduled on one Runtime execute serially; protocol state
// guarded by that discipline needs no further locking.
type Runtime interface {
	// Now reports the elapsed time on this runtime's clock. For the
	// discrete-event kernel this is virtual time; for the real-time loop it
	// is wall-clock time since the loop started.
	Now() time.Duration

	// After schedules fn to run on this runtime's loop after delay d.
	// It returns a handle that can cancel the pending call exactly (see
	// Canceler), so a protocol timer needs no guard of its own against
	// firing after it was cancelled.
	After(d time.Duration, fn func()) Canceler

	// Post schedules fn to run on this runtime's loop as soon as possible.
	// Post is safe to call from any goroutine.
	Post(fn func())
}

// Canceler cancels a pending scheduled call.
type Canceler interface {
	// Cancel stops the pending call. It returns true if and only if the
	// call will never run: false means it already ran (or is running), or
	// was cancelled before. A timer that has expired but whose call has not
	// yet started on the loop is still cancelled.
	Cancel() bool
}
