package main

import (
	"time"

	"cts/internal/hwclock"
	"cts/internal/sim"
)

// mono is the benchmark's one source of elapsed time. Every latency, span
// edge and phase duration is read from it (and the traced recorders stamp
// their events with it), so spans and obs events share a timebase and the
// package stays clear of ctslint's notime rule.
var mono = hwclock.Monotonic()

// waitLoop backs sleep: a real-time loop whose After is the sanctioned way
// to wait on the machine clock.
var waitLoop = sim.NewLoop()

// sleep blocks the calling goroutine for d of real time.
func sleep(d time.Duration) {
	done := make(chan struct{})
	waitLoop.After(d, func() { close(done) })
	<-done
}

// waitFor polls cond every step until it holds or limit elapses.
func waitFor(limit, step time.Duration, cond func() bool) bool {
	deadline := mono() + limit
	for !cond() {
		if mono() > deadline {
			return false
		}
		sleep(step)
	}
	return true
}
