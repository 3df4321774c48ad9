package core

import (
	"encoding/binary"
	"testing"
	"time"

	"cts/internal/replication"
	"cts/internal/rpc"
)

// armTimer invokes "set-timer" with a deadline ahead of the group clock and
// waits for its reply.
func armTimer(t *testing.T, h *coreHarness, client *rpc.Client, ahead time.Duration) {
	t.Helper()
	body := make([]byte, 8)
	binary.BigEndian.PutUint64(body, uint64(ahead))
	done := false
	client.Invoke("set-timer", body, func(rpc.Reply) { done = true })
	if !h.runUntil(5*time.Second, func() bool { return done }) {
		t.Fatal("set-timer never replied")
	}
}

// allFired reports whether the timer has fired at every replica.
func allFired(h *coreHarness) bool {
	for _, app := range h.apps {
		if len(app.firedAt) == 0 {
			return false
		}
	}
	return true
}

func TestGroupTimerFiresDeterministically(t *testing.T) {
	h, client := standardSetup(t, 1, replication.Active)
	armTimer(t, h, client, 500*time.Microsecond)
	// The timer needs the group clock to advance past the deadline, which
	// takes further rounds: drive a few reads.
	driveReads(t, h, client, 10)
	if !h.runUntil(10*time.Second, func() bool { return allFired(h) }) {
		t.Fatal("timer did not fire at every replica")
	}
	// All replicas fired at the identical group clock value.
	want := h.apps[1].firedAt
	for id, app := range h.apps {
		if len(app.firedAt) != 1 {
			t.Fatalf("%v fired %d times", id, len(app.firedAt))
		}
		if app.firedAt[0] != want[0] {
			t.Fatalf("timer fired at different group times: %v vs %v", app.firedAt[0], want[0])
		}
	}
}

func TestGroupTimerCancel(t *testing.T) {
	h, client := standardSetup(t, 2, replication.Active)
	done := false
	client.Invoke("set-cancelled-timer", nil, func(rpc.Reply) { done = true })
	h.runUntil(5*time.Second, func() bool { return done })
	driveReads(t, h, client, 5)
	for id, app := range h.apps {
		if len(app.firedAt) != 0 {
			t.Fatalf("%v: cancelled timer fired", id)
		}
	}
	var pending int
	h.k.Post(func() { pending = h.svcs[1].PendingTimers() })
	h.k.RunFor(time.Millisecond)
	if pending != 0 {
		t.Fatalf("cancelled timer still pending: %d", pending)
	}
}

func TestGroupTimerPastDeadlineFiresImmediately(t *testing.T) {
	h, client := standardSetup(t, 3, replication.Active)
	// Deadline 0 ahead is already in the past once armed (the group clock
	// has moved on).
	armTimer(t, h, client, 0)
	if !h.runUntil(5*time.Second, func() bool { return allFired(h) }) {
		t.Fatal("past-deadline timer did not fire promptly")
	}
}
