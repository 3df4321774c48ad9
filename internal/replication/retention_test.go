package replication

import (
	"testing"
	"time"

	"cts/internal/rpc"
	"cts/internal/transport"
)

// Tests for the executor's log release: an executing replica keeps only the
// requests it has not run yet, however long it runs.

func TestActiveLogReleasedBetweenInvocations(t *testing.T) {
	h := newRepHarness(t, 30)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:] {
		h.addReplica(id, Active, false)
	}
	client := h.newClient(0, 0)
	h.start()
	h.k.RunFor(3 * time.Millisecond)

	// Sequential invocations; between any two (sampled as each reply reaches
	// the client) no replica may be holding a request it has already run.
	const n = 10000
	done := 0
	var peak uint64
	var invoke func()
	invoke = func() {
		client.Invoke("add", []byte{1}, func(r rpc.Reply) {
			if r.Err != nil {
				t.Errorf("invoke %d: %v", done, r.Err)
			}
			done++
			for _, id := range ring[1:] {
				if v := h.counter(id, "replication.log_entries"); v > peak {
					peak = v
				}
			}
			if done < n {
				invoke()
			}
		})
	}
	invoke()
	if !h.runUntil(30*time.Second, func() bool { return done == n }) {
		t.Fatalf("got %d/%d replies", done, n)
	}
	h.k.RunFor(10 * time.Millisecond) // let the slower replicas finish the last one
	if peak != 0 {
		t.Fatalf("replication.log_entries peaked at %d between invocations, want 0", peak)
	}
	for _, id := range ring[1:] {
		if v := h.counter(id, "replication.log_entries"); v != 0 {
			t.Errorf("replica %v still logs %d entries after %d invocations", id, v, n)
		}
		if got := h.counter(id, "repl.executed"); got != n {
			t.Errorf("replica %v executed %d, want %d", id, got, n)
		}
		if h.apps[id].count != n {
			t.Errorf("replica %v count = %d, want %d", id, h.apps[id].count, n)
		}
	}
}

// TestRequestDuringBusyInvocationExecutedOnce: requests that arrive while the
// invocation thread is blocked wait in the log — which is only released once
// all of them have been handed to execution — and each runs exactly once, in
// order.
func TestRequestDuringBusyInvocationExecutedOnce(t *testing.T) {
	h := newRepHarness(t, 31)
	ring := []transport.NodeID{0, 1, 2}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:] {
		h.addReplica(id, Active, false)
	}
	client := h.newClient(0, 0)
	h.start()
	h.k.RunFor(3 * time.Millisecond)

	// A burst of invocations that each block their thread for 100µs: all but
	// the first reach the replicas while an invocation is in progress.
	const n = 5
	var replies []uint64
	for i := 0; i < n; i++ {
		client.Invoke("sleep-add", nil, func(r rpc.Reply) {
			if r.Err == nil {
				replies = append(replies, u64(r.Body))
			}
		})
	}
	queuedWhileBusy := false
	deadline := h.k.Now() + 2*time.Second
	for h.k.Now() < deadline && len(replies) < n {
		m := h.mgrs[1]
		if m.busy && m.executed < len(m.log) {
			queuedWhileBusy = true
			if v := h.counter(1, "replication.log_entries"); v != uint64(len(m.log)) {
				t.Fatalf("replication.log_entries = %d with %d entries logged", v, len(m.log))
			}
		}
		h.k.RunFor(10 * time.Microsecond)
	}
	h.k.RunFor(10 * time.Millisecond)
	if !queuedWhileBusy {
		t.Fatal("no request was ever queued behind a busy invocation; the test exercises nothing")
	}
	if len(replies) != n {
		t.Fatalf("got %d/%d replies", len(replies), n)
	}
	for i, v := range replies {
		if v != uint64(i+1) {
			t.Fatalf("reply %d = %d, want %d (an invocation ran twice or out of order)", i, v, i+1)
		}
	}
	for _, id := range ring[1:] {
		if h.apps[id].invoked != n || h.apps[id].count != n {
			t.Errorf("replica %v invoked %d, count %d, want %d each", id, h.apps[id].invoked, h.apps[id].count, n)
		}
		if v := h.counter(id, "replication.log_entries"); v != 0 {
			t.Errorf("replica %v still logs %d entries", id, v)
		}
	}
}
