package order

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/obs"
)

// Leader crashes while safe cancelable traffic is in flight; survivors must
// keep delivering. Regression test for the dense-relabel wedge: after the
// crash the new leader relabels the survivors' retained proposals with
// dense per-sender numbers, and a dupKey-suppressed proposal cancelled
// after relabelling used to leave a hole that wedged the sender's chain.
func TestSeqLeaderCrashSafeInFlight(t *testing.T) {
	h := newConfHarness(t, KindSeq, 23, nil)
	ids := confIDs(4)[1:] // nodes 1,2,3 like the experiment cluster
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()

	key := uint64(1)
	deliveredKey := func(k uint64) bool {
		for _, id := range ids[1:] {
			found := false
			for _, d := range h.deliveries[id] {
				if len(d.Payload) > 0 && uint64(d.Payload[0]) == k%256 {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}

	// A few rounds pre-crash: both non-leaders propose with the same dupKey.
	for ; key <= 3; key++ {
		k := key
		h.k.Post(func() {
			h.nodes[2].BroadcastCancelable([]byte{byte(k)}, true, k)
			h.nodes[3].BroadcastCancelable([]byte{byte(k)}, true, k)
		})
		if !h.runUntil(time.Second, func() bool { return deliveredKey(k) }) {
			t.Fatalf("round %d never delivered pre-crash", k)
		}
	}

	// Put a round in flight and crash the leader in the same instant.
	k := key
	h.k.Post(func() {
		h.nodes[2].BroadcastCancelable([]byte{byte(k)}, true, k)
		h.nodes[3].BroadcastCancelable([]byte{byte(k)}, true, k)
	})
	h.crash(1)

	if !h.runUntil(5*time.Second, func() bool { return deliveredKey(k) }) {
		for _, id := range ids[1:] {
			t.Logf("node %v: %d deliveries, views %+v", id, len(h.deliveries[id]), h.views[id])
		}
		t.Fatalf("in-flight round %d never delivered after leader crash", k)
	}
	key++

	// Post-crash rounds.
	for ; key <= k+3; key++ {
		kk := key
		h.k.Post(func() {
			h.nodes[2].BroadcastCancelable([]byte{byte(kk)}, true, kk)
			h.nodes[3].BroadcastCancelable([]byte{byte(kk)}, true, kk)
		})
		if !h.runUntil(5*time.Second, func() bool { return deliveredKey(kk) }) {
			for _, id := range ids[1:] {
				t.Logf("node %v: %d deliveries, last view %+v", id, len(h.deliveries[id]), h.views[id][len(h.views[id])-1])
			}
			t.Fatalf("round %d never delivered post-crash", kk)
		}
	}
}

// TestSeqCopiesCountedOnce: every copy of a dupKey that is not ordered is
// counted exactly once, as its proposer's seq.suppressed when it was
// withdrawn before the wire or as the leader's seq.refused when it was sent.
// For each of 50 keys nodes 0 and 1 propose a copy in the same instant, so
// both reach the leader, and node 2 proposes one after the key was ordered.
func TestSeqCopiesCountedOnce(t *testing.T) {
	h := newConfHarness(t, KindSeq, 3, nil)
	ids := confIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	const keys = 50
	copies := 0
	for key := uint64(1); key <= keys; key++ {
		payload := []byte(fmt.Sprint("reply ", key))
		h.k.Post(func() {
			for _, id := range ids[:2] {
				h.nodes[id].BroadcastCancelable(payload, false, key)
			}
		})
		if !h.runUntil(time.Second, func() bool { return len(h.deliveries[2]) == int(key) }) {
			t.Fatalf("key %d not ordered at node 2", key)
		}
		h.k.Post(func() { h.nodes[2].BroadcastCancelable(payload, false, key) })
		copies += 3
	}
	h.k.RunFor(100 * time.Millisecond) // resend sweeps withdraw what is left
	ordered := len(h.deliveries[0])
	var suppressed, refused uint64
	for _, id := range ids {
		suppressed += gauge(t, h.nodes[id].(obs.Source), "seq.suppressed")
		refused += gauge(t, h.nodes[id].(obs.Source), "seq.refused")
	}
	if ordered != keys || suppressed+refused != uint64(copies-ordered) {
		t.Fatalf("%d copies, %d ordered: seq.suppressed %d + seq.refused %d, want %d ordered and a sum of %d",
			copies, ordered, suppressed, refused, keys, copies-ordered)
	}
	h.stopAll()
}
