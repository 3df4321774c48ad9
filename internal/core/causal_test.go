package core

import (
	"testing"
	"time"

	"cts/internal/replication"
	"cts/internal/rpc"
	"cts/internal/transport"
	"cts/internal/wire"
)

// The §5 extension: two replica groups, each with its own consistent group
// clock, share one ring. A client reads group A's clock, then invokes group
// B with the returned timestamp; group B's clock — initially far BEHIND
// group A's — must advance past the timestamp before serving the read, so
// the causal order of readings across groups is preserved. The harness
// keeps one client oracle per group: unstamped groups promise no order
// between them.

const (
	groupA wire.GroupID = 101
	groupB wire.GroupID = 102
)

// causalSetup: client on P0 with one client per group; group A replicas on
// P1,P2 (clocks +100s); group B replicas on P3,P4 (clocks +0s — far behind
// A).
func causalSetup(t *testing.T, seed int64) (h *coreHarness, a, b *rpc.Client) {
	t.Helper()
	h = newCoreHarness(t, seed)
	ring := []transport.NodeID{0, 1, 2, 3, 4}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.addGroupReplica(1, groupA, replication.Active, false, h.simClock(100*time.Second, 0))
	h.addGroupReplica(2, groupA, replication.Active, false, h.simClock(100*time.Second, 0))
	h.addGroupReplica(3, groupB, replication.Active, false, h.simClock(0, 0))
	h.addGroupReplica(4, groupB, replication.Active, false, h.simClock(0, 0))
	a = h.groupClient(0, 901, groupA)
	b = h.groupClient(0, 902, groupB)
	h.start()
	h.k.RunFor(3 * time.Millisecond)
	return h, a, b
}

// causalRead reads c's group once, stamped with ts, and returns the reading
// and the reply's timestamp.
func causalRead(t *testing.T, h *coreHarness, c *rpc.Client, ts time.Duration) (time.Duration, time.Duration) {
	t.Helper()
	var val, stamp time.Duration
	got := false
	h.read(c, ts, func(v time.Duration, r rpc.Reply) {
		got = true
		if r.Err != nil {
			t.Errorf("invoke: %v", r.Err)
		}
		val, stamp = v, r.Timestamp
	})
	if !h.runUntil(10*time.Second, func() bool { return got }) {
		t.Fatal("read timed out")
	}
	return val, stamp
}

// Group B's replicas recording the lifted value alike is the round oracle's
// check, and B's later reads not falling below it the client oracle's.
func TestCausalTimestampLiftsForeignGroupClock(t *testing.T) {
	h, a, b := causalSetup(t, 1)

	// Group B unstamped: its clock sits near 0 (its replicas' raw clocks).
	bBefore, _ := causalRead(t, h, b, 0)
	if bBefore > 10*time.Second {
		t.Fatalf("group B clock = %v, expected near zero before causal contact", bBefore)
	}
	// Group A: its clock sits near +100s.
	aVal, aStamp := causalRead(t, h, a, 0)
	if aVal < 90*time.Second {
		t.Fatalf("group A clock = %v, expected ≈100s", aVal)
	}
	if aStamp < aVal {
		t.Fatalf("reply timestamp %v below the reading %v it must cover", aStamp, aVal)
	}

	// Invoke B with A's timestamp: B's reading must causally follow it.
	if bAfter, _ := causalRead(t, h, b, aStamp); bAfter <= aStamp {
		t.Fatalf("causality violated: read %v from group B stamped with group A's %v", bAfter, aStamp)
	}
	causalRead(t, h, b, 0)
}

// Ping-pong: each reading is passed as the timestamp of the next invocation
// on the other group, and must exceed it. Every reply covers its reading, so
// the values strictly increase across the whole chain.
func TestCausalChainBackAndForth(t *testing.T) {
	h, a, b := causalSetup(t, 2)
	var stamp time.Duration
	for i, c := range []*rpc.Client{a, b, a, b, b, a} {
		v, next := causalRead(t, h, c, stamp)
		if v <= stamp || next < v {
			t.Fatalf("causal chain broken at step %d: read %v stamped %v, reply stamped %v", i, v, stamp, next)
		}
		stamp = next
	}
}

func TestUnstampedGroupsStayIndependent(t *testing.T) {
	h, a, b := causalSetup(t, 3)
	// Without timestamps the groups' clocks are unrelated: B stays near 0
	// no matter how often A is read.
	for i := 0; i < 3; i++ {
		causalRead(t, h, a, 0)
	}
	bVal, _ := causalRead(t, h, b, 0)
	if bVal > 10*time.Second {
		t.Fatalf("group B clock = %v; unstamped traffic must not couple the groups", bVal)
	}
}
