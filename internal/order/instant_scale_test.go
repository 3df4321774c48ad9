package order

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/transport"
)

// The scale suite exercises the instant orderer at campaign population sizes
// (internal/campaign deploys it at 100–1000 nodes). The conformance suite
// proves the contract at 4–5 nodes; these tests prove the hub's coalesced
// view emission and O(N) delivery fan-out keep the same guarantees when the
// membership is two orders of magnitude larger.

// TestInstantScaleAgreement: 150 nodes all broadcasting; every node delivers
// every message in one agreed order with per-sender FIFO and contiguous
// per-node TotalOrder.
func TestInstantScaleAgreement(t *testing.T) {
	h := newConfHarness(t, KindInstant, 11, nil)
	ids := confIDs(150)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()

	const perNode = 3
	sent := make(map[transport.NodeID][]string)
	for round := 0; round < perNode; round++ {
		for _, id := range ids {
			p := fmt.Sprintf("n%d-m%d", id, round)
			sent[id] = append(sent[id], p)
			if err := h.nodes[id].Broadcast([]byte(p)); err != nil {
				t.Fatalf("Broadcast: %v", err)
			}
		}
		h.k.RunFor(500 * time.Microsecond)
	}

	total := perNode * len(ids)
	ok := h.runUntil(2*time.Second, func() bool {
		for _, id := range ids {
			if len(h.deliveries[id]) < total {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("not all messages delivered: node 0 has %d of %d", len(h.deliveries[0]), total)
	}
	h.checkAgreement(ids...)
	h.checkSenderFIFO(sent, ids...)
	h.stopAll()
}

// TestInstantScaleChurn: 120 nodes with a churn tail — victims from the top
// of the id range cycle through stop/restart while the stable majority keeps
// broadcasting. Stable nodes must agree on the full order with per-sender
// gap-freedom; churned nodes may miss messages while down, but what they do
// deliver must be a gap-free (strictly Seq-increasing) subsequence that
// agrees with the stable order at every shared Seq.
func TestInstantScaleChurn(t *testing.T) {
	h := newConfHarness(t, KindInstant, 12, nil)
	ids := confIDs(120)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()

	stable := ids[:100]
	victims := ids[100:]
	sent := make(map[transport.NodeID][]string)
	const waves = 10
	for w := 0; w < waves; w++ {
		// One victim down per wave; the previous wave's victim comes back.
		h.nodes[victims[w%len(victims)]].Stop()
		if w > 0 {
			h.nodes[victims[(w-1)%len(victims)]].Start()
		}
		h.k.RunFor(100 * time.Microsecond)
		for i := 0; i < 10; i++ {
			sender := stable[(w*10+i)%len(stable)]
			p := fmt.Sprintf("w%d-s%d", w, sender)
			sent[sender] = append(sent[sender], p)
			if err := h.nodes[sender].Broadcast([]byte(p)); err != nil {
				t.Fatalf("Broadcast: %v", err)
			}
		}
		h.k.RunFor(time.Millisecond)
	}
	h.nodes[victims[(waves-1)%len(victims)]].Start()
	h.k.RunFor(time.Millisecond)

	total := 0
	for _, msgs := range sent {
		total += len(msgs)
	}
	ok := h.runUntil(2*time.Second, func() bool {
		for _, id := range stable {
			if len(h.deliveries[id]) < total {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("stable nodes missed messages: node 0 has %d of %d", len(h.deliveries[0]), total)
	}
	h.checkAgreement(stable...)
	h.checkSenderFIFO(sent, stable...)

	// Churned nodes: gap-free subsequences of the agreed order.
	ref := make(map[uint64]Delivery, total)
	for _, d := range h.deliveries[stable[0]] {
		ref[d.Seq] = d
	}
	for _, id := range victims {
		var lastSeq uint64
		for i, d := range h.deliveries[id] {
			if d.Seq <= lastSeq {
				t.Fatalf("node %v: delivery %d has Seq %d after %d (reorder or duplicate)",
					id, i, d.Seq, lastSeq)
			}
			lastSeq = d.Seq
			want, seen := ref[d.Seq]
			if !seen {
				t.Fatalf("node %v: delivered Seq %d the stable nodes never saw", id, d.Seq)
			}
			if string(d.Payload) != string(want.Payload) || d.Sender != want.Sender {
				t.Fatalf("node %v: Seq %d is %q from %v, stable order has %q from %v",
					id, d.Seq, d.Payload, d.Sender, want.Payload, want.Sender)
			}
		}
	}

	// After the last restart everyone converges on one full primary view.
	ok = h.runUntil(time.Second, func() bool {
		for _, id := range ids {
			vs := h.views[id]
			if len(vs) == 0 {
				return false
			}
			last := vs[len(vs)-1]
			if !last.Primary || !sameMembers(last.Members, ids) {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("nodes did not reconverge on the full membership: node 0 last view %+v",
			h.lastView(ids[0]))
	}
	want := h.lastView(ids[0]).ID
	for _, id := range ids[1:] {
		if got := h.lastView(id).ID; got != want {
			t.Fatalf("view disagreement after churn: node %v has %v, want %v", id, got, want)
		}
	}
	h.stopAll()
}

// TestInstantCacheFollowsStopStart: the hub's cached membership (ids and
// node pointers) is rebuilt whenever Start/Stop change it, including several
// changes in one instant and a node stopped and restarted in that instant.
// Every broadcast reaches exactly the active set, in id order.
func TestInstantCacheFollowsStopStart(t *testing.T) {
	h := newConfHarness(t, KindInstant, 13, nil)
	ids := confIDs(8)
	var log []transport.NodeID // receivers of every delivery, in delivery order
	for _, id := range ids {
		o := h.addNode(id, ids, true)
		inner := o.(*instantNode).env.Deliver
		o.(*instantNode).env.Deliver = func(d Delivery) {
			inner(d)
			log = append(log, id)
		}
	}
	h.startAll()

	expect := func(what string, want ...transport.NodeID) {
		t.Helper()
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("%s delivered to %v, want %v", what, log, want)
		}
		log = log[:0]
	}
	broadcast := func(p string) {
		t.Helper()
		if err := h.nodes[0].Broadcast([]byte(p)); err != nil {
			t.Fatalf("Broadcast: %v", err)
		}
	}

	// One instant: three stops, one of them undone, then a broadcast.
	h.nodes[2].Stop()
	h.nodes[5].Stop()
	h.nodes[6].Stop()
	h.nodes[5].Start()
	broadcast("same-instant")
	h.k.RunFor(0)
	expect("a broadcast in the instant of the change", 0, 1, 3, 4, 5, 7)
	if vs := h.views[0]; !sameMembers(vs[len(vs)-1].Members, []transport.NodeID{0, 1, 3, 4, 5, 7}) {
		t.Fatalf("view after the instant = %v", vs[len(vs)-1])
	}

	broadcast("after-view")
	h.k.RunFor(time.Millisecond)
	expect("a broadcast after the view", 0, 1, 3, 4, 5, 7)

	// Stopped and restarted in one instant, with nothing else changing: the
	// node stays a receiver.
	h.nodes[3].Stop()
	h.nodes[3].Start()
	h.nodes[2].Start()
	broadcast("rejoin")
	h.k.RunFor(time.Millisecond)
	expect("a broadcast after a restart", 0, 1, 2, 3, 4, 5, 7)
	h.stopAll()
}
