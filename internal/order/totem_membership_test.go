package order

import (
	"fmt"
	"slices"
	"testing"

	"cts/internal/transport"
)

// memberNet drives membership values with no kernel and no transport:
// joins and commit tokens are queued as values, and the test chooses what
// to deliver, what to drop and which timer fires.
type memberNet struct {
	t   *testing.T
	ids []transport.NodeID
	mbs map[transport.NodeID]*membership
	rs  map[transport.NodeID]*ringState
	// queue holds messages in flight, delivered in FIFO order by run.
	queue []memberMsg
	// drop, when set, loses every message it returns true for.
	drop func(memberMsg) bool
	// armed[id] holds the membership timers armed at id.
	armed map[transport.NodeID]map[actKind]bool
	// recovering[id] is the duty list id entered recovery with.
	recovering map[transport.NodeID][]*dataMsg
	installed  map[transport.NodeID]View
	// joins[id] is every join id broadcast, in order.
	joins map[transport.NodeID][]*joinMsg
}

type memberMsg struct {
	from, to transport.NodeID
	join     *joinMsg
	ct       *commitToken
}

// newMemberNet builds one membership per id, each operational on ring with
// members ids.
func newMemberNet(t *testing.T, ring ViewID, ids ...transport.NodeID) *memberNet {
	h := &memberNet{
		t:          t,
		ids:        ids,
		mbs:        make(map[transport.NodeID]*membership),
		rs:         make(map[transport.NodeID]*ringState),
		armed:      make(map[transport.NodeID]map[actKind]bool),
		recovering: make(map[transport.NodeID][]*dataMsg),
		installed:  make(map[transport.NodeID]View),
		joins:      make(map[transport.NodeID][]*joinMsg),
	}
	for _, id := range ids {
		h.mbs[id] = &membership{self: id, state: stateOperational, ring: ring,
			members: slices.Clone(ids), maxRingSeq: ring.Epoch, oldHold: make(map[uint64]*dataMsg)}
		h.rs[id] = &ringState{received: make(map[uint64]*dataMsg)}
		h.armed[id] = make(map[actKind]bool)
	}
	return h
}

// do carries out id's actions the way totemNode.apply does, minus the I/O.
func (h *memberNet) do(id transport.NodeID, acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actJoin:
			h.joins[id] = append(h.joins[id], a.join)
			for _, to := range h.ids {
				if to != id {
					h.queue = append(h.queue, memberMsg{from: id, to: to, join: a.join})
				}
			}
		case actCommit:
			cp := *a.ct
			h.queue = append(h.queue, memberMsg{from: id, to: a.to, ct: &cp})
		case actArmConsensus, actArmCommit:
			h.armed[id][a.kind] = true
		case actCancelConsensus:
			delete(h.armed[id], actArmConsensus)
		case actLeaveRing:
			clear(h.armed[id])
		case actRequeue:
			// The outbox is the node's: TestMembershipAbortedRecoverySalvage
			// applies this action to one.
		case actRecover:
			clear(h.armed[id])
			h.recovering[id] = a.msgs
		case actInstall:
			mb := h.mbs[id]
			h.installed[id] = View{ID: mb.ring, Members: slices.Clone(mb.members)}
		default:
			h.t.Fatalf("node %v: unknown action %d", id, a.kind)
		}
	}
}

// run delivers queued messages until none is left.
func (h *memberNet) run() {
	for steps := 0; len(h.queue) > 0; steps++ {
		if steps > 1000 {
			h.t.Fatal("membership messages never quiesce")
		}
		m := h.queue[0]
		h.queue = h.queue[1:]
		if h.drop != nil && h.drop(m) {
			continue
		}
		mb, ok := h.mbs[m.to]
		if !ok {
			continue
		}
		if m.join != nil {
			h.do(m.to, mb.join(m.join, h.rs[m.to]))
		} else {
			h.do(m.to, mb.commit(m.ct))
		}
	}
}

// fire expires id's consensus or commit timer, which must be armed.
func (h *memberNet) fire(id transport.NodeID, timer actKind) {
	h.t.Helper()
	if !h.armed[id][timer] {
		h.t.Fatalf("node %v: timer %d fired but is not armed", id, timer)
	}
	delete(h.armed[id], timer)
	if timer == actArmConsensus {
		h.do(id, h.mbs[id].consensusExpired())
	} else {
		h.do(id, h.mbs[id].commitExpired())
	}
}

// recoverAll ends the recovery of every node that entered one, as the token
// path does once every end-of-recovery marker is delivered.
func (h *memberNet) recoverAll() {
	for id, mb := range h.mbs {
		if mb.state == stateRecover {
			h.do(id, mb.recovered())
		}
	}
}

// checkInstalled requires ids, and nobody else, to have installed one ring
// whose members are ids, and returns it.
func (h *memberNet) checkInstalled(ids ...transport.NodeID) ViewID {
	h.t.Helper()
	if len(h.installed) != len(ids) {
		h.t.Fatalf("installed views %v, want one at each of %v", h.installed, ids)
	}
	want := h.installed[ids[0]]
	for _, id := range ids {
		v, ok := h.installed[id]
		if !ok || v.ID != want.ID || !slices.Equal(v.Members, ids) {
			h.t.Fatalf("node %v installed %+v (ok=%v), node %v installed %+v", id, v, ok, ids[0], want)
		}
	}
	return want.ID
}

// TestMembershipThreeFormOneRing: one node loses the token, and its join
// pulls the two operational others into a gather. All three install the
// same ring and members, under an epoch above every ring any of them had
// seen, and the ring's representative is its lowest id.
func TestMembershipThreeFormOneRing(t *testing.T) {
	old := ViewID{Epoch: 3, Rep: 0}
	h := newMemberNet(t, old, 0, 1, 2)
	h.mbs[2].maxRingSeq = 7 // node 2 heard a foreign ring 7 announced
	h.do(2, h.mbs[2].gather(nil, h.rs[2]))
	h.run()
	for id, mb := range h.mbs {
		if mb.state != stateRecover || len(h.recovering[id]) == 0 {
			t.Fatalf("node %v: state %v, duty %v; want recovering", id, mb.state, h.recovering[id])
		}
		if end := h.recovering[id][len(h.recovering[id])-1]; end.Kind != msgEndRecovery {
			t.Fatalf("node %v: duty ends with %+v, want the end-of-recovery marker", id, end)
		}
		if mb.oldRing != old {
			t.Fatalf("node %v: old ring %v, want %v", id, mb.oldRing, old)
		}
	}
	h.recoverAll()
	ring := h.checkInstalled(0, 1, 2)
	if ring.Epoch <= 7 || ring.Rep != 0 {
		t.Fatalf("new ring %v: want an epoch above 7 (every prior ring) and representative 0", ring)
	}
}

// TestMembershipSilentCandidateFailed: a member dies, so its join never
// arrives. The survivors reach no consensus until their consensus timers
// fire, fail it, and form a ring without it.
func TestMembershipSilentCandidateFailed(t *testing.T) {
	h := newMemberNet(t, ViewID{Epoch: 1, Rep: 0}, 0, 1, 2)
	h.drop = func(m memberMsg) bool { return m.from == 2 || m.to == 2 }
	h.do(0, h.mbs[0].gather(nil, h.rs[0]))
	h.run()
	for _, id := range []transport.NodeID{0, 1} {
		if st := h.mbs[id].state; st != stateGather {
			t.Fatalf("node %v in %v before the timer fired; want gather (node 2 never answered)", id, st)
		}
	}
	h.fire(0, actArmConsensus)
	h.run()
	if !h.mbs[0].failSet[2] || !h.mbs[1].failSet[2] {
		t.Fatal("the survivors did not fail the silent candidate")
	}
	h.recoverAll()
	h.checkInstalled(0, 1)
}

// TestMembershipLostCommitToken: the representative's commit token is
// lost, so nobody enters recovery; the commit timeout sends every member
// back to gather, re-broadcasting its join, with no view installed.
func TestMembershipLostCommitToken(t *testing.T) {
	h := newMemberNet(t, ViewID{Epoch: 1, Rep: 0}, 0, 1, 2)
	h.drop = func(m memberMsg) bool { return m.ct != nil }
	h.do(0, h.mbs[0].gather(nil, h.rs[0]))
	h.run()
	for id, mb := range h.mbs {
		if mb.state != stateCommit || !h.armed[id][actArmCommit] {
			t.Fatalf("node %v: state %v, commit timer armed %v; want commit with the timer armed",
				id, mb.state, h.armed[id][actArmCommit])
		}
	}
	for id := range h.mbs {
		sent := len(h.joins[id])
		h.fire(id, actArmCommit)
		if h.mbs[id].state != stateGather || len(h.joins[id]) != sent+1 || !h.armed[id][actArmConsensus] {
			t.Fatalf("node %v after the commit timeout: state %v, joins %d -> %d, consensus armed %v",
				id, h.mbs[id].state, sent, len(h.joins[id]), h.armed[id][actArmConsensus])
		}
	}
	if len(h.recovering) != 0 || len(h.installed) != 0 {
		t.Fatalf("recovering %v, installed %v; want neither without a commit token", h.recovering, h.installed)
	}
}

// TestMembershipGatherHearsForeignAnnounce: a gathering node that hears a
// foreign ring's announce adds the announced members to its proposal and
// re-broadcasts its join, carrying the foreign ring's sequence number.
func TestMembershipGatherHearsForeignAnnounce(t *testing.T) {
	h := newMemberNet(t, ViewID{Epoch: 2, Rep: 0}, 0, 1)
	h.do(0, h.mbs[0].gather(nil, h.rs[0]))
	h.queue = nil // node 1 never hears it: node 0 stays in gather
	sent := len(h.joins[0])
	foreign := &announceMsg{Ring: ViewID{Epoch: 9, Rep: 5}, Members: []transport.NodeID{5, 6}}
	h.do(0, h.mbs[0].announce(foreign, h.rs[0]))
	if len(h.joins[0]) != sent+1 {
		t.Fatalf("announce sent %d joins, want 1", len(h.joins[0])-sent)
	}
	j := h.joins[0][len(h.joins[0])-1]
	if !slices.Equal(j.ProcSet, []transport.NodeID{0, 1, 5, 6}) || j.MaxRingSeq != 9 {
		t.Fatalf("re-broadcast join %+v; want ProcSet [0 1 5 6] and MaxRingSeq 9", j)
	}
	if h.mbs[0].state != stateGather {
		t.Fatalf("state %v, want gather (the announced members have not joined)", h.mbs[0].state)
	}
}

// TestMembershipAbortedRecoverySalvage: a gather that aborts a recovery
// folds the recovered old-ring messages, delivered (recOld) or merely
// received, into the old-ring holdings, and re-queues this node's own
// regular messages of the aborted ring in their original order, ahead of
// anything queued since.
func TestMembershipAbortedRecoverySalvage(t *testing.T) {
	oldRing, aborted := ViewID{Epoch: 4, Rep: 0}, ViewID{Epoch: 5, Rep: 0}
	const me = transport.NodeID(1)
	rec := func(oldSeq uint64, ring ViewID) *dataMsg {
		return &dataMsg{Ring: aborted, Kind: msgRecovery, OldRing: ring, OldSeq: oldSeq,
			OldSndr: 2, DupKey: 100 + oldSeq, Payload: []byte(fmt.Sprint("old", oldSeq))}
	}
	mb := &membership{self: me, state: stateRecover, ring: aborted, members: []transport.NodeID{0, 1, 2},
		oldRing: oldRing, oldHold: map[uint64]*dataMsg{1: {Ring: oldRing, Seq: 1, Payload: []byte("held")}}}
	rs := &ringState{recOld: map[uint64]*dataMsg{2: rec(2, oldRing)}, received: map[uint64]*dataMsg{
		1: rec(3, oldRing),
		2: rec(4, ViewID{Epoch: 3, Rep: 2}), // an older ring's: not this cohort's to keep
		3: {Ring: aborted, Seq: 3, Sender: 0, Kind: msgRegular, Payload: []byte("theirs")},
		4: {Ring: aborted, Seq: 4, Kind: msgEndRecovery, Sender: me},
	}}
	for s := uint64(5); s < 12; s++ {
		rs.received[s] = &dataMsg{Ring: aborted, Seq: s, Sender: me, Kind: msgRegular,
			Safe: s%2 == 0, DupKey: 200 + s, Payload: []byte(fmt.Sprint("mine", s))}
	}

	acts := mb.gather(nil, rs)
	if len(acts) == 0 || acts[0].kind != actRequeue {
		t.Fatalf("first action %+v, want the re-queue", acts)
	}
	for s, want := range map[uint64]string{1: "held", 2: "old2", 3: "old3"} {
		m, ok := mb.oldHold[s]
		if !ok || string(m.Payload) != want {
			t.Fatalf("oldHold[%d] = %+v, want %q", s, m, want)
		}
		if s > 1 && (m.Ring != oldRing || m.Seq != s || m.Sender != 2 || m.Kind != msgRegular || m.DupKey != 100+s) {
			t.Fatalf("oldHold[%d] = %+v, want old-ring regular message %d from 2", s, m, s)
		}
	}
	if _, ok := mb.oldHold[4]; ok || len(mb.oldHold) != 3 {
		t.Fatalf("oldHold holds %d messages, want 3 (another ring's recovery is not kept)", len(mb.oldHold))
	}

	// The node queues the re-queued messages ahead of what it queued since.
	n := &totemNode{endpoint: endpoint{me: me}}
	n.out.add(newPending(me, []byte("newer"), false, 0))
	n.apply(acts[:1])
	var got []string
	for _, p := range n.out.q {
		got = append(got, string(p.payload))
		if p.sender != me {
			t.Fatalf("re-queued %q with sender %v", p.payload, p.sender)
		}
	}
	want := []string{"mine5", "mine6", "mine7", "mine8", "mine9", "mine10", "mine11", "newer"}
	if !slices.Equal(got, want) {
		t.Fatalf("outbox %q, want %q", got, want)
	}
	if p := n.out.q[1]; !p.safe || p.dupKey != 206 {
		t.Fatalf("re-queued mine6 as safe=%v dupKey=%d, want its own flags", p.safe, p.dupKey)
	}
	if mb.state != stateGather {
		t.Fatalf("state %v, want gather", mb.state)
	}
}
