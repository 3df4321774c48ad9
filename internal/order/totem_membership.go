package order

import (
	"slices"
	"sort"

	"cts/internal/transport"
)

// startGather begins (or restarts) the membership protocol, optionally
// suspecting the given processors. The node's old-ring state is snapshotted
// once so that a gather restarted from commit/recover still recovers the
// original ring's messages.
func (n *totemNode) startGather(suspect []transport.NodeID) {
	n.startGatherInclude(nil, suspect)
}

// startGatherInclude is startGather with an extra set of processors to seed
// into the candidate proposal (used when a foreign ring's announce names
// members we have never heard joins from, so that consensus waits for them).
func (n *totemNode) startGatherInclude(include, suspect []transport.NodeID) {
	if n.state == stateStopped {
		return
	}
	if n.state == stateOperational || n.state == stateIdle {
		n.snapshotOldRing()
	} else if n.state == stateRecover {
		// A failed recovery. Nothing broadcast on the aborted ring ever
		// reached the application (regular messages are held until recovery
		// completes), so the aborted ring's traffic can be salvaged without
		// creating application-level duplicates:
		//  - recovered old-ring messages (delivered or merely received) are
		//    folded back into the old-ring holdings;
		//  - this node's own regular messages are re-queued for the next
		//    ring, in their original order, ahead of anything newer.
		for s, m := range n.recOld {
			if _, ok := n.oldHold[s]; !ok {
				n.oldHold[s] = &dataMsg{
					Ring:    n.oldRing,
					Seq:     s,
					Sender:  m.OldSndr,
					Kind:    msgRegular,
					DupKey:  m.DupKey,
					Payload: m.Payload,
				}
			}
		}
		var mine []*dataMsg
		for _, m := range n.received {
			switch m.Kind {
			case msgRecovery:
				if m.OldRing == n.oldRing {
					if _, ok := n.oldHold[m.OldSeq]; !ok {
						n.oldHold[m.OldSeq] = &dataMsg{
							Ring:    n.oldRing,
							Seq:     m.OldSeq,
							Sender:  m.OldSndr,
							Kind:    msgRegular,
							DupKey:  m.DupKey,
							Payload: m.Payload,
						}
					}
				}
			case msgRegular:
				if m.Sender == n.me {
					mine = append(mine, m)
				}
			}
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i].Seq < mine[j].Seq })
		requeued := make([]*pending, 0, len(mine)+len(n.out.q))
		for _, m := range mine {
			requeued = append(requeued, &pending{
				payload: m.Payload, safe: m.Safe, dupKey: m.DupKey, sender: n.me})
		}
		n.out.q = append(requeued, n.out.q...)
	}
	n.state = stateGather
	n.cancelAllTimers()
	n.retained = nil

	n.procSet = make(map[transport.NodeID]bool)
	n.failSet = make(map[transport.NodeID]bool)
	n.joins = make(map[transport.NodeID]*joinMsg)
	n.procSet[n.me] = true
	for _, id := range n.members {
		n.procSet[id] = true
	}
	for _, id := range include {
		n.procSet[id] = true
	}
	for _, id := range suspect {
		if id != n.me {
			n.failSet[id] = true
		}
	}
	n.sendJoin()
	n.armConsensusTimer()
	n.checkConsensus()
}

// snapshotOldRing captures what this node holds of the current ring, for the
// recovery phase of the next membership change.
func (n *totemNode) snapshotOldRing() {
	n.tryDeliver()
	n.oldRing = n.ring
	n.oldDelivered = n.delivered
	n.oldHold = n.received
}

func (n *totemNode) sendJoin() {
	j := &joinMsg{
		Sender:     n.me,
		ProcSet:    setToSorted(n.procSet),
		FailSet:    setToSorted(n.failSet),
		MaxRingSeq: n.maxRingSeq,
	}
	pkt := encodeJoin(j)
	_ = n.tr.Broadcast(pkt)
	// Process the local node's own join directly.
	n.joins[n.me] = j
}

func (n *totemNode) armConsensusTimer() {
	cancelTimer(&n.consensusTimer)
	n.consensusTimer = n.rt.After(n.tun.JoinTimeout, func() {
		if n.state != stateGather {
			return
		}
		// Give up on candidates that never answered.
		changed := false
		for _, id := range n.candidates() {
			if _, ok := n.joins[id]; !ok && id != n.me {
				n.failSet[id] = true
				changed = true
			}
		}
		if changed {
			n.sendJoin()
		} else {
			// Re-broadcast in case our join was lost.
			n.sendJoin()
		}
		n.armConsensusTimer()
		n.checkConsensus()
	})
}

// onJoin handles a join message.
func (n *totemNode) onJoin(j *joinMsg) {
	if n.state == stateStopped {
		return
	}
	if j.MaxRingSeq > n.maxRingSeq {
		n.maxRingSeq = j.MaxRingSeq
	}
	switch n.state {
	case stateIdle:
		// Not started yet; the joiner will retry.
	case stateOperational, stateCommit, stateRecover:
		if slices.Contains(n.members, j.Sender) && j.MaxRingSeq < n.maxRingSeq {
			// A straggler join from the gather that produced the current
			// (or forming) ring: the sender is already with us, or — if it
			// is genuinely stuck — the ring's token-loss timeout will
			// trigger a fresh gather whose joins carry a current ring
			// sequence number. Reacting here would livelock membership.
			return
		}
		// Seed the gather with the join's proposal: otherwise a node whose
		// current membership is only itself reaches instant consensus on a
		// singleton ring before the join is merged.
		include := append([]transport.NodeID{j.Sender}, j.ProcSet...)
		n.startGatherInclude(include, nil)
		n.mergeJoin(j)
	case stateGather:
		n.mergeJoin(j)
	}
}

func (n *totemNode) mergeJoin(j *joinMsg) {
	changed := false
	if !n.procSet[j.Sender] {
		n.procSet[j.Sender] = true
		changed = true
	}
	for _, id := range j.ProcSet {
		if !n.procSet[id] {
			n.procSet[id] = true
			changed = true
		}
	}
	for _, id := range j.FailSet {
		if id != n.me && !n.failSet[id] {
			n.failSet[id] = true
			changed = true
		}
	}
	n.joins[j.Sender] = j
	if changed {
		n.sendJoin()
	}
	n.checkConsensus()
}

// candidates returns procSet − failSet, sorted.
func (n *totemNode) candidates() []transport.NodeID {
	out := make([]transport.NodeID, 0, len(n.procSet))
	for id := range n.procSet {
		if !n.failSet[id] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkConsensus tests whether every candidate has proposed exactly this
// node's candidate set, and forms the new ring if so.
func (n *totemNode) checkConsensus() {
	if n.state != stateGather {
		return
	}
	cand := n.candidates()
	if len(cand) == 0 || !slices.Contains(cand, n.me) {
		return
	}
	for _, id := range cand {
		j, ok := n.joins[id]
		if !ok {
			return
		}
		if !sameCandidates(j, cand, n.failSet) {
			return
		}
	}
	n.formRing(cand)
}

// sameCandidates reports whether join j's proposal (ProcSet − its FailSet,
// further reduced by our fail set) equals cand.
func sameCandidates(j *joinMsg, cand []transport.NodeID, ourFails map[transport.NodeID]bool) bool {
	fails := make(map[transport.NodeID]bool, len(j.FailSet))
	for _, id := range j.FailSet {
		fails[id] = true
	}
	var c []transport.NodeID
	for _, id := range j.ProcSet {
		if !fails[id] && !ourFails[id] {
			c = append(c, id)
		}
	}
	c = sortedNodes(c)
	if len(c) != len(cand) {
		return false
	}
	for i := range c {
		if c[i] != cand[i] {
			return false
		}
	}
	return true
}

func setToSorted(set map[transport.NodeID]bool) []transport.NodeID {
	out := make([]transport.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// formRing transitions gather → commit. The representative (lowest id)
// creates the commit token and circulates it around the prospective ring.
func (n *totemNode) formRing(cand []transport.NodeID) {
	newSeq := n.maxRingSeq + 1
	if n.ring.Epoch >= newSeq {
		newSeq = n.ring.Epoch + 1
	}
	n.maxRingSeq = newSeq
	newRing := ViewID{Epoch: newSeq, Rep: cand[0]}
	n.state = stateCommit
	n.members = cand
	cancelTimer(&n.consensusTimer)
	n.armCommitTimer()

	if n.me == newRing.Rep {
		ct := &commitToken{Ring: newRing, Members: cand,
			Infos: []memberInfo{n.myMemberInfo()}}
		n.forwardCommit(ct)
	}
}

func (n *totemNode) armCommitTimer() {
	cancelTimer(&n.commitTimer)
	n.commitTimer = n.rt.After(n.tun.CommitTimeout, func() {
		if n.state != stateCommit {
			return
		}
		// The commit token was lost or a member died; run gather again.
		n.startGather(nil)
	})
}

// myMemberInfo summarizes this node's old-ring holdings for the commit token.
func (n *totemNode) myMemberInfo() memberInfo {
	info := memberInfo{
		ID:      n.me,
		OldRing: n.oldRing,
		Aru:     n.oldDelivered,
		HighSeq: n.oldDelivered,
	}
	for s := range n.oldHold {
		if s > n.oldDelivered {
			info.Received = append(info.Received, s)
			if s > info.HighSeq {
				info.HighSeq = s
			}
		}
	}
	sort.Slice(info.Received, func(i, j int) bool { return info.Received[i] < info.Received[j] })
	return info
}

// forwardCommit sends the commit token to this node's successor among the
// prospective members (or handles it directly on a ring of one).
func (n *totemNode) forwardCommit(ct *commitToken) {
	succ := successorIn(ct.Members, n.me)
	if succ == n.me {
		cp := *ct
		n.rt.Post(func() { n.onCommit(&cp) })
		return
	}
	_ = n.tr.Send(succ, encodeCommit(ct))
}

func successorIn(members []transport.NodeID, me transport.NodeID) transport.NodeID {
	for _, id := range members {
		if id > me {
			return id
		}
	}
	return members[0]
}

// onCommit handles a commit token.
func (n *totemNode) onCommit(ct *commitToken) {
	if n.state == stateStopped || !slices.Contains(ct.Members, n.me) {
		return
	}
	switch n.state {
	case stateGather, stateCommit:
		if ct.hasInfo(n.me) {
			if ct.complete() {
				cancelTimer(&n.commitTimer)
				forward := *ct // forward before mutating our state
				n.enterRecover(ct)
				// Pass the complete token on: this is the second rotation,
				// which distributes the full member information. The
				// representative, which receives the token again at the end
				// of that rotation while already in the recover state,
				// drops it in the default case below.
				n.forwardCommitComplete(&forward)
				return
			}
			return // partially-filled token looped badly; ignore
		}
		// First rotation: contribute this node's info and forward. Accept
		// the proposed membership if it is compatible with what we know
		// (we are in it, and nobody we have failed is).
		for _, id := range ct.Members {
			if n.failSet[id] {
				return
			}
		}
		ct.Infos = append(ct.Infos, n.myMemberInfo())
		n.state = stateCommit
		n.members = append([]transport.NodeID(nil), ct.Members...)
		n.armCommitTimer()
		if ct.complete() {
			// This node is the last member before the representative and
			// completes the token; handle it as complete immediately and
			// also pass it to the representative.
			cancelTimer(&n.commitTimer)
			forward := *ct
			n.enterRecover(ct)
			n.forwardCommitComplete(&forward)
			return
		}
		n.forwardCommit(ct)
	default:
		// Operational or recover: stale commit token, drop.
	}
}

func (n *totemNode) forwardCommitComplete(ct *commitToken) {
	succ := successorIn(ct.Members, n.me)
	if succ == n.me {
		return // ring of one: nobody else needs it
	}
	// The representative forwards at the end of rotation one; everyone else
	// forwards the complete token exactly once as it passes.
	_ = n.tr.Send(succ, encodeCommit(ct))
}

func (ct *commitToken) hasInfo(id transport.NodeID) bool {
	for i := range ct.Infos {
		if ct.Infos[i].ID == id {
			return true
		}
	}
	return false
}

// enterRecover installs the new ring, computes recovery duties from the
// commit token, and (at the representative) launches the new ring's token.
// Old-ring messages are rebroadcast as recovery messages on the new ring,
// each by the lowest-id member that holds it, followed by an end-of-recovery
// marker from every member; once every marker has been delivered, the
// recovered messages are delivered in old-ring order and the new view is
// installed.
func (n *totemNode) enterRecover(ct *commitToken) {
	n.state = stateRecover
	n.cancelAllTimers()
	n.ring = ct.Ring
	n.members = append([]transport.NodeID(nil), ct.Members...)
	if n.ring.Epoch > n.maxRingSeq {
		n.maxRingSeq = n.ring.Epoch
	}

	// Reset per-ring state.
	n.lastTokenSeq = 0
	n.highSeq = 0
	n.myAru = 0
	n.delivered = 0
	n.gcPoint = 0
	n.prevTokenAru = 0
	n.safePoint = 0
	n.received = make(map[uint64]*dataMsg)
	n.retained = nil
	n.recq = nil
	n.recOld = make(map[uint64]*dataMsg)
	n.endMarkers = make(map[transport.NodeID]bool)
	n.heldRegular = nil

	// Compute this node's rebroadcast duty for its old-ring cohort.
	if n.oldRing != (ViewID{}) {
		cohort := make([]memberInfo, 0, len(ct.Infos))
		for _, info := range ct.Infos {
			if info.OldRing == n.oldRing {
				cohort = append(cohort, info)
			}
		}
		low := ^uint64(0)
		for _, info := range cohort {
			if info.Aru < low {
				low = info.Aru
			}
		}
		// holders[s] = lowest-id cohort member that holds old message s>low.
		// A member's Received list is an explicit claim: it holds exactly
		// those. Its (low, Aru] range is only a claim to have DELIVERED them;
		// it may have discarded a prefix since (discardThrough). So explicit
		// claims win, and a range claim stands only for a sequence nobody
		// lists — which proves the claimant still holds it: a member discards
		// s only once every member has received it, and the member whose Aru
		// is low has then received s without delivering it, so it lists s.
		lowest := func(m map[uint64]transport.NodeID, s uint64, id transport.NodeID) {
			if cur, ok := m[s]; !ok || id < cur {
				m[s] = id
			}
		}
		holders := make(map[uint64]transport.NodeID)
		for _, info := range cohort {
			for _, s := range info.Received {
				if s > low {
					lowest(holders, s, info.ID)
				}
			}
		}
		ranged := make(map[uint64]transport.NodeID)
		for _, info := range cohort {
			for s := low + 1; s <= info.Aru; s++ {
				if _, listed := holders[s]; !listed {
					lowest(ranged, s, info.ID)
				}
			}
		}
		for s, id := range ranged {
			holders[s] = id
		}
		duty := make([]uint64, 0, len(holders))
		for s, id := range holders {
			if id == n.me {
				duty = append(duty, s)
			}
		}
		sort.Slice(duty, func(i, j int) bool { return duty[i] < duty[j] })
		for _, s := range duty {
			orig, ok := n.oldHold[s]
			if !ok {
				continue // should not happen: duty is derived from held messages
			}
			n.recq = append(n.recq, &dataMsg{
				Kind:    msgRecovery,
				OldRing: n.oldRing,
				OldSeq:  s,
				OldSndr: orig.Sender,
				DupKey:  orig.DupKey,
				Payload: orig.Payload,
			})
		}
	}
	// Every member announces the end of its rebroadcasts.
	n.recq = append(n.recq, &dataMsg{Kind: msgEndRecovery})

	if n.me == n.ring.Rep {
		tk := &ringToken{Ring: n.ring, TokenSeq: 1, AruID: aruNone}
		n.rt.Post(func() { n.onToken(tk) })
	} else {
		n.armLossTimer()
	}
}

// completeRecovery delivers the recovered old-ring messages in old order,
// installs the new view, and flushes any regular messages that were
// delivered on the new ring while recovery was in progress.
func (n *totemNode) completeRecovery() {
	seqs := make([]uint64, 0, len(n.recOld))
	for s := range n.recOld {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		m := n.recOld[s]
		n.deliver(m.OldRing, m.OldSeq, m.OldSndr, m.Payload)
	}
	n.recOld = nil

	// The new ring's messages become this node's future "old ring" data.
	n.oldRing = n.ring
	n.oldDelivered = 0 // will be re-snapshotted on the next gather
	n.oldHold = make(map[uint64]*dataMsg)

	n.stats.Memberships++
	n.primary = len(n.members) >= n.quorum
	n.state = stateOperational
	if n.me == n.ring.Rep {
		n.armAnnounceTimer()
	}
	n.emitView(View{ID: n.ring, Members: slices.Clone(n.members), Primary: n.primary})

	held := n.heldRegular
	n.heldRegular = nil
	for _, m := range held {
		n.deliver(m.Ring, m.Seq, m.Sender, m.Payload)
	}
}
