package order

import (
	"cmp"
	"slices"

	"cts/internal/transport"
)

// membership is one processor's side of Totem's membership protocol
// (gather → commit → recover): the ring it is on or forming, the gather's
// proposal, and the snapshot of its old ring that the next recovery
// rebroadcasts. It does no I/O. Each transition takes one input (a gather's
// start, a join, an announce, a commit token, a timer expiry, the end of
// recovery) and returns the actions that carry it out, which totemNode
// performs in order (apply). So membership runs without a kernel, and a
// test can order, drop and replay its messages.
type membership struct {
	self    transport.NodeID
	state   nodeState
	ring    ViewID
	members []transport.NodeID

	// Gather state.
	procSet    map[transport.NodeID]bool
	failSet    map[transport.NodeID]bool
	joins      map[transport.NodeID]*joinMsg
	maxRingSeq uint64

	// Old-ring snapshot carried through membership for recovery.
	oldRing      ViewID
	oldDelivered uint64
	oldHold      map[uint64]*dataMsg
}

// action is one thing a transition asks totemNode to do.
type action struct {
	kind actKind
	join *joinMsg         // actJoin
	to   transport.NodeID // actCommit
	ct   *commitToken     // actCommit
	msgs []*dataMsg       // actRequeue, actRecover
}

type actKind uint8

const (
	actJoin            actKind = iota + 1 // broadcast join
	actCommit                             // send ct to `to`; to itself, post it
	actArmConsensus                       // (re)arm the consensus timer
	actCancelConsensus                    // cancel the consensus timer
	actArmCommit                          // (re)arm the commit timer
	actLeaveRing                          // cancel every timer, drop the retained token
	actRequeue                            // queue msgs, this node's own, ahead of the outbox
	actRecover                            // start recovering ring with the duty msgs
	actInstall                            // install ring and members as the view
)

// gather begins (or restarts) a gather whose proposal also names include: a
// join's or a foreign ring's members, so that consensus waits for them. rs
// is the token path's ring. Leaving an operational ring snapshots it, once,
// so that a gather restarted from commit or recover still recovers the
// original ring's messages; aborting a recovery salvages it.
func (mb *membership) gather(include []transport.NodeID, rs *ringState) []action {
	var acts []action
	switch mb.state {
	case stateStopped:
		return nil
	case stateOperational, stateIdle:
		mb.oldRing, mb.oldDelivered, mb.oldHold = mb.ring, rs.delivered, rs.received
	case stateRecover:
		acts = mb.salvage(rs)
	}
	mb.state = stateGather
	mb.procSet = map[transport.NodeID]bool{mb.self: true}
	mb.failSet = make(map[transport.NodeID]bool)
	mb.joins = make(map[transport.NodeID]*joinMsg)
	mb.propose(mb.members...)
	mb.propose(include...)
	acts = append(acts, action{kind: actLeaveRing}, mb.sendJoin(), action{kind: actArmConsensus})
	return append(acts, mb.checkConsensus()...)
}

// salvage folds an aborted recovery into the next one. Nothing broadcast on
// the aborted ring ever reached the application (regular messages are held
// until recovery completes), so its traffic is salvaged without
// application-level duplicates: recovered old-ring messages, delivered or
// merely received, are folded back into the old-ring holdings, and this
// node's own regular messages are re-queued for the next ring, in their
// original order, ahead of anything newer.
func (mb *membership) salvage(rs *ringState) []action {
	keep := func(r *dataMsg) {
		if _, ok := mb.oldHold[r.OldSeq]; !ok && r.OldRing == mb.oldRing {
			mb.oldHold[r.OldSeq] = &dataMsg{Ring: mb.oldRing, Seq: r.OldSeq, Sender: r.OldSndr,
				Kind: msgRegular, DupKey: r.DupKey, Payload: r.Payload}
		}
	}
	for _, r := range rs.recOld {
		keep(r)
	}
	var mine []*dataMsg
	for _, r := range rs.received {
		switch {
		case r.Kind == msgRecovery:
			keep(r)
		case r.Kind == msgRegular && r.Sender == mb.self:
			mine = append(mine, r)
		}
	}
	slices.SortFunc(mine, func(a, b *dataMsg) int { return cmp.Compare(a.Seq, b.Seq) })
	return []action{{kind: actRequeue, msgs: mine}}
}

// sendJoin records this node's proposal as its own join and returns its
// broadcast.
func (mb *membership) sendJoin() action {
	j := &joinMsg{
		Sender:     mb.self,
		ProcSet:    sortedNodes(mb.procSet),
		FailSet:    sortedNodes(mb.failSet),
		MaxRingSeq: mb.maxRingSeq,
	}
	mb.joins[mb.self] = j
	return action{kind: actJoin, join: j}
}

// propose adds ids to the proposal and reports whether any was new.
func (mb *membership) propose(ids ...transport.NodeID) bool {
	changed := false
	for _, id := range ids {
		if !mb.procSet[id] {
			mb.procSet[id] = true
			changed = true
		}
	}
	return changed
}

// consensusExpired gives up on the candidates that never answered and
// re-broadcasts this node's join, in case it was lost.
func (mb *membership) consensusExpired() []action {
	if mb.state != stateGather {
		return nil
	}
	for _, id := range sortedNodes(mb.procSet, mb.failSet) {
		if _, ok := mb.joins[id]; !ok && id != mb.self {
			mb.failSet[id] = true
		}
	}
	acts := []action{mb.sendJoin(), {kind: actArmConsensus}}
	return append(acts, mb.checkConsensus()...)
}

// join handles a join message; rs is as for gather.
func (mb *membership) join(j *joinMsg, rs *ringState) []action {
	if mb.state == stateStopped {
		return nil
	}
	mb.maxRingSeq = max(mb.maxRingSeq, j.MaxRingSeq)
	switch mb.state {
	case stateOperational, stateCommit, stateRecover:
		if slices.Contains(mb.members, j.Sender) && j.MaxRingSeq < mb.maxRingSeq {
			// A straggler join from the gather that produced the current
			// (or forming) ring: the sender is already with us, or — if it
			// is genuinely stuck — the ring's token-loss timeout will
			// trigger a fresh gather whose joins carry a current ring
			// sequence number. Reacting here would livelock membership.
			return nil
		}
		// Seed the gather with the join's proposal: otherwise a node whose
		// current membership is only itself reaches instant consensus on a
		// singleton ring before the join is merged.
		acts := mb.gather(append([]transport.NodeID{j.Sender}, j.ProcSet...), rs)
		return append(acts, mb.merge(j)...)
	case stateGather:
		return mb.merge(j)
	}
	return nil // idle: not started yet; the joiner will retry
}

// merge widens this node's proposal and fail set by join j's, re-broadcasts
// a widened proposal, and checks for consensus.
func (mb *membership) merge(j *joinMsg) []action {
	changed := mb.propose(j.Sender)
	changed = mb.propose(j.ProcSet...) || changed
	for _, id := range j.FailSet {
		if id != mb.self && !mb.failSet[id] {
			mb.failSet[id] = true
			changed = true
		}
	}
	mb.joins[j.Sender] = j
	var acts []action
	if changed {
		acts = append(acts, mb.sendJoin())
	}
	return append(acts, mb.checkConsensus()...)
}

// announce reacts to a foreign ring's beacon: an operational node that sees
// a ring ordered above its own starts a gather to merge (the joins it
// broadcasts pull the other ring in); a gathering node adds the announced
// members to its proposal and re-broadcasts, so they hear from it. Either
// way the node's ring-sequence knowledge is refreshed, so that its joins
// are not discarded as stale by operational peers. rs is as for gather.
func (mb *membership) announce(a *announceMsg, rs *ringState) []action {
	mb.maxRingSeq = max(mb.maxRingSeq, a.Ring.Epoch)
	switch mb.state {
	case stateOperational:
		if mb.ring.Less(a.Ring) {
			return mb.gather(a.Members, rs)
		}
	case stateGather:
		changed := mb.propose(a.Members...)
		acts := []action{mb.sendJoin()}
		if changed {
			acts = append(acts, mb.checkConsensus()...)
		}
		return acts
	}
	return nil
}

// checkConsensus forms the new ring once every candidate (procSet −
// failSet) has proposed exactly this node's candidate set: its ProcSet less
// its own and this node's fail sets.
func (mb *membership) checkConsensus() []action {
	if mb.state != stateGather {
		return nil
	}
	cand := sortedNodes(mb.procSet, mb.failSet)
	if !slices.Contains(cand, mb.self) {
		return nil
	}
	for _, id := range cand {
		j, ok := mb.joins[id]
		if !ok || !slices.Equal(sortedNodes(setOf(j.ProcSet), setOf(j.FailSet), mb.failSet), cand) {
			return nil
		}
	}
	return mb.formRing(cand)
}

// formRing moves gather → commit under a ring sequence number above every
// one this node has seen. The representative (lowest id) creates the commit
// token and sends it around the prospective ring.
func (mb *membership) formRing(cand []transport.NodeID) []action {
	mb.maxRingSeq = max(mb.maxRingSeq, mb.ring.Epoch) + 1
	mb.state = stateCommit
	mb.members = cand
	acts := []action{{kind: actCancelConsensus}, {kind: actArmCommit}}
	if mb.self == cand[0] {
		ct := &commitToken{Ring: ViewID{Epoch: mb.maxRingSeq, Rep: cand[0]}, Members: cand,
			Infos: []memberInfo{mb.memberInfo()}}
		acts = append(acts, action{kind: actCommit, to: successor(cand, mb.self), ct: ct})
	}
	return acts
}

// commitExpired runs gather again: the commit token was lost or a member
// died. A committing node has no ring to snapshot or salvage.
func (mb *membership) commitExpired() []action {
	if mb.state != stateCommit {
		return nil
	}
	return mb.gather(nil, nil)
}

// memberInfo summarizes this node's old-ring holdings for the commit token.
func (mb *membership) memberInfo() memberInfo {
	info := memberInfo{
		ID:      mb.self,
		OldRing: mb.oldRing,
		Aru:     mb.oldDelivered,
		HighSeq: mb.oldDelivered,
	}
	for s := range mb.oldHold {
		if s > mb.oldDelivered {
			info.Received = append(info.Received, s)
			info.HighSeq = max(info.HighSeq, s)
		}
	}
	slices.Sort(info.Received)
	return info
}

// commit handles a commit token. Its first rotation collects every member's
// info; once complete, each member enters recovery and passes the token on,
// so that its second rotation distributes the full member information. The
// representative, which receives the token again at the end of that
// rotation while already recovering, drops it as stale.
func (mb *membership) commit(ct *commitToken) []action {
	if (mb.state != stateGather && mb.state != stateCommit) || !slices.Contains(ct.Members, mb.self) {
		return nil // operational, recovering or stopped: a stale commit token
	}
	var acts []action
	succ := successor(ct.Members, mb.self)
	if ct.hasInfo(mb.self) {
		if !ct.complete() {
			return nil // a partially filled token looped back: ignore it
		}
	} else {
		// First rotation: contribute this node's info and forward. Accept
		// the proposed membership if it is compatible with what we know
		// (we are in it, and nobody we have failed is).
		for _, id := range ct.Members {
			if mb.failSet[id] {
				return nil
			}
		}
		ct.Infos = append(ct.Infos, mb.memberInfo())
		mb.state = stateCommit
		mb.members = slices.Clone(ct.Members)
		acts = append(acts, action{kind: actArmCommit})
		if !ct.complete() {
			return append(acts, action{kind: actCommit, to: succ, ct: ct})
		}
	}
	acts = append(acts, mb.enterRecover(ct))
	if succ != mb.self { // on a ring of one nobody else needs it
		acts = append(acts, action{kind: actCommit, to: succ, ct: ct})
	}
	return acts
}

// enterRecover installs the complete commit token's ring as the one being
// recovered and returns this node's recovery duty. Old-ring messages are
// rebroadcast as recovery messages on the new ring, each by the lowest-id
// member that holds it, followed by an end-of-recovery marker from every
// member; once every marker has been delivered, the recovered messages are
// delivered in old-ring order and the new view is installed (recovered).
func (mb *membership) enterRecover(ct *commitToken) action {
	mb.state = stateRecover
	mb.ring = ct.Ring
	mb.members = slices.Clone(ct.Members)
	mb.maxRingSeq = max(mb.maxRingSeq, ct.Ring.Epoch)
	var duty []*dataMsg
	if mb.oldRing != (ViewID{}) {
		for _, s := range mb.duty(ct.Infos) {
			orig, ok := mb.oldHold[s]
			if !ok {
				continue // should not happen: duty is derived from held messages
			}
			duty = append(duty, &dataMsg{Kind: msgRecovery, OldRing: mb.oldRing, OldSeq: s,
				OldSndr: orig.Sender, DupKey: orig.DupKey, Payload: orig.Payload})
		}
	}
	// Every member announces the end of its rebroadcasts.
	return action{kind: actRecover, msgs: append(duty, &dataMsg{Kind: msgEndRecovery})}
}

// duty returns, in order, the old-ring sequence numbers this node must
// rebroadcast: those its old-ring cohort in infos holds above the cohort's
// lowest aru, where this node is the lowest-id holder.
func (mb *membership) duty(infos []memberInfo) []uint64 {
	cohort := make([]memberInfo, 0, len(infos))
	low := ^uint64(0)
	for _, info := range infos {
		if info.OldRing == mb.oldRing {
			cohort = append(cohort, info)
			low = min(low, info.Aru)
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
	var duty []uint64
	for s, id := range ranged {
		holders[s] = id
	}
	for s, id := range holders {
		if id == mb.self {
			duty = append(duty, s)
		}
	}
	slices.Sort(duty)
	return duty
}

// recovered ends recovery: the new ring's messages become this node's
// future old-ring data, and the view is installed.
func (mb *membership) recovered() []action {
	mb.oldRing = mb.ring
	mb.oldDelivered = 0 // re-snapshotted on the next gather
	mb.oldHold = make(map[uint64]*dataMsg)
	mb.state = stateOperational
	return []action{{kind: actInstall}}
}

func (ct *commitToken) hasInfo(id transport.NodeID) bool {
	return slices.ContainsFunc(ct.Infos, func(info memberInfo) bool { return info.ID == id })
}
