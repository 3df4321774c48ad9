package order

import (
	"fmt"
	"slices"
	"time"

	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/transport"
)

// Defaults, calibrated for the simulated 100 Mb/s testbed (token rotation on
// a 4-node ring is ≈220 µs). Deployments over real networks should raise them
// via TotemTuning.
const (
	defaultTokenLoss     = 10 * time.Millisecond
	defaultTokenRetrans  = 2 * time.Millisecond
	defaultJoinTimeout   = 4 * time.Millisecond
	defaultCommitTimeout = 10 * time.Millisecond
	defaultAnnounce      = 25 * time.Millisecond
	selfHopDelay         = 10 * time.Microsecond // token hop on a ring of one
)

type nodeState int

const (
	stateIdle nodeState = iota
	stateOperational
	stateGather
	stateCommit
	stateRecover
	stateStopped
)

func (s nodeState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateOperational:
		return "operational"
	case stateGather:
		return "gather"
	case stateCommit:
		return "commit"
	case stateRecover:
		return "recover"
	case stateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// totemNode is one processor running the Totem single-ring ordering and
// membership protocol (Amir, Moser, Melliar-Smith, Agarwal, Ciarfella, ACM
// TOCS 1995), the group-communication substrate of the paper's consistent
// time service.
//
// Processors are arranged on a logical ring in NodeID order. A token rotates
// around the ring; only the token holder broadcasts messages, stamping each
// with the next global sequence number, which yields reliable totally-ordered
// delivery. The token carries an all-received-up-to (aru) field and a
// retransmission-request list, giving loss recovery. Token loss or a foreign
// join message triggers the membership protocol (gather → commit → recover):
// processors reach consensus on a new ring, exchange the messages of their
// old rings on the new ring, deliver them in the old order, and install the
// new configuration. A primary-component rule masks network partitions: only
// the component holding a quorum keeps delivering new messages (§2 of the
// paper: "only the primary component survives a network partition").
//
// All state is confined to the configured Runtime loop; public methods are
// safe to call from any goroutine (they post to the loop), and accessor
// methods document when they must run on the loop.
type totemNode struct {
	endpoint
	membership
	ringState
	tun TotemTuning
	rt  sim.Runtime
	tr  transport.Transport

	primary bool
	quorum  int

	// out queues application broadcasts for the token visit, and its key
	// window holds the logical identities received. Keys outlive their
	// message: discarding received[s] does not forget its key.
	out outbox

	retransTimer   sim.Canceler
	lossTimer      sim.Canceler
	consensusTimer sim.Canceler
	commitTimer    sim.Canceler
	announceTimer  sim.Canceler

	stats totemStats
	obs   *obs.Recorder
	// tokenHook, when set, sees every regular token this node handles
	// (after deduplication), for tests that inspect whole tokens.
	tokenHook func(ringToken)
	// safeWaitSeq is the message sequence currently blocked on the safe
	// point, for the safe_wait/safe_delivered trace pair.
	safeWaitSeq uint64
}

// ringState is the token path's state for one ring, reset as a whole when
// the node enters a new ring's recovery.
type ringState struct {
	lastTokenSeq uint64
	highSeq      uint64
	myAru        uint64
	// received holds the ring's messages above gcPoint. Everything at or
	// below gcPoint has been delivered here and is held by every member (see
	// discardThrough), so neither retransmission nor recovery can need it.
	received  map[uint64]*dataMsg
	delivered uint64
	gcPoint   uint64
	// prevTokenAru is the token's aru as it ARRIVED on the previous visit;
	// with this visit's incoming aru it is the discard rule's evidence.
	prevTokenAru uint64
	safePoint    uint64
	recq         []*dataMsg
	retained     []byte // encoded last-forwarded token, for retransmission

	// Recovery state.
	recOld      map[uint64]*dataMsg
	endMarkers  map[transport.NodeID]bool
	heldRegular []*dataMsg
}

func newTotemOrderer(env Env, opts Options) (Orderer, error) {
	t := opts.Totem
	t.TokenLossTimeout = defaultDur(t.TokenLossTimeout, defaultTokenLoss)
	t.TokenRetransTimeout = defaultDur(t.TokenRetransTimeout, defaultTokenRetrans)
	t.JoinTimeout = defaultDur(t.JoinTimeout, defaultJoinTimeout)
	t.CommitTimeout = defaultDur(t.CommitTimeout, defaultCommitTimeout)
	t.AnnounceInterval = defaultDur(t.AnnounceInterval, defaultAnnounce)
	me := env.Transport.LocalID()
	set := setOf(env.Members)
	set[me] = true
	members := sortedNodes(set)
	n := &totemNode{
		endpoint:   endpoint{env: env, me: me},
		membership: membership{self: me, members: members, oldHold: make(map[uint64]*dataMsg)},
		ringState:  ringState{received: make(map[uint64]*dataMsg)},
		tun:        t,
		rt:         env.Runtime,
		tr:         env.Transport,
		quorum:     majority(len(members)),
		obs:        env.Obs,
	}
	env.Obs.Register(n)
	env.Transport.SetReceiver(hop(n.rt, n.dispatch))
	return n, nil
}

// Start begins protocol activity.
func (n *totemNode) Start() {
	n.rt.Post(func() {
		if n.state != stateIdle {
			return
		}
		if n.env.Bootstrap {
			n.ring = ViewID{Epoch: 1, Rep: n.members[0]}
			n.maxRingSeq = 1
			n.state = stateOperational
			n.primary = len(n.members) >= n.quorum
			n.emitView(View{ID: n.ring, Members: slices.Clone(n.members), Primary: n.primary})
			if n.me == n.ring.Rep {
				tk := &ringToken{Ring: n.ring, TokenSeq: 1, AruID: aruNone}
				n.rt.Post(func() { n.onToken(tk) })
				n.armAnnounceTimer()
			} else {
				n.armLossTimer()
			}
			return
		}
		// Joining: provoke a membership round with the known peers.
		n.startGather(nil)
	})
}

// Stop halts the node: timers are cancelled and all further traffic is
// ignored. Stop does not close the transport.
func (n *totemNode) Stop() {
	n.rt.Post(func() {
		n.state = stateStopped
		n.cancelAllTimers()
	})
}

// Broadcast queues payload for totally-ordered delivery to the group. The
// payload is copied. Safe to call from any goroutine.
func (n *totemNode) Broadcast(payload []byte) error {
	p := newPending(n.me, payload, false, 0)
	n.rt.Post(func() {
		if n.state != stateStopped {
			n.out.add(p)
		}
	})
	return nil
}

// BroadcastCancelable implements Orderer. The message goes out at the next
// token visit; a safe one is delivered once the token's all-received-up-to
// field shows that every processor on the ring holds it ("if the message is
// delivered to any non-faulty replica, it will be delivered to all
// non-faulty replicas", §3 of the paper).
func (n *totemNode) BroadcastCancelable(payload []byte, safe bool, dupKey uint64) func() bool {
	p := newPending(n.me, payload, safe, dupKey)
	if n.state != stateStopped {
		n.out.add(p)
	}
	return p.cancel
}

// ObsSamples implements obs.Source under the canonical totem.* names.
// Loop-only.
func (n *totemNode) ObsSamples() []obs.Sample {
	id := uint32(n.me)
	return []obs.Sample{
		{Node: id, Name: "totem.tokens_handled", Value: n.stats.TokensHandled},
		{Node: id, Name: "totem.broadcasts", Value: n.stats.Broadcasts},
		{Node: id, Name: "totem.retransmissions", Value: n.stats.Retransmissions},
		{Node: id, Name: "totem.delivered", Value: n.totalOrder},
		{Node: id, Name: "totem.suppressed", Value: n.stats.Suppressed},
		{Node: id, Name: "totem.memberships", Value: n.stats.Memberships},
		{Node: id, Name: "totem.token_retrans", Value: n.stats.TokenRetrans},
		{Node: id, Name: "totem.token_losses", Value: n.stats.TokenLosses},
		// Gauges: what the ring still retains (messages and duplicate keys),
		// and up to where it let go.
		{Node: id, Name: "totem.retained_msgs", Value: uint64(len(n.received))},
		{Node: id, Name: "totem.discard_point", Value: n.gcPoint},
		{Node: id, Name: "totem.dup_keys", Value: uint64(n.out.keys.Len())},
	}
}

// dispatch handles one inbound datagram. Loop-only.
func (n *totemNode) dispatch(_ transport.NodeID, pkt []byte) {
	if n.state == stateStopped {
		return
	}
	switch pkt[0] {
	case pktData:
		if m, err := decodeData(pkt[1:]); err == nil {
			n.onData(m)
		}
	case pktToken:
		if tk, err := decodeToken(pkt[1:]); err == nil {
			n.onToken(tk)
		}
	case pktJoin:
		if j, err := decodeJoin(pkt[1:]); err == nil {
			n.apply(n.join(j, n.hold()))
		}
	case pktCommit:
		if ct, err := decodeCommit(pkt[1:]); err == nil {
			n.apply(n.commit(ct))
		}
	case pktAnnounce:
		if a, err := decodeAnnounce(pkt[1:]); err == nil {
			n.apply(n.announce(a, n.hold()))
		}
	}
}

// onToken handles a regular token.
func (n *totemNode) onToken(tk *ringToken) {
	if tk.Ring != n.ring {
		// A token from a newer ring means we missed a membership change
		// while operational; rejoin. In gather/commit the pending commit
		// token (or its retransmission) will move us forward, so drop it.
		if n.state == stateOperational && n.ring.Less(tk.Ring) {
			n.startGather(nil)
		}
		return
	}
	if n.state != stateOperational && n.state != stateRecover {
		return
	}
	if tk.TokenSeq <= n.lastTokenSeq {
		return // duplicate or stale token
	}
	n.lastTokenSeq = tk.TokenSeq
	n.stats.TokensHandled++
	n.obs.Trace(obs.ScopeTotem, obs.EvTokenRecv, 0, tk.TokenSeq, int64(tk.Aru), "")
	if n.tokenHook != nil {
		n.tokenHook(*tk)
	}
	// Track the safe point from the INCOMING aru, before this node's own
	// updates: an arriving aru of s proves that every processor that
	// handled the token since message s was broadcast had received it — a
	// full rotation of evidence. (Using the outgoing aru would wrongly
	// count this node's own still-in-flight broadcasts as safe.)
	if tk.Aru > n.safePoint {
		n.safePoint = tk.Aru
	}
	aruIn := tk.Aru
	cancelTimer(&n.retransTimer)
	cancelTimer(&n.lossTimer)

	if tk.Seq > n.highSeq {
		n.highSeq = tk.Seq
	}

	// 1. Retransmit requested messages this node holds.
	var rtr []uint64
	for _, s := range tk.Rtr {
		if m, ok := n.received[s]; ok {
			n.sendData(m)
			n.stats.Retransmissions++
		} else if s <= tk.Seq {
			rtr = append(rtr, s)
		}
	}

	// 2. Broadcast pending messages, recovery traffic first.
	budget := maxMessagesPerToken
	var fcc uint32
	for budget > 0 && len(n.recq) > 0 {
		m := n.recq[0]
		n.recq = n.recq[1:]
		tk.Seq++
		m.Ring, m.Seq, m.Sender = n.ring, tk.Seq, n.me
		n.storeReceived(m)
		n.sendData(m)
		budget--
		fcc++
	}
	for budget > 0 && len(n.out.q) > 0 && n.state == stateOperational {
		p := n.out.q[0]
		n.out.q = n.out.q[1:]
		if n.out.withdrawn(p, &n.stats.Suppressed) {
			continue
		}
		tk.Seq++
		m := &dataMsg{Ring: n.ring, Seq: tk.Seq, Sender: n.me,
			Kind: msgRegular, Safe: p.safe, DupKey: p.dupKey, Payload: p.payload}
		p.sent = true
		n.storeReceived(m)
		n.sendData(m)
		budget--
		fcc++
	}
	if tk.Seq > n.highSeq {
		n.highSeq = tk.Seq
	}

	// 3. Update the token's all-received-up-to field.
	n.updateAru()
	if n.myAru < tk.Aru || tk.AruID == n.me || tk.AruID == aruNone {
		tk.Aru = n.myAru
		if tk.Aru >= tk.Seq {
			tk.AruID = aruNone
		} else {
			tk.AruID = n.me
		}
	}

	// 4. Request retransmission of messages this node is missing.
	for s := n.myAru + 1; s <= tk.Seq; s++ {
		if _, ok := n.received[s]; !ok {
			rtr = append(rtr, s)
		}
	}
	tk.Rtr = dedupSorted(rtr)
	tk.Fcc = fcc

	// 5. Forward the token before delivering, so that on a real network the
	// successor's visit overlaps this node's delivery work. Delivery reads
	// only what the incoming token has already updated (aru, safe point) and
	// writes nothing the forwarded token carries; anything a delivery queues
	// goes out at this node's next visit either way.
	tk.TokenSeq++
	n.forwardToken(tk)

	// 6. Deliver.
	n.tryDeliver()

	// 7. Discard what the whole ring holds. One incoming aru is not a full
	// rotation of evidence (a holder of an aruNone token writes its own aru,
	// in-flight broadcasts included), but no member can have been below the
	// smaller of two consecutive incoming values: it would have lowered the
	// token between the two visits, and only it could have raised it again.
	// Recovery reads received (salvage, and oldHold aliases it), so a ring
	// still recovering keeps everything.
	if n.state == stateOperational {
		n.discardThrough(min(n.delivered, aruIn, n.prevTokenAru))
	}
	n.prevTokenAru = aruIn
}

// onData handles a broadcast data message.
func (n *totemNode) onData(m *dataMsg) {
	if m.Ring != n.ring {
		if n.state == stateOperational && n.ring.Less(m.Ring) {
			n.startGather(nil)
		}
		return
	}
	switch n.state {
	case stateOperational, stateRecover:
		if m.Seq > n.highSeq {
			n.highSeq = m.Seq
		}
		n.storeReceived(m)
		n.tryDeliver()
	case stateGather, stateCommit:
		// Still the old ring: retain for recovery.
		n.storeReceived(m)
	}
}

func (n *totemNode) storeReceived(m *dataMsg) {
	if m.Seq <= n.gcPoint {
		return // seq 0, or a late duplicate of a message already discarded
	}
	if _, ok := n.received[m.Seq]; !ok {
		n.received[m.Seq] = m
	}
	n.out.see(m.DupKey, len(n.members))
}

// discardThrough releases every retained message at or below limit.
func (n *totemNode) discardThrough(limit uint64) {
	for n.gcPoint < limit {
		n.gcPoint++
		delete(n.received, n.gcPoint)
	}
}

func (n *totemNode) updateAru() {
	for {
		if _, ok := n.received[n.myAru+1]; !ok {
			return
		}
		n.myAru++
	}
}

// tryDeliver delivers received messages in sequence order. Agreed messages
// deliver as soon as the prefix is complete; safe messages additionally
// wait for the safe point, holding later messages so that the total order
// is preserved.
func (n *totemNode) tryDeliver() {
	n.updateAru()
	for n.delivered < n.myAru {
		s := n.delivered + 1
		m, ok := n.received[s]
		if !ok {
			return
		}
		if m.Safe && s > n.safePoint {
			if n.safeWaitSeq != s {
				// First time this sequence blocks on the safe point: open the
				// safe-delivery wait sub-span (the paper's ≈300µs extra token
				// circulation, §4.3).
				n.safeWaitSeq = s
				n.obs.Trace(obs.ScopeTotem, obs.EvSafeWait, 0, s, int64(n.safePoint), "")
			}
			return
		}
		if m.Safe && n.safeWaitSeq == s {
			n.obs.Trace(obs.ScopeTotem, obs.EvSafeDelivered, 0, s, int64(n.safePoint), "")
		}
		n.delivered = s
		n.handleDelivered(m)
	}
}

// handleDelivered routes one totally-ordered message by kind and state.
func (n *totemNode) handleDelivered(m *dataMsg) {
	switch n.state {
	case stateOperational:
		if m.Kind == msgRegular {
			n.deliver(m.Ring, m.Seq, m.Sender, m.Payload)
		}
	case stateRecover:
		switch m.Kind {
		case msgRecovery:
			if m.OldRing == n.oldRing && m.OldSeq > n.oldDelivered {
				if _, ok := n.recOld[m.OldSeq]; !ok {
					n.recOld[m.OldSeq] = m
				}
			}
		case msgEndRecovery:
			n.endMarkers[m.Sender] = true
			if len(n.endMarkers) == len(n.members) {
				n.completeRecovery()
			}
		case msgRegular:
			n.heldRegular = append(n.heldRegular, m)
		}
	}
}

func (n *totemNode) sendData(m *dataMsg) {
	n.stats.Broadcasts++
	_ = n.tr.Broadcast(encodeData(m))
}

func (n *totemNode) forwardToken(tk *ringToken) {
	pkt, err := encodeToken(tk)
	if err != nil {
		// An unencodable token (absurd rtr list) would wedge the ring;
		// drop rtr and carry on — retransmission requests regenerate.
		tk.Rtr = nil
		pkt, _ = encodeToken(tk)
	}
	n.retained = pkt
	succ := successor(n.members, n.me)
	if succ == n.me {
		// Ring of one: loop the token back through the runtime.
		n.rt.After(selfHopDelay, func() {
			if tk2, err := decodeToken(pkt[1:]); err == nil {
				n.onToken(tk2)
			}
		})
	} else {
		_ = n.tr.Send(succ, pkt)
	}
	n.armRetransTimer()
	n.armLossTimer()
}

func (n *totemNode) armRetransTimer() {
	cancelTimer(&n.retransTimer)
	n.retransTimer = n.rt.After(n.tun.TokenRetransTimeout, n.retransmitToken)
}

func (n *totemNode) retransmitToken() {
	if n.state != stateOperational && n.state != stateRecover {
		return
	}
	if n.retained == nil {
		return
	}
	n.stats.TokenRetrans++
	succ := successor(n.members, n.me)
	if succ != n.me {
		_ = n.tr.Send(succ, n.retained)
	}
	n.retransTimer = n.rt.After(n.tun.TokenRetransTimeout, n.retransmitToken)
}

func (n *totemNode) armLossTimer() {
	cancelTimer(&n.lossTimer)
	n.lossTimer = n.rt.After(n.tun.TokenLossTimeout, func() {
		if n.state != stateOperational && n.state != stateRecover {
			return
		}
		n.stats.TokenLosses++
		n.startGather(nil)
	})
}

func (n *totemNode) cancelAllTimers() {
	cancelTimer(&n.retransTimer)
	cancelTimer(&n.lossTimer)
	cancelTimer(&n.consensusTimer)
	cancelTimer(&n.commitTimer)
	cancelTimer(&n.announceTimer)
}

// armAnnounceTimer schedules the periodic ring beacon; only the
// representative of an operational ring announces.
func (n *totemNode) armAnnounceTimer() {
	cancelTimer(&n.announceTimer)
	n.announceTimer = n.rt.After(n.tun.AnnounceInterval, func() {
		if n.state != stateOperational || n.me != n.ring.Rep {
			return
		}
		_ = n.tr.Broadcast(encodeAnnounce(&announceMsg{Ring: n.ring, Members: n.members}))
		n.armAnnounceTimer()
	})
}

// startGather starts a gather (membership.gather) whose proposal also names
// include.
func (n *totemNode) startGather(include []transport.NodeID) {
	n.apply(n.gather(include, n.hold()))
}

// hold returns the ring a gather would leave. An operational ring first
// delivers what it can, so that its snapshot is of a delivered prefix.
func (n *totemNode) hold() *ringState {
	if n.state == stateOperational || n.state == stateIdle {
		n.tryDeliver()
	}
	return &n.ringState
}

// apply carries out membership's actions, in order.
func (n *totemNode) apply(acts []action) {
	for _, a := range acts {
		switch a.kind {
		case actJoin:
			_ = n.tr.Broadcast(encodeJoin(a.join))
		case actCommit:
			if a.to == n.me {
				cp := *a.ct
				n.rt.Post(func() { n.apply(n.commit(&cp)) })
			} else {
				_ = n.tr.Send(a.to, encodeCommit(a.ct))
			}
		case actArmConsensus:
			cancelTimer(&n.consensusTimer)
			n.consensusTimer = n.rt.After(n.tun.JoinTimeout, func() { n.apply(n.consensusExpired()) })
		case actCancelConsensus:
			cancelTimer(&n.consensusTimer)
		case actArmCommit:
			cancelTimer(&n.commitTimer)
			n.commitTimer = n.rt.After(n.tun.CommitTimeout, func() { n.apply(n.commitExpired()) })
		case actLeaveRing:
			n.cancelAllTimers()
			n.retained = nil
		case actRequeue:
			q := make([]*pending, 0, len(a.msgs)+len(n.out.q))
			for _, m := range a.msgs {
				q = append(q, &pending{payload: m.Payload, safe: m.Safe, dupKey: m.DupKey, sender: n.me})
			}
			n.out.q = append(q, n.out.q...)
		case actRecover:
			n.cancelAllTimers()
			n.ringState = ringState{received: make(map[uint64]*dataMsg), recq: a.msgs,
				recOld: make(map[uint64]*dataMsg), endMarkers: make(map[transport.NodeID]bool)}
			if n.me == n.ring.Rep {
				tk := &ringToken{Ring: n.ring, TokenSeq: 1, AruID: aruNone}
				n.rt.Post(func() { n.onToken(tk) })
			} else {
				n.armLossTimer()
			}
		case actInstall:
			n.stats.Memberships++
			n.primary = len(n.members) >= n.quorum
			if n.me == n.ring.Rep {
				n.armAnnounceTimer()
			}
			n.emitView(View{ID: n.ring, Members: slices.Clone(n.members), Primary: n.primary})
		}
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
	slices.Sort(seqs)
	for _, s := range seqs {
		m := n.recOld[s]
		n.deliver(m.OldRing, m.OldSeq, m.OldSndr, m.Payload)
	}
	n.recOld = nil
	n.apply(n.recovered())
	held := n.heldRegular
	n.heldRegular = nil
	for _, m := range held {
		n.deliver(m.Ring, m.Seq, m.Sender, m.Payload)
	}
}

// successor returns the member after me in ring order.
func successor(members []transport.NodeID, me transport.NodeID) transport.NodeID {
	for _, id := range members {
		if id > me {
			return id
		}
	}
	return members[0]
}

// sortedNodes returns the ids in set and in no minus set, sorted.
func sortedNodes(set map[transport.NodeID]bool, minus ...map[transport.NodeID]bool) []transport.NodeID {
	out := make([]transport.NodeID, 0, len(set))
	for id := range set {
		if !slices.ContainsFunc(minus, func(m map[transport.NodeID]bool) bool { return m[id] }) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// setOf returns ids as a set.
func setOf(ids []transport.NodeID) map[transport.NodeID]bool {
	set := make(map[transport.NodeID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// dedupSorted sorts in place and drops repeats.
func dedupSorted(in []uint64) []uint64 {
	slices.Sort(in)
	return slices.Compact(in)
}
