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
	tun TotemTuning
	rt  sim.Runtime
	tr  transport.Transport

	state   nodeState
	ring    ViewID
	members []transport.NodeID
	primary bool
	quorum  int

	// Operational ring state.
	//
	// out queues application broadcasts for the token visit, and its key
	// window holds the logical identities received. Keys outlive their
	// message: discarding received[s] does not forget its key.
	out          outbox
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

	retransTimer   sim.Canceler
	lossTimer      sim.Canceler
	consensusTimer sim.Canceler
	commitTimer    sim.Canceler
	announceTimer  sim.Canceler

	// Gather state.
	procSet    map[transport.NodeID]bool
	failSet    map[transport.NodeID]bool
	joins      map[transport.NodeID]*joinMsg
	maxRingSeq uint64

	// Old-ring snapshot carried through membership for recovery.
	oldRing      ViewID
	oldDelivered uint64
	oldHold      map[uint64]*dataMsg

	// Recovery state.
	recOld      map[uint64]*dataMsg
	endMarkers  map[transport.NodeID]bool
	heldRegular []*dataMsg

	stats totemStats
	obs   *obs.Recorder
	// tokenHook, when set, sees every regular token this node handles
	// (after deduplication), for tests that inspect whole tokens.
	tokenHook func(ringToken)
	// safeWaitSeq is the message sequence currently blocked on the safe
	// point, for the safe_wait/safe_delivered trace pair.
	safeWaitSeq uint64
}

func newTotemOrderer(env Env, opts Options) (Orderer, error) {
	t := opts.Totem
	t.TokenLossTimeout = defaultDur(t.TokenLossTimeout, defaultTokenLoss)
	t.TokenRetransTimeout = defaultDur(t.TokenRetransTimeout, defaultTokenRetrans)
	t.JoinTimeout = defaultDur(t.JoinTimeout, defaultJoinTimeout)
	t.CommitTimeout = defaultDur(t.CommitTimeout, defaultCommitTimeout)
	t.AnnounceInterval = defaultDur(t.AnnounceInterval, defaultAnnounce)
	me := env.Transport.LocalID()
	members := sortedNodes(env.Members)
	if !slices.Contains(members, me) {
		members = sortedNodes(append(members, me))
	}
	n := &totemNode{
		endpoint: endpoint{env: env, me: me},
		tun:      t,
		rt:       env.Runtime,
		tr:       env.Transport,
		members:  members,
		quorum:   majority(len(members)),
		received: make(map[uint64]*dataMsg),
		oldHold:  make(map[uint64]*dataMsg),
		obs:      env.Obs,
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
			n.onJoin(j)
		}
	case pktCommit:
		if ct, err := decodeCommit(pkt[1:]); err == nil {
			n.onCommit(ct)
		}
	case pktAnnounce:
		if a, err := decodeAnnounce(pkt[1:]); err == nil {
			n.onAnnounce(a)
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

// successor returns the next member after this node in ring order.
func (n *totemNode) successor() transport.NodeID {
	for _, id := range n.members {
		if id > n.me {
			return id
		}
	}
	return n.members[0]
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
	succ := n.successor()
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
	succ := n.successor()
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

// onAnnounce reacts to a foreign ring's beacon: an operational node that
// sees a ring ordered above its own starts a membership round to merge (the
// joins it broadcasts pull the other ring into the gather); a gathering node
// refreshes its ring-sequence knowledge so that its joins are not discarded
// as stale by operational peers.
func (n *totemNode) onAnnounce(a *announceMsg) {
	if a.Ring.Epoch > n.maxRingSeq {
		n.maxRingSeq = a.Ring.Epoch
	}
	switch n.state {
	case stateOperational:
		if n.ring.Less(a.Ring) {
			n.startGatherInclude(a.Members, nil)
		}
	case stateGather:
		// Make sure the foreign ring's members are part of our proposal,
		// then re-broadcast so they hear from us.
		changed := false
		for _, id := range a.Members {
			if !n.procSet[id] {
				n.procSet[id] = true
				changed = true
			}
		}
		n.sendJoin()
		if changed {
			n.checkConsensus()
		}
	}
}

// sortedNodes returns a sorted copy of in without repeats.
func sortedNodes(in []transport.NodeID) []transport.NodeID {
	out := slices.Clone(in)
	slices.Sort(out)
	return slices.Compact(out)
}

// dedupSorted sorts in place and drops repeats.
func dedupSorted(in []uint64) []uint64 {
	slices.Sort(in)
	return slices.Compact(in)
}
