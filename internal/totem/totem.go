package totem

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/transport"
)

// Defaults, calibrated for the simulated 100 Mb/s testbed (token rotation on
// a 4-node ring is ≈220 µs). Deployments over real networks should raise them
// via Config.
const (
	defaultTokenLoss     = 10 * time.Millisecond
	defaultTokenRetrans  = 2 * time.Millisecond
	defaultJoinTimeout   = 4 * time.Millisecond
	defaultCommitTimeout = 10 * time.Millisecond
	defaultAnnounce      = 25 * time.Millisecond
	defaultMaxPerToken   = 16
	selfHopDelay         = 10 * time.Microsecond // token hop on a ring of one
)

// Config configures a Totem node.
type Config struct {
	// Runtime is the event loop the node runs on (simulation kernel or
	// real-time loop). Required.
	Runtime sim.Runtime
	// Transport carries the node's datagrams. Required.
	Transport transport.Transport
	// Members is the initial membership, including the local node.
	Members []transport.NodeID
	// Bootstrap, when true, forms the initial ring from Members directly
	// (all members are assumed to start together). When false the node
	// starts in the gather state and joins whatever ring its peers form.
	Bootstrap bool
	// Deliver receives totally-ordered messages. Called on the node's
	// runtime loop; it must not block. Required.
	Deliver func(Delivery)
	// OnView receives membership changes, each delivered before any message
	// of the new configuration. Called on the runtime loop. Optional.
	OnView func(View)
	// OnToken observes every regular token this node handles (after
	// deduplication), for instrumentation such as token-passing-time
	// measurements. Called on the runtime loop. Optional.
	OnToken func(Token)
	// Mode selects agreed (default) or safe delivery.
	Mode DeliverMode
	// Quorum is the minimum component size that counts as primary.
	// Default: a strict majority of the initial Members.
	Quorum int

	// Protocol timeouts; zero values take the defaults above.
	TokenLossTimeout    time.Duration
	TokenRetransTimeout time.Duration
	JoinTimeout         time.Duration
	CommitTimeout       time.Duration
	// AnnounceInterval is how often a ring's representative broadcasts a
	// ring beacon, used to detect remergeable foreign rings after a
	// partition heals.
	AnnounceInterval time.Duration
	// MaxMessagesPerToken bounds broadcasts per token visit (flow control).
	MaxMessagesPerToken int
	// Obs receives token-circulation and safe-delivery trace events and
	// registers this node's counters. A nil recorder disables instrumentation
	// at no cost. Optional.
	Obs *obs.Recorder
}

// Validate checks cfg and fills defaults, returning the effective
// configuration. Invalid settings (missing required fields, negative
// timeouts) are reported as errors instead of silently misbehaving.
func (c Config) Validate() (Config, error) {
	if c.Runtime == nil {
		return c, errors.New("totem: Config.Runtime is required")
	}
	if c.Transport == nil {
		return c, errors.New("totem: Config.Transport is required")
	}
	if c.Deliver == nil {
		return c, errors.New("totem: Config.Deliver is required")
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"TokenLossTimeout", c.TokenLossTimeout},
		{"TokenRetransTimeout", c.TokenRetransTimeout},
		{"JoinTimeout", c.JoinTimeout},
		{"CommitTimeout", c.CommitTimeout},
		{"AnnounceInterval", c.AnnounceInterval},
	} {
		if d.v < 0 {
			return c, fmt.Errorf("totem: Config.%s must not be negative (got %v)", d.name, d.v)
		}
	}
	if c.MaxMessagesPerToken < 0 {
		return c, fmt.Errorf("totem: Config.MaxMessagesPerToken must not be negative (got %d)", c.MaxMessagesPerToken)
	}
	if c.Quorum < 0 {
		return c, fmt.Errorf("totem: Config.Quorum must not be negative (got %d)", c.Quorum)
	}
	c.TokenLossTimeout = defaultDuration(c.TokenLossTimeout, defaultTokenLoss)
	c.TokenRetransTimeout = defaultDuration(c.TokenRetransTimeout, defaultTokenRetrans)
	c.JoinTimeout = defaultDuration(c.JoinTimeout, defaultJoinTimeout)
	c.CommitTimeout = defaultDuration(c.CommitTimeout, defaultCommitTimeout)
	c.AnnounceInterval = defaultDuration(c.AnnounceInterval, defaultAnnounce)
	if c.MaxMessagesPerToken == 0 {
		c.MaxMessagesPerToken = defaultMaxPerToken
	}
	return c, nil
}

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

// Node is one processor running the Totem single-ring protocol. All state is
// confined to the configured Runtime loop; public methods are safe to call
// from any goroutine (they post to the loop), and accessor methods document
// when they must run on the loop.
type Node struct {
	cfg Config
	rt  sim.Runtime
	tr  transport.Transport
	me  transport.NodeID

	state   nodeState
	ring    RingID
	members []transport.NodeID
	primary bool
	quorum  int

	// Operational ring state.
	//
	// keys and prevKeys are the logical identities seen, for duplicate
	// suppression: a two-generation window (noteKey) that remembers at least
	// the last keyGeneration() identities and at most twice that. Keys outlive
	// their message — discarding received[s] does not forget its key.
	keys, prevKeys map[uint64]bool
	lastTokenSeq   uint64
	highSeq        uint64
	myAru          uint64
	// received holds the ring's messages above gcPoint. Everything at or
	// below gcPoint has been delivered here and is held by every member (see
	// discardThrough), so neither retransmission nor recovery can need it.
	received  map[uint64]*DataMsg
	delivered uint64
	gcPoint   uint64
	// prevTokenAru is the token's aru as it ARRIVED on the previous visit;
	// with this visit's incoming aru it is the discard rule's evidence.
	prevTokenAru uint64
	safePoint    uint64
	sendq        []*queuedMsg
	recq         []*DataMsg
	retained     []byte // encoded last-forwarded token, for retransmission

	retransTimer   sim.Canceler
	lossTimer      sim.Canceler
	consensusTimer sim.Canceler
	commitTimer    sim.Canceler
	announceTimer  sim.Canceler
	// timerEpoch is bumped by cancelAllTimers; a timer callback armed under
	// an older epoch is dropped when it fires. This closes the real-time
	// runtime's race where a timer fires concurrently with Cancel and its
	// already-posted callback outlives the cancellation (sim.Loop cannot
	// recall a fired post), so no protocol timer can act — or re-arm —
	// after Stop.
	timerEpoch uint64

	totalOrder uint64

	// Gather state.
	procSet    map[transport.NodeID]bool
	failSet    map[transport.NodeID]bool
	joins      map[transport.NodeID]*JoinMsg
	maxRingSeq uint64

	// Old-ring snapshot carried through membership for recovery.
	oldRing      RingID
	oldDelivered uint64
	oldHold      map[uint64]*DataMsg

	// Recovery state.
	recOld      map[uint64]*DataMsg
	endMarkers  map[transport.NodeID]bool
	heldRegular []*DataMsg

	stats Stats
	obs   *obs.Recorder
	// safeWaitSeq is the message sequence currently blocked on the safe
	// point, for the safe_wait/safe_delivered trace pair.
	safeWaitSeq uint64
}

// New creates a node. It does not start protocol activity; call Start.
func New(cfg Config) (*Node, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	me := cfg.Transport.LocalID()
	members := sortedNodes(cfg.Members)
	if !containsNode(members, me) {
		members = sortedNodes(append(members, me))
	}
	quorum := cfg.Quorum
	if quorum <= 0 {
		quorum = len(members)/2 + 1
	}
	n := &Node{
		cfg:      cfg,
		rt:       cfg.Runtime,
		tr:       cfg.Transport,
		me:       me,
		members:  members,
		quorum:   quorum,
		received: make(map[uint64]*DataMsg),
		keys:     make(map[uint64]bool),
		oldHold:  make(map[uint64]*DataMsg),
		obs:      cfg.Obs,
	}
	cfg.Obs.Register(n)
	cfg.Transport.SetReceiver(n.receive)
	return n, nil
}

// Start begins protocol activity.
func (n *Node) Start() {
	n.rt.Post(func() {
		if n.state != stateIdle {
			return
		}
		if n.cfg.Bootstrap {
			n.ring = RingID{Seq: 1, Rep: n.members[0]}
			n.maxRingSeq = 1
			n.state = stateOperational
			n.primary = len(n.members) >= n.quorum
			n.emitView()
			if n.me == n.ring.Rep {
				tk := &Token{Ring: n.ring, TokenSeq: 1, AruID: aruNone}
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
func (n *Node) Stop() {
	n.rt.Post(func() {
		n.state = stateStopped
		n.cancelAllTimers()
	})
}

// queuedMsg is a pending application broadcast awaiting a token visit.
type queuedMsg struct {
	payload   []byte
	safe      bool
	dupKey    uint64
	cancelled bool
	sent      bool
}

// Broadcast queues payload for totally-ordered delivery to the group. The
// payload is copied. Safe to call from any goroutine.
func (n *Node) Broadcast(payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	n.rt.Post(func() {
		if n.state == stateStopped {
			return
		}
		n.sendq = append(n.sendq, &queuedMsg{payload: cp})
	})
	return nil
}

// BroadcastCancelable queues payload like Broadcast but returns a cancel
// function that withdraws the message if it has not yet been put on the
// wire. This is the duplicate-suppression hook the replication
// infrastructure uses (§4.3 of the paper: per CCS round, every replica
// attempts to send one CCS message, yet only one reaches the network).
//
// When safe is true the message is delivered with safe semantics: only once
// the token's all-received-up-to field shows that every processor on the
// ring holds it ("if the message is delivered to any non-faulty replica, it
// will be delivered to all non-faulty replicas", §3 of the paper).
//
// A non-zero dupKey names the message's logical identity: if a message with
// the same key has already been received from another processor, the queued
// message is withdrawn automatically at the token visit — the paper's
// infrastructure-level duplicate detection ([20], §4.3).
//
// Both BroadcastCancelable and the returned cancel function must be called
// on the node's runtime loop; cancel reports whether the message is
// guaranteed not to reach the wire (idempotently).
func (n *Node) BroadcastCancelable(payload []byte, safe bool, dupKey uint64) func() bool {
	if n.state == stateStopped {
		return func() bool { return false }
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	q := &queuedMsg{payload: cp, safe: safe, dupKey: dupKey}
	n.sendq = append(n.sendq, q)
	return func() bool {
		if q.sent {
			return false
		}
		q.cancelled = true
		return true
	}
}

// Ring reports the current ring. Must be called on the runtime loop.
func (n *Node) Ring() RingID { return n.ring }

// Members reports the current membership. Must be called on the runtime loop.
func (n *Node) Members() []transport.NodeID {
	out := make([]transport.NodeID, len(n.members))
	copy(out, n.members)
	return out
}

// InPrimary reports whether the node's component is primary. Must be called
// on the runtime loop.
func (n *Node) InPrimary() bool { return n.primary }

// ObsNode implements obs.Source.
func (n *Node) ObsNode() uint32 { return uint32(n.me) }

// ObsSamples implements obs.Source under the canonical totem.* names.
// Loop-only.
func (n *Node) ObsSamples() []obs.Sample {
	id := uint32(n.me)
	return []obs.Sample{
		{Node: id, Name: "totem.tokens_handled", Value: n.stats.TokensHandled},
		{Node: id, Name: "totem.broadcasts", Value: n.stats.Broadcasts},
		{Node: id, Name: "totem.retransmissions", Value: n.stats.Retransmissions},
		{Node: id, Name: "totem.delivered", Value: n.stats.Delivered},
		{Node: id, Name: "totem.memberships", Value: n.stats.Memberships},
		{Node: id, Name: "totem.token_retrans", Value: n.stats.TokenRetrans},
		{Node: id, Name: "totem.token_losses", Value: n.stats.TokenLosses},
		// Gauges: what the ring still retains (messages and duplicate keys),
		// and up to where it let go.
		{Node: id, Name: "totem.retained_msgs", Value: uint64(len(n.received))},
		{Node: id, Name: "totem.discard_point", Value: n.gcPoint},
		{Node: id, Name: "totem.dup_keys", Value: uint64(len(n.keys) + len(n.prevKeys))},
	}
}

// receive is the transport receiver: it copies the datagram and hops onto
// the runtime loop.
func (n *Node) receive(from transport.NodeID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	n.rt.Post(func() { n.dispatch(from, cp) })
}

func (n *Node) dispatch(_ transport.NodeID, pkt []byte) {
	if n.state == stateStopped || len(pkt) == 0 {
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
func (n *Node) onToken(tk *Token) {
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
	if n.cfg.OnToken != nil {
		n.cfg.OnToken(*tk)
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
	n.cancelTimer(&n.retransTimer)
	n.cancelTimer(&n.lossTimer)

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
	budget := n.cfg.MaxMessagesPerToken
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
	for budget > 0 && len(n.sendq) > 0 && n.state == stateOperational {
		q := n.sendq[0]
		n.sendq = n.sendq[1:]
		if q.cancelled {
			continue
		}
		if q.dupKey != 0 && n.seenKey(q.dupKey) {
			// Duplicate detection: a message with the same logical identity
			// has already been received from another processor (§4.3).
			q.cancelled = true
			continue
		}
		tk.Seq++
		m := &DataMsg{Ring: n.ring, Seq: tk.Seq, Sender: n.me,
			Kind: KindRegular, Safe: q.safe, DupKey: q.dupKey, Payload: q.payload}
		q.sent = true
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
		n.discardThrough(minU64(n.delivered, minU64(aruIn, n.prevTokenAru)))
	}
	n.prevTokenAru = aruIn
}

// onData handles a broadcast data message.
func (n *Node) onData(m *DataMsg) {
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

func (n *Node) storeReceived(m *DataMsg) {
	if m.Seq <= n.gcPoint {
		return // seq 0, or a late duplicate of a message already discarded
	}
	if _, ok := n.received[m.Seq]; !ok {
		n.received[m.Seq] = m
	}
	if m.DupKey != 0 {
		n.noteKey(m.DupKey)
	}
}

// discardThrough releases every retained message at or below limit.
func (n *Node) discardThrough(limit uint64) {
	for n.gcPoint < limit {
		n.gcPoint++
		delete(n.received, n.gcPoint)
	}
}

// minKeyGeneration is the floor of keyGeneration, for small rings.
const minKeyGeneration = 4096

// keyGeneration is the size at which the current key generation is retired:
// the node remembers at least this many of the most recent logical
// identities, and at most twice as many. It is four rotations at the full
// per-visit budget, floored for small rings; a duplicate is queued within a
// rotation or two of its original.
func (n *Node) keyGeneration() int {
	g := 4 * n.cfg.MaxMessagesPerToken * len(n.members)
	if g < minKeyGeneration {
		return minKeyGeneration
	}
	return g
}

func (n *Node) seenKey(k uint64) bool { return n.keys[k] || n.prevKeys[k] }

// noteKey records a logical identity. The table is bounded by keeping two
// generations and dropping the older one when the current fills; forgetting
// an old key only costs a redundant send, which the core's and replication's
// duplicate paths absorb.
func (n *Node) noteKey(k uint64) {
	if n.keys[k] {
		return
	}
	if len(n.keys) >= n.keyGeneration() {
		n.prevKeys = n.keys
		n.keys = make(map[uint64]bool)
	}
	n.keys[k] = true
}

func (n *Node) updateAru() {
	for {
		if _, ok := n.received[n.myAru+1]; !ok {
			return
		}
		n.myAru++
	}
}

// tryDeliver delivers received messages in sequence order. Agreed messages
// deliver as soon as the prefix is complete; safe messages (per-message flag
// or node-wide Safe mode) additionally wait for the safe point, holding
// later messages so that the total order is preserved.
func (n *Node) tryDeliver() {
	n.updateAru()
	for n.delivered < n.myAru {
		s := n.delivered + 1
		m, ok := n.received[s]
		if !ok {
			return
		}
		safe := m.Safe || n.cfg.Mode == Safe
		if safe && s > n.safePoint {
			if n.safeWaitSeq != s {
				// First time this sequence blocks on the safe point: open the
				// safe-delivery wait sub-span (the paper's ≈300µs extra token
				// circulation, §4.3).
				n.safeWaitSeq = s
				n.obs.Trace(obs.ScopeTotem, obs.EvSafeWait, 0, s, int64(n.safePoint), "")
			}
			return
		}
		if safe && n.safeWaitSeq == s {
			n.obs.Trace(obs.ScopeTotem, obs.EvSafeDelivered, 0, s, int64(n.safePoint), "")
		}
		n.delivered = s
		n.handleDelivered(m)
	}
}

// handleDelivered routes one totally-ordered message by kind and state.
func (n *Node) handleDelivered(m *DataMsg) {
	switch n.state {
	case stateOperational:
		if m.Kind == KindRegular {
			n.deliverToApp(m.Ring, m.Seq, m.Sender, m.Payload)
		}
	case stateRecover:
		switch m.Kind {
		case KindRecovery:
			if m.OldRing == n.oldRing && m.OldSeq > n.oldDelivered {
				if _, ok := n.recOld[m.OldSeq]; !ok {
					n.recOld[m.OldSeq] = m
				}
			}
		case KindEndRecovery:
			n.endMarkers[m.Sender] = true
			if len(n.endMarkers) == len(n.members) {
				n.completeRecovery()
			}
		case KindRegular:
			n.heldRegular = append(n.heldRegular, m)
		}
	}
}

func (n *Node) deliverToApp(ring RingID, seq uint64, sender transport.NodeID, payload []byte) {
	n.totalOrder++
	n.stats.Delivered++
	n.cfg.Deliver(Delivery{
		TotalOrder: n.totalOrder,
		Ring:       ring,
		Seq:        seq,
		Sender:     sender,
		Payload:    payload,
	})
}

func (n *Node) sendData(m *DataMsg) {
	n.stats.Broadcasts++
	_ = n.tr.Broadcast(encodeData(m))
}

// successor returns the next member after this node in ring order.
func (n *Node) successor() transport.NodeID {
	for _, id := range n.members {
		if id > n.me {
			return id
		}
	}
	return n.members[0]
}

func (n *Node) forwardToken(tk *Token) {
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

func (n *Node) armRetransTimer() {
	n.cancelTimer(&n.retransTimer)
	n.retransTimer = n.afterGuarded(n.cfg.TokenRetransTimeout, n.retransmitToken)
}

func (n *Node) retransmitToken() {
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
	n.retransTimer = n.afterGuarded(n.cfg.TokenRetransTimeout, n.retransmitToken)
}

func (n *Node) armLossTimer() {
	n.cancelTimer(&n.lossTimer)
	n.lossTimer = n.afterGuarded(n.cfg.TokenLossTimeout, func() {
		if n.state != stateOperational && n.state != stateRecover {
			return
		}
		n.stats.TokenLosses++
		n.startGather(nil)
	})
}

func (n *Node) emitView() {
	if n.cfg.OnView == nil {
		return
	}
	members := make([]transport.NodeID, len(n.members))
	copy(members, n.members)
	n.cfg.OnView(View{Ring: n.ring, Members: members, Primary: n.primary})
}

func (n *Node) cancelTimer(t *sim.Canceler) {
	if *t != nil {
		(*t).Cancel()
		*t = nil
	}
}

func (n *Node) cancelAllTimers() {
	n.timerEpoch++
	n.cancelTimer(&n.retransTimer)
	n.cancelTimer(&n.lossTimer)
	n.cancelTimer(&n.consensusTimer)
	n.cancelTimer(&n.commitTimer)
	n.cancelTimer(&n.announceTimer)
}

// afterGuarded arms a protocol timer: the callback is dropped if the node
// stopped or cancelAllTimers ran (epoch bump) between arming and firing.
// Every timer callback still checks the specific state it needs; the epoch
// guard is the structural backstop for already-fired timers whose posted
// callbacks Cancel cannot recall.
func (n *Node) afterGuarded(d time.Duration, fn func()) sim.Canceler {
	epoch := n.timerEpoch
	return n.rt.After(d, func() {
		if n.state == stateStopped || n.timerEpoch != epoch {
			return
		}
		fn()
	})
}

// armAnnounceTimer schedules the periodic ring beacon; only the
// representative of an operational ring announces.
func (n *Node) armAnnounceTimer() {
	n.cancelTimer(&n.announceTimer)
	n.announceTimer = n.afterGuarded(n.cfg.AnnounceInterval, func() {
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
func (n *Node) onAnnounce(a *announceMsg) {
	if a.Ring.Seq > n.maxRingSeq {
		n.maxRingSeq = a.Ring.Seq
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

func sortedNodes(in []transport.NodeID) []transport.NodeID {
	out := make([]transport.NodeID, len(in))
	copy(out, in)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Deduplicate.
	uniq := out[:0]
	for i, id := range out {
		if i == 0 || id != out[i-1] {
			uniq = append(uniq, id)
		}
	}
	return uniq
}

func containsNode(set []transport.NodeID, id transport.NodeID) bool {
	for _, m := range set {
		if m == id {
			return true
		}
	}
	return false
}

func dedupSorted(in []uint64) []uint64 {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
