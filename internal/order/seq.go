package order

import (
	"slices"
	"sort"
	"time"

	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/transport"
)

// Leader-sequencer defaults, calibrated like the totem ones for the
// simulated 100 Mb/s testbed. Real networks should raise them via SeqTuning.
const (
	defaultSeqHeartbeat = 2 * time.Millisecond
	defaultSeqLeaderTO  = 10 * time.Millisecond
	defaultSeqResend    = 2 * time.Millisecond
	defaultSeqElection  = 4 * time.Millisecond
	seqMaxNack          = 64
	seqMaxSeenKeys      = 1 << 17
)

// seqState is the coarse protocol state of a sequencer node.
type seqState int

const (
	seqIdle seqState = iota
	seqOperational
	seqElecting
	seqStopped
)

// seqStats are cumulative counters, exported through obs.
type seqStats struct {
	Proposals  uint64 // proposals submitted locally
	Suppressed uint64 // proposals withdrawn by duplicate suppression
	Ordered    uint64 // entries this node sequenced as leader
	Delivered  uint64
	Resends    uint64 // proposal retransmissions
	Retrans    uint64 // entry retransmissions served as leader
	Nacks      uint64 // gap nacks sent
	Heartbeats uint64 // heartbeats broadcast as leader
	Elections  uint64 // elections this node initiated or joined
	Views      uint64 // views installed
}

// seqPending is one locally-submitted proposal awaiting ordering.
type seqPending struct {
	local     uint64 // current per-epoch local id; relabelled at view change
	safe      bool
	dupKey    uint64
	payload   []byte
	sent      bool // reached the wire (or the local ordering path)
	cancelled bool
}

// seqNode implements the leader-sequencer orderer: the lowest-id member of
// the current view sequences all proposals and broadcasts them as ordered
// entries; followers deliver entries in contiguous sequence order. The
// leader's periodic heartbeat carries the safe point (the prefix every
// member holds) and doubles as the failure-detection and discovery beacon.
// Leader failure, member failure and partition heal all funnel through one
// election protocol: a candidate collects the members' retained entries,
// merges them, and installs a new view under a higher epoch; the view is
// primary iff it meets the quorum, and only primary views order new
// proposals, so any two primary views intersect and the ordered history
// stays consistent.
//
// All state is confined to the runtime loop: the transport receiver copies
// the datagram and posts, and public methods post.
type seqNode struct {
	env Env
	tun SeqTuning
	rt  sim.Runtime
	tr  transport.Transport
	me  transport.NodeID

	universe []transport.NodeID // initial membership (quorum base)
	quorum   int

	state    seqState
	view     View // current view (ID, Members, Primary)
	epoch    uint64
	leader   transport.NodeID
	maxEpoch uint64 // highest epoch seen anywhere

	// Ordered-entry state. received retains entries with seq in
	// (prunedTo, ...]; entries at or below the safe point are pruned (every
	// member holds them, so no retransmission or election merge needs them).
	received    map[uint64]*seqEntry
	myAru       uint64 // contiguous prefix received
	delivered   uint64
	highSeq     uint64 // highest seq seen (== last sequenced when leader)
	safePoint   uint64
	prunedTo    uint64
	totalOrder  uint64
	safeWaitSeq uint64
	seenKeys    map[uint64]bool // dupKeys of entries seen, for suppression

	// Leader state.
	nextLocal map[transport.NodeID]uint64                 // next expected Local per sender (this epoch)
	heldProps map[transport.NodeID]map[uint64]*seqPropose // out-of-order proposals
	// arus and lastHeard are indexed by rank in view.Members; the leader's
	// own slots stay unused. atSafe counts the followers whose acked aru is
	// at or below safePoint: while it is nonzero the safe point cannot move,
	// so recomputeSafe scans the view only once per advance.
	arus      []uint64
	lastHeard []time.Duration
	atSafe    int

	// Proposer state.
	localSeq       uint64 // last local id assigned (this epoch)
	pend           []*seqPending
	flushQueued    bool
	lastLeaderSeen time.Duration

	// Election state (valid while state == seqElecting).
	elEpoch uint64
	elCand  transport.NodeID
	elAcks  map[transport.NodeID]*seqElectAck

	hbTimer     sim.Canceler
	lossTimer   sim.Canceler
	resendTimer sim.Canceler
	electTimer  sim.Canceler
	retryTimer  sim.Canceler
	rejoinTimer sim.Canceler
	// timerEpoch is bumped when all timers are cancelled; a callback armed
	// under an older epoch drops itself when it fires, so no timer can act
	// or re-arm after Stop (same discipline as the totem node).
	timerEpoch uint64

	stats seqStats
	obs   *obs.Recorder
}

func newSeqOrderer(env Env, opts Options) (Orderer, error) {
	t := opts.Seq
	t.HeartbeatInterval = defaultDur(t.HeartbeatInterval, defaultSeqHeartbeat)
	t.LeaderTimeout = defaultDur(t.LeaderTimeout, defaultSeqLeaderTO)
	t.ResendInterval = defaultDur(t.ResendInterval, defaultSeqResend)
	t.ElectionTimeout = defaultDur(t.ElectionTimeout, defaultSeqElection)
	me := env.Transport.LocalID()
	universe := append([]transport.NodeID(nil), env.Members...)
	sort.Slice(universe, func(i, j int) bool { return universe[i] < universe[j] })
	if len(universe) == 0 {
		universe = []transport.NodeID{me}
	}
	n := &seqNode{
		env:      env,
		tun:      t,
		rt:       env.Runtime,
		tr:       env.Transport,
		me:       me,
		universe: universe,
		quorum:   quorumOrDefault(opts.Quorum, len(universe)),
		received: make(map[uint64]*seqEntry),
		seenKeys: make(map[uint64]bool),
		obs:      env.Obs,
	}
	env.Transport.SetReceiver(n.receive)
	env.Obs.Register(n)
	return n, nil
}

func defaultDur(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

// Start begins protocol activity. With Bootstrap the initial view is formed
// from the configured members directly; otherwise the node elects its way
// into whatever component its peers have formed.
func (n *seqNode) Start() {
	n.rt.Post(func() {
		if n.state != seqIdle {
			return
		}
		if n.env.Bootstrap {
			n.installView(View{
				ID:      ViewID{Epoch: 1, Rep: n.universe[0]},
				Members: append([]transport.NodeID(nil), n.universe...),
			})
			return
		}
		n.startElection(n.maxEpoch + 1)
	})
}

// Stop halts the node.
func (n *seqNode) Stop() {
	n.rt.Post(func() {
		n.state = seqStopped
		n.cancelAllTimers()
	})
}

// LocalID implements Orderer.
func (n *seqNode) LocalID() transport.NodeID { return n.me }

// Broadcast implements Orderer. Safe from any goroutine.
func (n *seqNode) Broadcast(payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	n.rt.Post(func() {
		if n.state == seqStopped {
			return
		}
		n.submit(&seqPending{payload: cp})
		n.flushPending()
	})
	return nil
}

// BroadcastCancelable implements Orderer. Loop-only. The proposal is flushed
// to the wire by a posted step, so a cancellation arriving within the same
// loop instant (the duplicate-suppression window) withdraws it before it is
// sent; after that the leader's dupKey check suppresses redundant ordering.
func (n *seqNode) BroadcastCancelable(payload []byte, safe bool, dupKey uint64) func() bool {
	if n.state == seqStopped {
		return func() bool { return false }
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	p := &seqPending{payload: cp, safe: safe, dupKey: dupKey}
	n.submit(p)
	if !n.flushQueued {
		n.flushQueued = true
		n.rt.Post(func() {
			n.flushQueued = false
			n.flushPending()
		})
	}
	return func() bool {
		if p.sent {
			return false
		}
		p.cancelled = true
		return true
	}
}

func (n *seqNode) submit(p *seqPending) {
	n.localSeq++
	p.local = n.localSeq
	n.pend = append(n.pend, p)
	n.stats.Proposals++
}

// flushPending pushes queued proposals toward the current leader. Proposals
// stay queued (still cancellable) while the node has no primary view.
func (n *seqNode) flushPending() {
	if n.state != seqOperational || !n.view.Primary {
		n.sweepPending()
		return
	}
	n.suppressSeenPending()
	for _, p := range n.pend {
		if !p.sent {
			n.sendPropose(p, false)
		}
	}
}

// sendPropose transmits one proposal to the leader (or orders it directly
// when this node is the leader).
func (n *seqNode) sendPropose(p *seqPending, resend bool) {
	m := &seqPropose{
		View:    n.view.ID,
		Sender:  n.me,
		Local:   p.local,
		Safe:    p.safe,
		DupKey:  p.dupKey,
		Payload: p.payload,
	}
	p.sent = true
	if resend {
		n.stats.Resends++
	}
	if n.leader == n.me {
		n.onPropose(m)
		return
	}
	_ = n.tr.Send(n.leader, encodePropose(m))
}

// suppressSeenPending retires queued proposals whose dupKey has already been
// ordered somewhere: the leader's duplicate check guarantees they can never
// be ordered, so resending them is pure waste — and after a view change a
// stale one would occupy a dense local number and wedge the per-sender
// gap-freedom chain at the new leader.
func (n *seqNode) suppressSeenPending() {
	for _, p := range n.pend {
		if !p.cancelled && p.dupKey != 0 && n.seenKeys[p.dupKey] {
			p.cancelled = true
			n.stats.Suppressed++
		}
	}
	n.sweepPending()
}

// sweepPending drops cancelled proposals.
func (n *seqNode) sweepPending() {
	out := n.pend[:0]
	for _, p := range n.pend {
		if !p.cancelled {
			out = append(out, p)
		}
	}
	for i := len(out); i < len(n.pend); i++ {
		n.pend[i] = nil
	}
	n.pend = out
}

// receive is the transport receiver: it copies the datagram and hops onto
// the runtime loop. Only simnet happens to call it there; udptransport calls
// it on its read goroutine, with a buffer it reuses.
func (n *seqNode) receive(from transport.NodeID, payload []byte) {
	if len(payload) == 0 {
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	n.rt.Post(func() { n.dispatch(from, cp) })
}

// dispatch handles one inbound datagram. Loop-only.
func (n *seqNode) dispatch(from transport.NodeID, payload []byte) {
	if n.state == seqStopped || n.state == seqIdle {
		return
	}
	body := payload[1:]
	switch payload[0] {
	case seqTagPropose:
		if m, err := decodePropose(body); err == nil {
			n.noteHeard(from)
			n.onPropose(m)
		}
	case seqTagOrdered:
		if m, err := decodeOrdered(body); err == nil {
			n.onOrdered(m)
		}
	case seqTagHeart:
		if m, err := decodeHeartbeat(body); err == nil {
			n.onHeartbeat(m)
		}
	case seqTagAck:
		if m, err := decodeAck(body); err == nil {
			n.noteHeard(from)
			n.onAck(m)
		}
	case seqTagNack:
		if m, err := decodeNack(body); err == nil {
			n.noteHeard(from)
			n.onNack(m)
		}
	case seqTagElect:
		if m, err := decodeElect(body); err == nil {
			n.onElect(m)
		}
	case seqTagElectAck:
		if m, err := decodeElectAck(body); err == nil {
			n.onElectAck(m)
		}
	case seqTagInstall:
		if m, err := decodeInstall(body); err == nil {
			n.onInstall(m)
		}
	}
}

func (n *seqNode) noteHeard(from transport.NodeID) {
	if r := n.rankOf(from); r >= 0 && from != n.me {
		n.lastHeard[r] = n.rt.Now()
	}
}

// rankOf reports id's index in the current view's sorted members, or -1.
func (n *seqNode) rankOf(id transport.NodeID) int {
	if r, ok := slices.BinarySearch(n.view.Members, id); ok {
		return r
	}
	return -1
}

// ---- leader: ordering ----

// onPropose sequences a proposal. Only the leader of a primary view orders;
// everyone else drops (the proposer's resend loop retries against the view
// that eventually forms).
func (n *seqNode) onPropose(p *seqPropose) {
	if n.state != seqOperational || n.leader != n.me || !n.view.Primary {
		return
	}
	if p.View != n.view.ID {
		return // stale proposal from a previous configuration
	}
	next := n.nextLocal[p.Sender]
	if next == 0 {
		next = 1
	}
	if p.Local < next {
		return // duplicate of an already-ordered proposal
	}
	if p.Local > next {
		held := n.heldProps[p.Sender]
		if held == nil {
			held = make(map[uint64]*seqPropose)
			n.heldProps[p.Sender] = held
		}
		held[p.Local] = p
		return
	}
	n.orderProposal(p)
	// Drain any held successors that are now in order.
	for {
		held := n.heldProps[p.Sender]
		q := held[n.nextLocal[p.Sender]]
		if q == nil {
			return
		}
		delete(held, q.Local)
		n.orderProposal(q)
	}
}

func (n *seqNode) orderProposal(p *seqPropose) {
	n.nextLocal[p.Sender] = p.Local + 1
	if p.DupKey != 0 && n.seenKeys[p.DupKey] {
		n.stats.Suppressed++
		return
	}
	n.highSeq++
	e := &seqEntry{
		View:    n.view.ID,
		Seq:     n.highSeq,
		Sender:  p.Sender,
		Local:   p.Local,
		Safe:    p.Safe,
		DupKey:  p.DupKey,
		Payload: p.Payload,
	}
	n.stats.Ordered++
	n.noteSeen(e.DupKey)
	n.received[e.Seq] = e
	n.clearPendingFor(e)
	_ = n.tr.Broadcast(encodeOrdered(e))
	n.recomputeSafe()
}

// recomputeSafe advances the leader's safe point — the prefix every view
// member holds (its own aru and every follower's acked aru) — then runs
// delivery and pruning against it. A follower at or below the safe point
// pins it, so the O(N) scan for the new minimum runs only when none does.
func (n *seqNode) recomputeSafe() {
	n.updateAru()
	if n.atSafe == 0 && n.myAru > n.safePoint {
		sp := n.myAru
		for r, m := range n.view.Members {
			if m != n.me && n.arus[r] < sp {
				sp = n.arus[r]
			}
		}
		n.safePoint = sp
		for r, m := range n.view.Members {
			if m != n.me && n.arus[r] <= sp {
				n.atSafe++
			}
		}
		// Push the new safe point immediately; safe-mode latency tracks
		// this broadcast rather than the next periodic heartbeat.
		n.broadcastHeartbeat()
	}
	n.tryDeliver()
	n.prune()
}

func (n *seqNode) broadcastHeartbeat() {
	n.stats.Heartbeats++
	_ = n.tr.Broadcast(encodeHeartbeat(&seqHeartbeat{
		View: n.view.ID, HighSeq: n.highSeq, SafePoint: n.safePoint,
	}))
}

// ---- follower: entries, heartbeats ----

func (n *seqNode) onOrdered(e *seqEntry) {
	if n.state != seqOperational {
		return
	}
	if e.View != n.view.ID {
		n.noteEpoch(e.View.Epoch)
		if n.view.ID.Less(e.View) {
			n.scheduleRejoin(e.View)
		}
		return
	}
	n.lastLeaderSeen = n.rt.Now()
	if e.Seq <= n.prunedTo || n.received[e.Seq] != nil {
		return
	}
	n.received[e.Seq] = e
	if e.Seq > n.highSeq {
		n.highSeq = e.Seq
	}
	n.noteSeen(e.DupKey)
	n.clearPendingFor(e)
	prev := n.myAru
	n.tryDeliver()
	// Ack eagerly when the contiguous prefix grows, rather than waiting for
	// the next heartbeat: the leader's safe point — and with it safe-mode
	// delivery latency — tracks these acks.
	if n.leader != n.me && n.myAru > prev {
		_ = n.tr.Send(n.leader, encodeAck(&seqAck{View: n.view.ID, From: n.me, Aru: n.myAru}))
	}
}

func (n *seqNode) onHeartbeat(hb *seqHeartbeat) {
	if n.state != seqOperational {
		if n.state == seqElecting {
			n.noteEpoch(hb.View.Epoch)
		}
		return
	}
	if hb.View != n.view.ID {
		n.noteEpoch(hb.View.Epoch)
		if n.view.ID.Less(hb.View) {
			n.scheduleRejoin(hb.View)
		}
		return
	}
	n.lastLeaderSeen = n.rt.Now()
	if hb.HighSeq > n.highSeq {
		n.highSeq = hb.HighSeq
	}
	if hb.SafePoint > n.safePoint {
		n.safePoint = hb.SafePoint
		n.tryDeliver()
		n.prune()
	}
	if n.leader != n.me {
		_ = n.tr.Send(n.leader, encodeAck(&seqAck{View: n.view.ID, From: n.me, Aru: n.myAru}))
		n.sendGapNack()
	}
}

// sendGapNack requests the missing sequence numbers below the known high
// water mark, bounded per datagram.
func (n *seqNode) sendGapNack() {
	if n.myAru >= n.highSeq {
		return
	}
	missing := make([]uint64, 0, seqMaxNack)
	for s := n.myAru + 1; s <= n.highSeq && len(missing) < seqMaxNack; s++ {
		if n.received[s] == nil {
			missing = append(missing, s)
		}
	}
	if len(missing) == 0 {
		return
	}
	n.stats.Nacks++
	_ = n.tr.Send(n.leader, encodeNack(&seqNack{View: n.view.ID, From: n.me, Missing: missing}))
}

func (n *seqNode) onAck(a *seqAck) {
	if n.state != seqOperational || n.leader != n.me || a.View != n.view.ID {
		return
	}
	r := n.rankOf(a.From)
	if r < 0 || a.From == n.me {
		return
	}
	prev := n.arus[r]
	if a.Aru <= prev {
		return
	}
	n.arus[r] = a.Aru
	if prev <= n.safePoint && a.Aru > n.safePoint {
		n.atSafe--
	}
	n.recomputeSafe()
}

func (n *seqNode) onNack(m *seqNack) {
	if n.state != seqOperational || n.leader != n.me || m.View != n.view.ID {
		return
	}
	for _, s := range m.Missing {
		if e := n.received[s]; e != nil {
			n.stats.Retrans++
			_ = n.tr.Send(m.From, encodeOrdered(e))
		}
	}
}

// ---- delivery ----

func (n *seqNode) updateAru() {
	for n.received[n.myAru+1] != nil {
		n.myAru++
	}
}

// tryDeliver delivers the contiguous prefix, holding safe entries until the
// safe point covers them. Delivered entries are retained until pruned at the
// safe point, so the leader can serve retransmissions and elections can
// merge complete histories.
func (n *seqNode) tryDeliver() {
	n.updateAru()
	for n.delivered < n.myAru {
		s := n.delivered + 1
		e := n.received[s]
		if e.Safe && s > n.safePoint {
			if n.safeWaitSeq != s {
				n.safeWaitSeq = s
				n.obs.Trace(obs.ScopeSeq, obs.EvSafeWait, 0, s, 0, "")
			}
			return
		}
		if e.Safe && n.safeWaitSeq == s {
			n.obs.Trace(obs.ScopeSeq, obs.EvSafeDelivered, 0, s, 0, "")
			n.safeWaitSeq = 0
		}
		n.delivered = s
		n.deliverEntry(e)
	}
}

func (n *seqNode) deliverEntry(e *seqEntry) {
	n.totalOrder++
	n.stats.Delivered++
	n.env.Deliver(Delivery{
		TotalOrder: n.totalOrder,
		ViewID:     e.View,
		Seq:        e.Seq,
		Sender:     e.Sender,
		Payload:    e.Payload,
	})
}

// prune discards retained entries the whole view holds.
func (n *seqNode) prune() {
	limit := n.safePoint
	if limit > n.delivered {
		limit = n.delivered
	}
	for n.prunedTo < limit {
		n.prunedTo++
		delete(n.received, n.prunedTo)
	}
}

func (n *seqNode) noteSeen(dupKey uint64) {
	if dupKey == 0 {
		return
	}
	if len(n.seenKeys) > seqMaxSeenKeys {
		n.seenKeys = make(map[uint64]bool)
	}
	n.seenKeys[dupKey] = true
}

// clearPendingFor retires the local proposal matched by an ordered entry.
func (n *seqNode) clearPendingFor(e *seqEntry) {
	if e.Sender != n.me {
		return
	}
	for _, p := range n.pend {
		if p.local == e.Local && !p.cancelled {
			p.cancelled = true // retired; swept lazily
			return
		}
	}
}

// ---- elections ----

// startElection makes this node the candidate for a fresh epoch.
func (n *seqNode) startElection(epoch uint64) {
	if n.state == seqStopped {
		return
	}
	if epoch <= n.epoch {
		epoch = n.epoch + 1
	}
	if epoch <= n.maxEpoch {
		epoch = n.maxEpoch + 1
	}
	n.maxEpoch = epoch
	n.state = seqElecting
	n.elEpoch = epoch
	n.elCand = n.me
	n.elAcks = map[transport.NodeID]*seqElectAck{n.me: n.myElectAck(epoch)}
	n.stats.Elections++
	_ = n.tr.Broadcast(encodeElect(&seqElect{Epoch: epoch, Cand: n.me}))
	n.armElectTimer(n.tun.ElectionTimeout, func() {
		if n.state == seqElecting && n.elCand == n.me && n.elEpoch == epoch {
			n.installFromAcks()
		}
	})
}

// myElectAck snapshots this node's retained history for a candidate.
func (n *seqNode) myElectAck(epoch uint64) *seqElectAck {
	seqs := make([]uint64, 0, len(n.received))
	for s := range n.received {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	entries := make([]seqEntry, 0, len(seqs))
	for _, s := range seqs {
		entries = append(entries, *n.received[s])
	}
	return &seqElectAck{
		Epoch:     epoch,
		From:      n.me,
		View:      n.view.ID,
		Delivered: n.delivered,
		Entries:   entries,
	}
}

func (n *seqNode) noteEpoch(e uint64) {
	if e > n.maxEpoch {
		n.maxEpoch = e
	}
}

func (n *seqNode) onElect(m *seqElect) {
	n.noteEpoch(m.Epoch)
	if m.Epoch <= n.epoch {
		return // stale: the sender will learn our epoch from heartbeats
	}
	if n.state == seqElecting {
		if m.Epoch < n.elEpoch {
			return
		}
		if m.Epoch == n.elEpoch {
			if m.Cand == n.elCand && n.elCand != n.me {
				// Duplicate elect: the candidate may have lost our ack.
				_ = n.tr.Send(m.Cand, encodeElectAck(n.myElectAck(m.Epoch)))
				return
			}
			if m.Cand >= n.elCand {
				return // our candidate wins the tie (lower id)
			}
		}
	}
	// Join the election.
	n.state = seqElecting
	n.elEpoch = m.Epoch
	n.elCand = m.Cand
	n.elAcks = nil
	n.stats.Elections++
	_ = n.tr.Send(m.Cand, encodeElectAck(n.myElectAck(m.Epoch)))
	epoch := m.Epoch
	n.armElectTimer(2*n.tun.ElectionTimeout, func() {
		// The candidate died or its install was lost; elect for ourselves.
		if n.state == seqElecting && n.elEpoch == epoch {
			n.startElection(n.maxEpoch + 1)
		}
	})
}

func (n *seqNode) onElectAck(a *seqElectAck) {
	n.noteEpoch(a.Epoch)
	if n.state != seqElecting || n.elCand != n.me || a.Epoch != n.elEpoch {
		return
	}
	n.elAcks[a.From] = a
	// No early install on an ack count: the static universe undercounts the
	// live set after a join (existing members don't know the newcomer), and
	// installing at "universe acks collected" would cut whichever live node
	// acked last — each cut node then rejoins with a fresh election, cutting
	// someone else, and the views churn forever. The full ElectionTimeout
	// window collects every reachable node.
}

// installFromAcks merges the responders' histories and installs the new
// view. The merged suffix starts above the least delivered prefix among the
// responders; conflicting entries (same seq ordered in different old views)
// resolve toward the higher view, which extends the longer primary chain.
func (n *seqNode) installFromAcks() {
	members := make([]transport.NodeID, 0, len(n.elAcks))
	for id := range n.elAcks {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	base := n.elAcks[members[0]].Delivered
	high := uint64(0)
	for _, id := range members {
		a := n.elAcks[id]
		if a.Delivered < base {
			base = a.Delivered
		}
		if a.Delivered > high {
			high = a.Delivered
		}
	}
	merged := make(map[uint64]*seqEntry)
	for _, id := range members {
		a := n.elAcks[id]
		for i := range a.Entries {
			e := &a.Entries[i]
			if e.Seq <= base {
				continue
			}
			if prev := merged[e.Seq]; prev == nil || prev.View.Less(e.View) {
				merged[e.Seq] = e
			}
			if e.Seq > high {
				high = e.Seq
			}
		}
	}
	seqs := make([]uint64, 0, len(merged))
	for s := range merged {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	entries := make([]seqEntry, 0, len(seqs))
	for _, s := range seqs {
		entries = append(entries, *merged[s])
	}

	inst := &seqInstall{
		Epoch:   n.elEpoch,
		View:    ViewID{Epoch: n.elEpoch, Rep: members[0]},
		Members: members,
		HighSeq: high,
		Entries: entries,
	}
	_ = n.tr.Broadcast(encodeInstall(inst))
	n.applyInstall(inst)
}

func (n *seqNode) onInstall(m *seqInstall) {
	n.noteEpoch(m.Epoch)
	n.applyInstall(m)
}

// applyInstall adopts an installed view: delivers the merged suffix of the
// old configurations, then switches to the new membership. Entries absent
// from the merge (held only by processors outside the new view) are skipped,
// exactly the agreed-delivery guarantee: recovery extends only to what the
// surviving members hold.
func (n *seqNode) applyInstall(m *seqInstall) {
	if n.state == seqStopped || !n.view.ID.Less(m.View) {
		return
	}
	member := false
	for _, id := range m.Members {
		if id == n.me {
			member = true
			break
		}
	}
	if !member {
		// A view formed without us (we were unreachable); rejoin it.
		n.scheduleRejoin(m.View)
		return
	}
	// Deliver the merged history before emitting the new view.
	for i := range m.Entries {
		e := m.Entries[i]
		if e.Seq <= n.delivered {
			continue
		}
		if n.safeWaitSeq != 0 {
			n.obs.Trace(obs.ScopeSeq, obs.EvSafeDelivered, 0, n.safeWaitSeq, 0, "install")
			n.safeWaitSeq = 0
		}
		n.delivered = e.Seq // skips seqs lost by every surviving member
		n.deliverEntry(&e)
		n.clearPendingFor(&e)
	}
	if m.HighSeq > n.delivered {
		n.delivered = m.HighSeq
	}
	n.myAru = n.delivered
	n.highSeq = n.delivered
	n.safePoint = n.delivered
	n.prunedTo = n.delivered
	n.received = make(map[uint64]*seqEntry)
	n.installView(View{ID: m.View, Members: m.Members})
}

// installView switches to a new configuration and restarts the per-view
// machinery: local proposal numbering, leader tables, timers.
func (n *seqNode) installView(v View) {
	v.Primary = len(v.Members) >= n.quorum
	n.view = v
	n.epoch = v.ID.Epoch
	n.noteEpoch(v.ID.Epoch)
	n.leader = v.Members[0]
	n.state = seqOperational
	n.stats.Views++

	now := n.rt.Now()
	n.lastLeaderSeen = now
	n.arus = make([]uint64, len(v.Members))
	n.atSafe = len(v.Members) - 1 // every follower's aru starts at 0
	n.lastHeard = make([]time.Duration, len(v.Members))
	for r := range n.lastHeard {
		n.lastHeard[r] = now
	}
	n.nextLocal = make(map[transport.NodeID]uint64)
	n.heldProps = make(map[transport.NodeID]map[uint64]*seqPropose)

	// Relabel surviving proposals densely under the new epoch and resend.
	// Proposals whose dupKey has been seen are retired first — a hole in the
	// dense numbering would wedge the new leader's per-sender chain.
	n.suppressSeenPending()
	n.localSeq = 0
	for _, p := range n.pend {
		n.localSeq++
		p.local = n.localSeq
		p.sent = false
	}

	n.cancelAllTimers()
	if n.env.OnView != nil {
		n.env.OnView(View{
			ID:      v.ID,
			Members: append([]transport.NodeID(nil), v.Members...),
			Primary: v.Primary,
		})
	}
	if n.leader == n.me {
		n.armHeartbeat()
	} else {
		n.armLossTimer()
	}
	n.armResendTimer()
	if !v.Primary {
		// A non-primary component keeps retrying elections; the retry
		// broadcast doubles as the remerge beacon after a partition heals.
		n.armRetryTimer()
	}
	n.flushPending()
}

// scheduleRejoin elects into a component whose view is ahead of ours, after
// a short delay that lets an in-flight install win the race.
func (n *seqNode) scheduleRejoin(target ViewID) {
	if n.rejoinTimer != nil {
		return
	}
	n.rejoinTimer = n.afterGuarded(n.tun.ResendInterval, func() {
		n.rejoinTimer = nil
		if n.view.ID.Less(target) && n.state != seqStopped {
			n.startElection(n.maxEpoch + 1)
		}
	})
}

// ---- timers ----

func (n *seqNode) armHeartbeat() {
	n.cancelTimer(&n.hbTimer)
	n.hbTimer = n.afterGuarded(n.tun.HeartbeatInterval, func() {
		if n.state != seqOperational || n.leader != n.me {
			return
		}
		n.broadcastHeartbeat()
		// Reform the view without followers that stopped acking; a wedged
		// follower would otherwise stall the safe point forever.
		now := n.rt.Now()
		stale := false
		for r, m := range n.view.Members {
			if m != n.me && now-n.lastHeard[r] > n.tun.LeaderTimeout {
				stale = true
				break
			}
		}
		if stale {
			n.startElection(n.maxEpoch + 1)
			return
		}
		n.armHeartbeat()
	})
}

func (n *seqNode) armLossTimer() {
	n.cancelTimer(&n.lossTimer)
	n.lossTimer = n.afterGuarded(n.tun.LeaderTimeout/2, func() {
		if n.state != seqOperational || n.leader == n.me {
			return
		}
		if n.rt.Now()-n.lastLeaderSeen > n.tun.LeaderTimeout {
			n.startElection(n.maxEpoch + 1)
			return
		}
		n.armLossTimer()
	})
}

func (n *seqNode) armResendTimer() {
	n.cancelTimer(&n.resendTimer)
	n.resendTimer = n.afterGuarded(n.tun.ResendInterval, func() {
		if n.state != seqOperational {
			return
		}
		if n.view.Primary {
			n.suppressSeenPending()
			for _, p := range n.pend {
				n.sendPropose(p, p.sent)
			}
		}
		if n.leader != n.me {
			n.sendGapNack()
		}
		n.armResendTimer()
	})
}

func (n *seqNode) armRetryTimer() {
	n.cancelTimer(&n.retryTimer)
	n.retryTimer = n.afterGuarded(n.tun.LeaderTimeout, func() {
		if n.state == seqOperational && !n.view.Primary {
			n.startElection(n.maxEpoch + 1)
		}
	})
}

func (n *seqNode) armElectTimer(d time.Duration, fn func()) {
	n.cancelTimer(&n.electTimer)
	n.electTimer = n.afterGuarded(d, fn)
}

func (n *seqNode) cancelTimer(t *sim.Canceler) {
	if *t != nil {
		(*t).Cancel()
		*t = nil
	}
}

func (n *seqNode) cancelAllTimers() {
	n.timerEpoch++
	n.cancelTimer(&n.hbTimer)
	n.cancelTimer(&n.lossTimer)
	n.cancelTimer(&n.resendTimer)
	n.cancelTimer(&n.electTimer)
	n.cancelTimer(&n.retryTimer)
	n.cancelTimer(&n.rejoinTimer)
}

func (n *seqNode) afterGuarded(d time.Duration, fn func()) sim.Canceler {
	epoch := n.timerEpoch
	return n.rt.After(d, func() {
		if n.state == seqStopped || n.timerEpoch != epoch {
			return
		}
		fn()
	})
}

// ---- obs ----

// ObsNode implements obs.Source.
func (n *seqNode) ObsNode() uint32 { return uint32(n.me) }

// ObsSamples implements obs.Source under the canonical seq.* names.
// Loop-only.
func (n *seqNode) ObsSamples() []obs.Sample {
	id := uint32(n.me)
	return []obs.Sample{
		{Node: id, Name: "seq.proposals", Value: n.stats.Proposals},
		{Node: id, Name: "seq.suppressed", Value: n.stats.Suppressed},
		{Node: id, Name: "seq.ordered", Value: n.stats.Ordered},
		{Node: id, Name: "seq.delivered", Value: n.stats.Delivered},
		{Node: id, Name: "seq.resends", Value: n.stats.Resends},
		{Node: id, Name: "seq.retransmissions", Value: n.stats.Retrans},
		{Node: id, Name: "seq.nacks", Value: n.stats.Nacks},
		{Node: id, Name: "seq.heartbeats", Value: n.stats.Heartbeats},
		{Node: id, Name: "seq.elections", Value: n.stats.Elections},
		{Node: id, Name: "seq.views_installed", Value: n.stats.Views},
	}
}
