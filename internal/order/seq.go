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
	Suppressed uint64 // queued proposals withdrawn unsent because their dupKey was seen
	Refused    uint64 // proposals refused as leader because their dupKey was seen
	Ordered    uint64 // entries this node sequenced as leader
	Resends    uint64 // proposal retransmissions
	Retrans    uint64 // entry retransmissions served as leader
	Nacks      uint64 // gap nacks sent
	Heartbeats uint64 // heartbeats broadcast as leader
	Elections  uint64 // elections this node initiated or joined
	Views      uint64 // views installed
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
	endpoint
	tun SeqTuning
	rt  sim.Runtime
	tr  transport.Transport

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
	safeWaitSeq uint64

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

	// Proposer state. out queues local proposals, and its key window holds
	// the dupKeys of the entries seen.
	localSeq       uint64 // last local id assigned (this epoch)
	out            outbox
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
		endpoint: endpoint{env: env, me: me},
		tun:      t,
		rt:       env.Runtime,
		tr:       env.Transport,
		universe: universe,
		quorum:   majority(len(universe)),
		received: make(map[uint64]*seqEntry),
		obs:      env.Obs,
	}
	n.out.flush = n.flushPending
	env.Transport.SetReceiver(hop(n.rt, n.dispatch))
	env.Obs.Register(n)
	return n, nil
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

// Broadcast implements Orderer. Safe from any goroutine.
func (n *seqNode) Broadcast(payload []byte) error {
	p := newPending(n.me, payload, false, 0)
	n.rt.Post(func() {
		if n.state == seqStopped {
			return
		}
		n.submit(p)
		n.flushPending()
	})
	return nil
}

// BroadcastCancelable implements Orderer. The proposal is flushed to the
// wire by a posted step, so a cancel within the submitting loop instant
// withdraws it before it is sent; after that the leader's dupKey check
// refuses redundant ordering.
func (n *seqNode) BroadcastCancelable(payload []byte, safe bool, dupKey uint64) func() bool {
	p := newPending(n.me, payload, safe, dupKey)
	if n.state == seqStopped {
		return p.cancel
	}
	n.submit(p)
	n.out.flushSoon(n.rt)
	return p.cancel
}

// submit queues a proposal. It is numbered only when first sent
// (sendPropose): a proposal cancelled or suppressed before then must not
// leave a hole in this sender's numbering, which the leader would wait on
// for the rest of the view.
func (n *seqNode) submit(p *pending) {
	n.out.add(p)
	n.stats.Proposals++
}

// flushPending pushes queued proposals toward the current leader, after
// withdrawing those whose dupKey has been ordered: the leader would refuse
// them. Proposals stay queued (still cancellable) while the node has no
// primary view.
func (n *seqNode) flushPending() {
	n.out.sweep(&n.stats.Suppressed)
	if n.state != seqOperational || !n.view.Primary {
		return
	}
	for _, p := range n.out.q {
		if !p.sent {
			n.sendPropose(p, false)
		}
	}
}

// sendPropose transmits one proposal to the leader (or orders it directly
// when this node is the leader), numbering it at its first send in the view.
func (n *seqNode) sendPropose(p *pending, resend bool) {
	if p.local == 0 {
		n.localSeq++
		p.local = n.localSeq
	}
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
	if n.out.keys.Seen(p.DupKey) {
		n.stats.Refused++
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
	n.out.see(e.DupKey, len(n.view.Members))
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
	n.out.see(e.DupKey, len(n.view.Members))
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
		n.deliver(e.View, e.Seq, e.Sender, e.Payload)
	}
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

// clearPendingFor retires the local proposal matched by an ordered entry.
func (n *seqNode) clearPendingFor(e *seqEntry) {
	if e.Sender != n.me {
		return
	}
	for _, p := range n.out.q {
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
		n.out.see(e.DupKey, len(m.Members))
		n.deliver(e.View, e.Seq, e.Sender, e.Payload)
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

	// Relabel surviving proposals under the new epoch: each is numbered
	// afresh, densely and in queue order, when it is sent in this view.
	n.localSeq = 0
	for _, p := range n.out.q {
		p.local = 0
		p.sent = false
	}

	n.cancelAllTimers()
	n.emitView(View{ID: v.ID, Members: slices.Clone(v.Members), Primary: v.Primary})
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
	n.rejoinTimer = n.rt.After(n.tun.ResendInterval, func() {
		n.rejoinTimer = nil
		if n.view.ID.Less(target) && n.state != seqStopped {
			n.startElection(n.maxEpoch + 1)
		}
	})
}

// ---- timers ----

func (n *seqNode) armHeartbeat() {
	cancelTimer(&n.hbTimer)
	n.hbTimer = n.rt.After(n.tun.HeartbeatInterval, func() {
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
	cancelTimer(&n.lossTimer)
	n.lossTimer = n.rt.After(n.tun.LeaderTimeout/2, func() {
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
	cancelTimer(&n.resendTimer)
	n.resendTimer = n.rt.After(n.tun.ResendInterval, func() {
		if n.state != seqOperational {
			return
		}
		if n.view.Primary {
			n.out.sweep(&n.stats.Suppressed)
			for _, p := range n.out.q {
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
	cancelTimer(&n.retryTimer)
	n.retryTimer = n.rt.After(n.tun.LeaderTimeout, func() {
		if n.state == seqOperational && !n.view.Primary {
			n.startElection(n.maxEpoch + 1)
		}
	})
}

func (n *seqNode) armElectTimer(d time.Duration, fn func()) {
	cancelTimer(&n.electTimer)
	n.electTimer = n.rt.After(d, fn)
}

func (n *seqNode) cancelAllTimers() {
	cancelTimer(&n.hbTimer)
	cancelTimer(&n.lossTimer)
	cancelTimer(&n.resendTimer)
	cancelTimer(&n.electTimer)
	cancelTimer(&n.retryTimer)
	cancelTimer(&n.rejoinTimer)
}

// ---- obs ----

// ObsSamples implements obs.Source under the canonical seq.* names.
// Loop-only.
func (n *seqNode) ObsSamples() []obs.Sample {
	id := uint32(n.me)
	return []obs.Sample{
		{Node: id, Name: "seq.proposals", Value: n.stats.Proposals},
		{Node: id, Name: "seq.suppressed", Value: n.stats.Suppressed},
		{Node: id, Name: "seq.refused", Value: n.stats.Refused},
		{Node: id, Name: "seq.ordered", Value: n.stats.Ordered},
		{Node: id, Name: "seq.delivered", Value: n.totalOrder},
		{Node: id, Name: "seq.resends", Value: n.stats.Resends},
		{Node: id, Name: "seq.retransmissions", Value: n.stats.Retrans},
		{Node: id, Name: "seq.nacks", Value: n.stats.Nacks},
		{Node: id, Name: "seq.heartbeats", Value: n.stats.Heartbeats},
		{Node: id, Name: "seq.elections", Value: n.stats.Elections},
		{Node: id, Name: "seq.views_installed", Value: n.stats.Views},
	}
}
