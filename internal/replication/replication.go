// Package replication is the replication infrastructure of the paper (its
// PluggableFT CORBA equivalent): it turns an application state machine into
// an actively, passively or semi-actively replicated server group on top of
// the group-communication layer.
//
// Every replica logs the totally-ordered requests addressed to its group.
// Executors (all replicas under active and semi-active replication; only the
// primary under passive replication) advance through the log, running each
// invocation on a deterministic logical thread and multicasting the reply.
// Duplicate replies are suppressed: each replica's reply is queued
// cancellably and withdrawn when another replica's identical reply is
// observed in the total order — the mechanism behind the paper's CCS
// message counts (§4.3). Passive backups follow checkpoints; when the
// primary fails, the next member replays the logged requests the checkpoint
// did not cover. Recovering replicas obtain state with an ordered GET_STATE
// message: the existing replicas checkpoint at its delivery point — taking
// the special clock-synchronization round immediately before the checkpoint
// (§3.2) via a pluggable hook — and the newcomer restores and replays.
package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"cts/internal/gcs"
	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/transport"
	"cts/internal/wire"
)

// Style selects the replication style (§2).
type Style int

// Replication styles.
const (
	// Active: all replicas process every request and compete to reply.
	Active Style = iota + 1
	// Passive: only the primary processes requests; backups follow
	// checkpoints and replay the request log on failover.
	Passive
	// SemiActive: all replicas process every request, but non-deterministic
	// decisions (clock readings) are made by the primary and conveyed to the
	// backups (Delta-4).
	SemiActive
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case Active:
		return "active"
	case Passive:
		return "passive"
	case SemiActive:
		return "semi-active"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Application is the replicated state machine. All methods are called on a
// logical thread (Invoke) or the event loop (Snapshot/Restore); they must be
// deterministic given the invocation order — clock reads must go through the
// consistent time service bound to the Ctx.
type Application interface {
	// Invoke processes one request and returns the reply body.
	Invoke(ctx *Ctx, method string, body []byte) []byte
	// Snapshot captures the application state for checkpoints.
	Snapshot() []byte
	// Restore replaces the application state from a checkpoint.
	Restore(state []byte)
}

// Status mirrors the replica's role for observability.
type Status struct {
	Style     Style
	Primary   bool // this replica is the group's current primary
	InPrimary bool // the component holds a quorum
	Live      bool // state is current (not awaiting a state transfer)
	Members   []transport.NodeID
}

// Stats counts manager activity, for experiments.
type Stats struct {
	Executed           uint64
	RepliesSent        uint64
	RepliesSuppressed  uint64
	CheckpointsSent    uint64
	CheckpointsApplied uint64
	Replayed           uint64
	Resyncs            uint64 // state transfers forced by detected delivery gaps
}

// Config configures a Manager.
type Config struct {
	// Runtime is the replica's event loop. Required.
	Runtime sim.Runtime
	// Stack is the group-communication endpoint. Required.
	Stack *gcs.Stack
	// Group is the server group identifier. Required (non-zero).
	Group wire.GroupID
	// Style selects the replication style; default Active.
	Style Style
	// App is the replicated application. Required.
	App Application
	// Recovering marks a replica that must obtain the group state through a
	// GET_STATE transfer before going live (a new or restarted replica).
	Recovering bool
	// CheckpointEvery makes passive primaries checkpoint after every N
	// executed invocations. Default 10. Ignored for other styles (they
	// checkpoint only on GET_STATE).
	CheckpointEvery int
	// OnStatus, if set, receives role changes. Called on the loop.
	OnStatus func(Status)
	// Obs registers this manager's counters. A nil recorder disables
	// instrumentation at no cost. Optional.
	Obs *obs.Recorder
}

// Validate checks cfg and fills defaults, returning the effective
// configuration.
func (c Config) Validate() (Config, error) {
	if c.Runtime == nil {
		return c, errors.New("replication: Config.Runtime is required")
	}
	if c.Stack == nil {
		return c, errors.New("replication: Config.Stack is required")
	}
	if c.App == nil {
		return c, errors.New("replication: Config.App is required")
	}
	if c.Group == 0 {
		return c, errors.New("replication: Config.Group is required")
	}
	switch c.Style {
	case 0:
		c.Style = Active
	case Active, Passive, SemiActive:
	default:
		return c, fmt.Errorf("replication: invalid Config.Style %d", int(c.Style))
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("replication: Config.CheckpointEvery must not be negative (got %d)", c.CheckpointEvery)
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10
	}
	return c, nil
}

// invKey identifies an invocation (or checkpoint) for duplicate suppression.
type invKey struct {
	dst  wire.GroupID
	conn wire.ConnID
	seq  uint64
}

// cachedReply is the reply to a connection's most recent invocation.
type cachedReply struct {
	seq  uint64
	body []byte
}

type logEntry struct {
	msg  wire.Message
	meta gcs.Meta
	// dup marks a retransmitted request (sequence number at or below the
	// connection's delivery high-water mark at append time). Duplicates are
	// never executed; if the cached reply matches, it is re-sent. The mark
	// is assigned in delivery order, so it agrees across replicas.
	dup bool
}

// Manager is one replica of a replicated server group. All internal state is
// confined to the runtime loop.
type Manager struct {
	rt    sim.Runtime
	stack *gcs.Stack
	gid   wire.GroupID
	style Style
	app   Application
	me    transport.NodeID
	cfg   Config

	group *gcs.Group
	view  gcs.GroupView
	rank  int // index of me in view.Members, -1 when absent

	live         bool // state current; may execute
	recovering   bool
	sentGetState bool
	getstateSeq  uint32

	// connSeq tracks the highest request sequence number seen per
	// connection; a jump reveals deliveries missed while this replica was
	// cut off in a non-primary component, requiring a state resync.
	connSeq map[invKey]uint64
	// everNonPrimary records that this replica has been in a non-primary
	// component since its state was last known current: only then can a
	// sequence gap mean that a primary component progressed without us
	// (otherwise the gap is a client's message that died with a minority
	// component and will be retransmitted).
	everNonPrimary bool
	// replyCache holds the last reply per connection, to answer
	// retransmitted requests without re-executing them (at-most-once).
	replyCache map[invKey]cachedReply
	// dupCount numbers the retransmission instances per connection, giving
	// each re-sent reply a fresh wire identity (identical at every replica,
	// since duplicates are counted in delivery order).
	dupCount map[invKey]uint64
	// getstatePos records where (in LOCAL delivery order) each GET_STATE
	// message was delivered, so the answering checkpoint can be aligned at
	// replicas whose delivery counters differ from the serving executor's.
	getstatePos map[uint64]uint64

	// log holds the ordered requests this replica may still have to run:
	// everything since the last checkpoint at a passive backup (replayed on
	// failover), and only the not-yet-executed suffix at an executor, which
	// never re-reads log[:executed] (tryExecute releases it).
	log      []logEntry
	executed int // index of the next log entry to execute

	invThread    *thread
	nextThreadID uint64
	busy         bool
	currentEntry logEntry
	currentReply []byte

	pendingReplies map[invKey]func() bool
	seenReplies    map[invKey]bool

	// Hooks installed by the consistent time service (see below).
	ccsHandler   func(wire.Message, gcs.Meta)
	captureExtra func(done func(extra []byte, groupClock int64))
	restoreExtra func(extra []byte)
	stampClock   func() time.Duration
	observeStamp func(time.Duration)

	sinceCheckpoint int
	stats           Stats
	obs             *obs.Recorder
}

// New creates a manager. Call Start to join the group and begin.
func New(cfg Config) (*Manager, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	m := &Manager{
		rt:             cfg.Runtime,
		stack:          cfg.Stack,
		gid:            cfg.Group,
		style:          cfg.Style,
		app:            cfg.App,
		me:             cfg.Stack.LocalID(),
		cfg:            cfg,
		rank:           -1,
		live:           !cfg.Recovering,
		recovering:     cfg.Recovering,
		invThread:      newThread(1),
		nextThreadID:   2,
		pendingReplies: make(map[invKey]func() bool),
		seenReplies:    make(map[invKey]bool),
		connSeq:        make(map[invKey]uint64),
		replyCache:     make(map[invKey]cachedReply),
		dupCount:       make(map[invKey]uint64),
		getstatePos:    make(map[uint64]uint64),
		obs:            cfg.Obs,
	}
	cfg.Obs.Register(m)
	return m, nil
}

// Start joins the server group. Safe to call from any goroutine.
func (m *Manager) Start() error {
	g, err := m.stack.Join(m.gid, m.onMsg, m.onView)
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	m.group = g
	m.stack.WatchMessages(m.sniff)
	return nil
}

// Stop leaves the group and retires the invocation thread. The manager must
// be idle (no invocation in progress) — callers stop the stack first, which
// quiesces deliveries.
func (m *Manager) Stop() {
	m.rt.Post(func() {
		if m.group != nil {
			m.group.Leave()
		}
		if !m.busy {
			m.invThread.close()
		}
	})
}

// SetCCSHandler routes delivered CCS messages (wire.TypeCCS,
// wire.TypeCCSBatch and wire.TypeCCSFed) to the consistent time service.
// Loop-only.
func (m *Manager) SetCCSHandler(h func(wire.Message, gcs.Meta)) { m.ccsHandler = h }

// SetCheckpointHooks installs the consistent time service's checkpoint
// participation: capture runs the special clock-synchronization round taken
// immediately before a checkpoint and yields the service's state; restore
// applies it at a recovering replica (§3.2). Loop-only.
func (m *Manager) SetCheckpointHooks(capture func(done func(extra []byte, groupClock int64)),
	restore func(extra []byte)) {
	m.captureExtra = capture
	m.restoreExtra = restore
}

// SetCausalHooks installs the consistent time service's inter-group
// causality participation (§5 of the paper): stamp supplies the group clock
// value placed in outgoing replies, and observe is invoked — in delivery
// order, before the request executes — with the timestamp carried by an
// incoming request, so the group clock advances past every value the
// request causally depends on. Loop-only.
func (m *Manager) SetCausalHooks(stamp func() time.Duration, observe func(time.Duration)) {
	m.stampClock = stamp
	m.observeStamp = observe
}

// Stack returns the group-communication endpoint.
func (m *Manager) Stack() *gcs.Stack { return m.stack }

// Group reports the server group id.
func (m *Manager) Group() wire.GroupID { return m.gid }

// Style reports the replication style.
func (m *Manager) Style() Style { return m.style }

// Runtime returns the replica's event loop.
func (m *Manager) Runtime() sim.Runtime { return m.rt }

// LocalNode reports the replica's transport identity.
func (m *Manager) LocalNode() transport.NodeID { return m.me }

// Members reports the sorted members of the server group's current view
// (empty before the first view installs). The slice is shared with the view:
// read-only. Loop-only.
func (m *Manager) Members() []transport.NodeID { return m.view.Members }

// Rank reports this replica's index in the sorted members of the current
// view: -1 before the first view installs and while the view lacks it.
// Loop-only.
func (m *Manager) Rank() int { return m.rank }

// IsPrimary reports whether this replica is the group's current primary
// (first member of the current view). Loop-only.
func (m *Manager) IsPrimary() bool {
	return len(m.view.Members) > 0 && m.view.Members[0] == m.me
}

// InPrimaryComponent reports whether the component holds a quorum. Loop-only.
func (m *Manager) InPrimaryComponent() bool { return m.view.Primary }

// Live reports whether the replica's state is current. Loop-only.
func (m *Manager) Live() bool { return m.live }

// Recovering reports whether this replica was configured to join through a
// GET_STATE transfer (§3.2). The flag is static: it still reads true after
// the transfer completes and the replica goes live.
func (m *Manager) Recovering() bool { return m.recovering }

// Obs returns the manager's recorder (nil when observability is off).
func (m *Manager) Obs() *obs.Recorder { return m.obs }

// ObsNode implements obs.Source.
func (m *Manager) ObsNode() uint32 { return uint32(m.me) }

// ObsSamples implements obs.Source under the canonical repl.* names.
// Loop-only.
func (m *Manager) ObsSamples() []obs.Sample {
	id := uint32(m.me)
	return []obs.Sample{
		{Node: id, Name: "repl.executed", Value: m.stats.Executed},
		{Node: id, Name: "repl.replies_sent", Value: m.stats.RepliesSent},
		{Node: id, Name: "repl.replies_suppressed", Value: m.stats.RepliesSuppressed},
		{Node: id, Name: "repl.checkpoints_sent", Value: m.stats.CheckpointsSent},
		{Node: id, Name: "repl.checkpoints_applied", Value: m.stats.CheckpointsApplied},
		{Node: id, Name: "repl.replayed", Value: m.stats.Replayed},
		{Node: id, Name: "repl.resyncs", Value: m.stats.Resyncs},
		// Gauge: ordered requests retained for execution or failover replay.
		{Node: id, Name: "replication.log_entries", Value: uint64(len(m.log))},
	}
}

// SpawnThread creates a new logical thread and runs fn on it, concurrently
// with (and deterministically interleaved against) the invocation thread.
// Must be called from deterministic execution (inside Invoke) or before
// Start, so that creation order — and hence thread identifiers — agree
// across replicas. Safe to call from a logical thread or the loop.
func (m *Manager) SpawnThread(fn func(*Ctx)) {
	m.rt.Post(func() {
		t := newThread(m.nextThreadID)
		m.nextThreadID++
		ctx := &Ctx{t: t, m: m}
		m.runOnThread(t, func() { fn(ctx) })
	})
}

// isExecutor reports whether this replica executes requests right now.
func (m *Manager) isExecutor() bool {
	if !m.live || !m.view.Primary {
		return false
	}
	switch m.style {
	case Passive:
		return m.IsPrimary()
	default:
		return true
	}
}

func (m *Manager) onView(v gcs.GroupView) {
	wasExecutor := m.isExecutor()
	m.view = v
	m.rank = -1
	if r, ok := slices.BinarySearch(v.Members, m.me); ok {
		m.rank = r
	}
	if !v.Primary {
		m.everNonPrimary = true
	}
	if m.recovering && !m.sentGetState && m.rank >= 0 {
		m.sentGetState = true
		m.sendGetState()
	}
	if m.cfg.OnStatus != nil {
		m.cfg.OnStatus(Status{Style: m.style, Primary: m.IsPrimary(),
			InPrimary: v.Primary, Live: m.live, Members: v.Members})
	}
	// A passive backup that has just become primary replays the log.
	if !wasExecutor && m.isExecutor() {
		m.stats.Replayed += uint64(len(m.log) - m.executed)
		m.tryExecute()
	}
}

func (m *Manager) onMsg(msg wire.Message, meta gcs.Meta) {
	switch msg.Type {
	case wire.TypeCCS, wire.TypeCCSBatch, wire.TypeCCSFed:
		if m.ccsHandler != nil {
			m.ccsHandler(msg, meta)
		}
	case wire.TypeRequest:
		dup := m.noteRequestSeq(msg)
		m.log = append(m.log, logEntry{msg: msg, meta: meta, dup: dup})
		m.tryExecute()
	case wire.TypeGetState:
		m.getstatePos[msg.Seq] = meta.TotalOrder
		if len(m.getstatePos) > 1024 {
			m.getstatePos = map[uint64]uint64{msg.Seq: meta.TotalOrder}
		}
		m.log = append(m.log, logEntry{msg: msg, meta: meta})
		m.tryExecute()
	case wire.TypeCheckpoint:
		m.onCheckpoint(msg, meta)
	}
}

// debugGapHook, when set by tests, observes detected gaps.
var debugGapHook func(me transport.NodeID, conn wire.ConnID, last, got uint64)

// SetDebugGapHook installs a test observer for detected delivery gaps.
func SetDebugGapHook(h func(me transport.NodeID, conn wire.ConnID, last, got uint64)) {
	debugGapHook = h
}

// noteRequestSeq tracks per-connection sequence numbers of delivered
// requests and reports whether msg is a retransmitted duplicate.
//
// A forward jump can mean two things. If this replica has been in a
// non-primary component since its state was last known current, a primary
// component may have progressed without it: its log and state are
// incomplete, so it stops executing and re-acquires the group state via
// GET_STATE, like a recovering replica (§3.2). If it never left the primary
// component, no group member can have delivered the missing message (the
// sender was cut off and will retransmit), so the gap is recorded and
// ignored.
func (m *Manager) noteRequestSeq(msg wire.Message) (dup bool) {
	key := invKey{dst: msg.SrcGroup, conn: msg.Conn, seq: 0}
	last, ok := m.connSeq[key]
	if msg.Seq <= last && ok {
		return true
	}
	m.connSeq[key] = msg.Seq
	if ok && msg.Seq > last+1 && m.live && m.everNonPrimary {
		if debugGapHook != nil {
			debugGapHook(m.me, msg.Conn, last, msg.Seq)
		}
		m.live = false
		m.stats.Resyncs++
		m.sendGetState()
		if m.cfg.OnStatus != nil {
			m.cfg.OnStatus(Status{Style: m.style, Primary: m.IsPrimary(),
				InPrimary: m.view.Primary, Live: false, Members: m.view.Members})
		}
	}
	return false
}

// sendGetState multicasts a state-transfer request with a unique identifier.
func (m *Manager) sendGetState() {
	m.getstateSeq++
	_ = m.stack.Multicast(wire.Message{Header: wire.Header{
		Type: wire.TypeGetState, SrcGroup: m.gid, DstGroup: m.gid,
		Conn: 0, Seq: uint64(m.me)<<32 | uint64(m.getstateSeq),
	}})
}

// sniff observes every message in total order for duplicate suppression.
func (m *Manager) sniff(msg wire.Message, meta gcs.Meta) {
	if msg.Type != wire.TypeReply && msg.Type != wire.TypeCheckpoint {
		return
	}
	key := invKey{dst: msg.DstGroup, conn: msg.Conn, seq: msg.Seq}
	if msg.Type == wire.TypeReply {
		m.markSeen(key)
	}
	if cancel, ok := m.pendingReplies[key]; ok {
		if cancel() {
			// The queued duplicate never reached the wire.
			m.stats.RepliesSuppressed++
			if msg.Type == wire.TypeReply {
				m.stats.RepliesSent--
			} else {
				m.stats.CheckpointsSent--
			}
		}
		delete(m.pendingReplies, key)
	}
}

func (m *Manager) markSeen(key invKey) {
	// Bound the dedup table; clients also deduplicate by invocation id, so
	// occasionally forgetting an old reply only costs a redundant send.
	if len(m.seenReplies) > 8192 {
		m.seenReplies = make(map[invKey]bool)
	}
	m.seenReplies[key] = true
}

func (m *Manager) tryExecute() {
	for !m.busy && m.isExecutor() && m.executed < len(m.log) {
		e := m.log[m.executed]
		m.executed++
		switch e.msg.Type {
		case wire.TypeRequest:
			if e.dup {
				m.answerDuplicate(e)
				continue
			}
			m.execute(e)
		case wire.TypeGetState:
			m.handleGetState(e)
		}
	}
	if m.executed > 0 && m.executed == len(m.log) {
		// Everything logged has been handed to execution (the running
		// invocation keeps its own copy): release the entries, so their
		// payloads can be collected, and keep the capacity.
		clear(m.log)
		m.log = m.log[:0]
		m.executed = 0
	}
}

// answerDuplicate re-sends the cached reply for a retransmitted request,
// without re-executing it (at-most-once semantics). If the cache has moved
// on, the request is dropped — its client has necessarily already received
// the reply or given up. The re-sent reply carries a fresh wire identity
// (the retransmission ordinal in its sequence number's high bits), so it is
// deduplicated across replicas per retransmission instance rather than
// being suppressed by the original reply's identity.
func (m *Manager) answerDuplicate(e logEntry) {
	key := invKey{dst: e.msg.SrcGroup, conn: e.msg.Conn, seq: 0}
	cached, ok := m.replyCache[key]
	if !ok || cached.seq != e.msg.Seq {
		return
	}
	m.dupCount[key]++
	seq := e.msg.Seq | m.dupCount[key]<<48
	m.sendReplyAs(e, cached.body, seq)
}

func (m *Manager) execute(e logEntry) {
	req, err := wire.UnmarshalRequest(e.msg.Payload)
	if err != nil {
		return // malformed request: consistently skipped by every replica
	}
	if req.Timestamp > 0 && m.observeStamp != nil {
		m.observeStamp(req.Timestamp)
	}
	m.busy = true
	m.currentEntry = e
	m.currentReply = nil
	ctx := &Ctx{t: m.invThread, m: m}
	m.runOnThread(m.invThread, func() {
		m.currentReply = m.app.Invoke(ctx, req.Method, req.Body)
	})
}

// onThreadDone finalizes a finished work item. For the invocation thread
// this completes the current invocation; spawned threads simply retire.
func (m *Manager) onThreadDone(t *thread) {
	if t != m.invThread {
		t.close()
		return
	}
	e := m.currentEntry
	m.busy = false
	m.stats.Executed++
	m.replyCache[invKey{dst: e.msg.SrcGroup, conn: e.msg.Conn, seq: 0}] =
		cachedReply{seq: e.msg.Seq, body: m.currentReply}
	if len(m.replyCache) > 4096 {
		m.replyCache = make(map[invKey]cachedReply)
	}
	m.sendReply(e, m.currentReply)
	m.maybePeriodicCheckpoint(e)
	m.tryExecute()
}

func (m *Manager) sendReply(e logEntry, body []byte) {
	key := invKey{dst: e.msg.SrcGroup, conn: e.msg.Conn, seq: e.msg.Seq}
	if m.seenReplies[key] {
		m.stats.RepliesSuppressed++
		return // another replica's reply already went through
	}
	m.sendReplyAs(e, body, e.msg.Seq)
}

// sendReplyAs multicasts a reply under the given wire sequence number.
func (m *Manager) sendReplyAs(e logEntry, body []byte, seq uint64) {
	req, err := wire.UnmarshalRequest(e.msg.Payload)
	if err != nil {
		return
	}
	key := invKey{dst: e.msg.SrcGroup, conn: e.msg.Conn, seq: seq}
	reply := wire.ReplyPayload{
		InvocationID: req.InvocationID,
		ReplicaNode:  uint32(m.me),
		Body:         body,
	}
	if m.stampClock != nil {
		reply.Timestamp = m.stampClock()
	}
	payload, err := wire.MarshalReply(reply)
	if err != nil {
		return
	}
	cancel, err := m.stack.MulticastCancelable(wire.Message{
		Header: wire.Header{Type: wire.TypeReply, SrcGroup: m.gid,
			DstGroup: e.msg.SrcGroup, Conn: e.msg.Conn, Seq: seq},
		Payload: payload,
	}, false)
	if err != nil {
		return
	}
	m.stats.RepliesSent++
	m.pendingReplies[key] = cancel
}

func (m *Manager) maybePeriodicCheckpoint(e logEntry) {
	if m.style != Passive || !m.IsPrimary() {
		return
	}
	m.sinceCheckpoint++
	if m.sinceCheckpoint < m.cfg.CheckpointEvery {
		return
	}
	m.sinceCheckpoint = 0
	m.checkpoint(e.meta.TotalOrder, 0, e.meta.TotalOrder)
}

// handleGetState checkpoints the group state at the GET_STATE delivery
// point: the application is quiescent here (the invocation thread is idle),
// the snapshot is taken immediately, and the special clock-synchronization
// round runs before the checkpoint message is multicast (§3.2). The
// checkpoint echoes the GET_STATE's unique identifier (header Conn=1) so
// every replica can align the prune point with its own local delivery
// position of that GET_STATE.
func (m *Manager) handleGetState(e logEntry) {
	m.checkpoint(e.msg.Seq, 1, e.meta.TotalOrder)
}

// checkpoint captures and multicasts the group state. id is the suppression
// and alignment identifier (a GET_STATE id for conn=1, the primary's local
// marker for periodic conn=0 checkpoints); marker is the capturing
// replica's local delivery position.
func (m *Manager) checkpoint(id uint64, conn wire.ConnID, marker uint64) {
	appState := m.app.Snapshot()
	send := func(extra []byte, groupClock int64) {
		m.sendCheckpoint(id, conn, marker, appState, extra, groupClock)
	}
	if m.captureExtra != nil {
		m.captureExtra(send)
	} else {
		send(nil, 0)
	}
}

func (m *Manager) sendCheckpoint(id uint64, conn wire.ConnID, marker uint64,
	appState, extra []byte, groupClock int64) {
	key := invKey{dst: m.gid, conn: conn, seq: id}
	if m.seenReplies[key] {
		return // another replica's identical checkpoint already delivered
	}
	payload, err := wire.MarshalCheckpoint(wire.CheckpointPayload{
		Round:      marker,
		GroupClock: time.Duration(groupClock),
		AppState:   packStates(appState, extra),
	})
	if err != nil {
		return
	}
	cancel, err := m.stack.MulticastCancelable(wire.Message{
		Header: wire.Header{Type: wire.TypeCheckpoint, SrcGroup: m.gid,
			DstGroup: m.gid, Conn: conn, Seq: id},
		Payload: payload,
	}, false)
	if err != nil {
		return
	}
	m.stats.CheckpointsSent++
	m.pendingReplies[key] = cancel
}

func (m *Manager) onCheckpoint(msg wire.Message, meta gcs.Meta) {
	ckpt, err := wire.UnmarshalCheckpoint(msg.Payload)
	if err != nil {
		return
	}
	m.markSeen(invKey{dst: m.gid, conn: msg.Conn, seq: msg.Seq})

	// Determine the prune point in LOCAL delivery order. For a
	// GET_STATE-answering checkpoint (conn 1) that is this replica's own
	// delivery position of the GET_STATE; replicas that never delivered it
	// (they joined afterwards) hold only later entries and prune nothing.
	// Periodic checkpoints (conn 0) use the capturing primary's position,
	// valid because followers without gaps share its delivery history.
	var marker uint64
	if msg.Conn == 1 {
		pos, ok := m.getstatePos[msg.Seq]
		if ok {
			marker = pos
			delete(m.getstatePos, msg.Seq)
		}
	} else {
		marker = ckpt.Round
	}

	if !m.live || !m.isExecutorStyleCurrent() {
		// Recovering replicas and passive backups adopt the state.
		appState, extra := unpackStates(ckpt.AppState)
		m.app.Restore(appState)
		if m.restoreExtra != nil {
			m.restoreExtra(extra)
		}
		m.stats.CheckpointsApplied++
	}
	m.pruneLog(marker)
	if !m.live {
		m.live = true
		m.everNonPrimary = false // state is current again as of this checkpoint
		if m.cfg.OnStatus != nil {
			m.cfg.OnStatus(Status{Style: m.style, Primary: m.IsPrimary(),
				InPrimary: m.view.Primary, Live: true, Members: m.view.Members})
		}
	}
	m.tryExecute()
}

// isExecutorStyleCurrent reports whether this replica's own execution keeps
// its state current (so a delivered checkpoint must not overwrite it).
func (m *Manager) isExecutorStyleCurrent() bool {
	switch m.style {
	case Passive:
		return m.IsPrimary()
	default:
		return true
	}
}

// pruneLog drops log entries at or before the checkpoint marker, adjusting
// the executed index.
func (m *Manager) pruneLog(marker uint64) {
	idx := 0
	for idx < len(m.log) && m.log[idx].meta.TotalOrder <= marker {
		idx++
	}
	if idx == 0 {
		return
	}
	m.log = append([]logEntry(nil), m.log[idx:]...)
	m.executed -= idx
	if m.executed < 0 {
		m.executed = 0
	}
}

// packStates concatenates the application snapshot and the time service's
// extra state with a length prefix.
func packStates(appState, extra []byte) []byte {
	out := make([]byte, 4+len(appState)+len(extra))
	binary.BigEndian.PutUint32(out, uint32(len(appState)))
	copy(out[4:], appState)
	copy(out[4+len(appState):], extra)
	return out
}

func unpackStates(b []byte) (appState, extra []byte) {
	if len(b) < 4 {
		return nil, nil
	}
	n := binary.BigEndian.Uint32(b)
	if int(n) > len(b)-4 {
		return nil, nil
	}
	return b[4 : 4+n], b[4+n:]
}
