// Package core implements the paper's contribution: the consistent time
// service and its consistent clock synchronization (CCS) algorithm (§3).
//
// Each clock-related operation starts a round. The calling replica reads its
// physical hardware clock, adds its clock offset to form the local logical
// clock value, and proposes that value for the group clock in a CCS message
// multicast through the reliable totally-ordered group-communication
// substrate. The first CCS message delivered for the round decides the group
// clock: every replica adopts the delivered value and re-derives its offset
// as group_clock − physical_clock (Figures 2 and 3 of the paper). Replicas
// compete to be the round's synchronizer under active replication; under
// passive and semi-active replication only the primary sends, and a new
// primary first consults its buffer of already-delivered CCS messages
// (§3.3). Per-thread handlers, the common input buffer for threads that do
// not yet exist, duplicate detection by round number, the special round
// taken during state transfer (§3.2), and the drift-compensation strategies
// of §3.3 are all implemented.
package core

import (
	"errors"
	"fmt"
	"time"

	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/replication"
	"cts/internal/transport"
	"cts/internal/wire"
)

// specialThreadID is the reserved logical-thread identifier used by the
// special clock-synchronization round taken during state transfer.
const specialThreadID = 0

// Compensation selects the drift-compensation strategy of §3.3.
type Compensation int

// Drift-compensation strategies.
const (
	// CompNone applies the plain algorithm; the group clock drifts slow
	// relative to real time (Figure 6(c)).
	CompNone Compensation = iota
	// CompMeanDelay adds a configured mean communication delay to the clock
	// offset each time it is recalculated, cancelling most of the drift.
	CompMeanDelay
	// CompExternal nudges each proposed value a small proportion of the way
	// toward an external reference (NTP/GPS-like: transient skew, no drift).
	CompExternal
)

// String implements fmt.Stringer.
func (c Compensation) String() string {
	switch c {
	case CompNone:
		return "none"
	case CompMeanDelay:
		return "mean-delay"
	case CompExternal:
		return "external"
	default:
		return fmt.Sprintf("Compensation(%d)", int(c))
	}
}

// Config configures a TimeService.
type Config struct {
	// Manager is the replica's replication manager. Required.
	Manager *replication.Manager
	// Clock is the replica's physical hardware clock. Required.
	Clock hwclock.Clock
	// Compensation selects the drift strategy; default CompNone.
	Compensation Compensation
	// MeanDelay is the per-round offset bias for CompMeanDelay.
	// Default 75µs (≈ the testbed's CCS ordering delay).
	MeanDelay time.Duration
	// External is the reference clock for CompExternal.
	External hwclock.Clock
	// ExternalGain is the proportion of the (reference − proposal)
	// difference applied per round for CompExternal. Default 0.1.
	ExternalGain float64
	// DisableBatching forces every proposal onto its own CCS message even
	// when several rounds are pending at once (for determinism A/B tests and
	// experiments). Batching only engages when a proposal starts while an
	// earlier one is still unordered, so uncontended workloads behave
	// identically either way. Default false (batching on).
	DisableBatching bool
	// AgreedCCS delivers CCS messages with agreed instead of safe
	// semantics. The paper's algorithm relies on the safe-delivery property
	// ("if the message ... is delivered to any nonfaulty replica, it will
	// be delivered to all non-faulty replicas", §3), which costs roughly
	// one extra token circulation per round (§4.3, Figure 5); agreed
	// delivery trades that guarantee under partitions for lower latency.
	// Default false (safe, as in the paper).
	AgreedCCS bool
	// OnRound, if set, observes every completed round (for experiments).
	// Called on the loop.
	OnRound func(RoundReport)
	// Obs receives the CCS round-lifecycle trace events and registers this
	// service's counters. Defaults to the manager's recorder; a nil recorder
	// disables instrumentation at no cost. Optional.
	Obs *obs.Recorder
}

// Validate checks cfg and fills defaults, returning the effective
// configuration. Invalid settings are reported as errors instead of silently
// misbehaving.
func (c Config) Validate() (Config, error) {
	if c.Manager == nil {
		return c, errors.New("core: Config.Manager is required")
	}
	if c.Clock == nil {
		return c, errors.New("core: Config.Clock is required")
	}
	switch c.Compensation {
	case CompNone, CompMeanDelay, CompExternal:
	default:
		return c, fmt.Errorf("core: invalid Config.Compensation %d", int(c.Compensation))
	}
	if c.MeanDelay < 0 {
		return c, fmt.Errorf("core: Config.MeanDelay must not be negative (got %v)", c.MeanDelay)
	}
	if c.Compensation == CompMeanDelay && c.MeanDelay == 0 {
		c.MeanDelay = 75 * time.Microsecond
	}
	if c.Compensation == CompExternal {
		if c.External == nil {
			return c, errors.New("core: CompExternal requires Config.External")
		}
		if c.ExternalGain < 0 || c.ExternalGain > 1 {
			return c, fmt.Errorf("core: Config.ExternalGain must be in (0, 1] (got %v)", c.ExternalGain)
		}
		if c.ExternalGain == 0 {
			c.ExternalGain = 0.1
		}
	}
	if c.Obs == nil {
		c.Obs = c.Manager.Obs()
	}
	return c, nil
}

// RoundReport describes one completed CCS round at this replica.
type RoundReport struct {
	ThreadID   uint64
	Round      uint64
	Op         wire.ClockOp
	Special    bool
	GroupClock time.Duration // the round's decided group clock value
	Physical   time.Duration // this replica's physical clock for the round
	Offset     time.Duration // this replica's offset after the round
	Initiated  bool          // this replica ran the round (vs observed it)
	Winner     transport.NodeID
}

// Stats counts time-service activity.
type Stats struct {
	RoundsInitiated   uint64 // clock operations performed locally
	RoundsObserved    uint64 // rounds completed from delivered CCS messages only
	CCSSent           uint64 // CCS messages that reached the wire
	CCSSuppressed     uint64 // CCS sends withdrawn or skipped
	FromBuffer        uint64 // rounds satisfied by an already-delivered CCS message
	RoundsCoalesced   uint64 // rounds that shared a batch or were decided while queued
	BatchesSent       uint64 // CCS-batch messages that reached the wire
	BatchEntries      uint64 // rounds carried by those batch messages
	SpecialRounds     uint64
	MonotonicityFixes uint64 // defensive clamps (0 under fail-stop clocks)
	FedCoalesced      uint64 // benign clamps of rounds overtaken by a federated nudge
	TimersFired       uint64 // deterministic group-time timers fired
}

// pendingRead is a logical thread blocked in get_grp_clock_time. In-flight
// proposals are tracked centrally (batch.go), not per read: a batch message
// covers many reads and is withdrawn only when all of them are decided.
type pendingRead struct {
	round    uint64
	physical time.Duration
	op       wire.ClockOp
	complete func(any)
}

// roundMsg is a delivered CCS proposal retained in an input buffer. batch is
// the sender-local batch id when the proposal arrived inside a CCS-batch
// message (0 for a plain CCS message; batch ids start at 1).
type roundMsg struct {
	proposed time.Duration
	op       wire.ClockOp
	special  bool
	sender   transport.NodeID
	batch    uint64
}

// ccsHandler is the per-thread consistent clock synchronization handler
// object (§3.1): my_thread_id, my_input_buffer, and the round counter used
// for duplicate detection and for matching operations to CCS messages.
type ccsHandler struct {
	threadID uint64
	round    uint64              // rounds consumed by this thread
	buffer   map[uint64]roundMsg // my_input_buffer, keyed by round
	waiting  *pendingRead
}

// TimeService renders clock-related operations deterministic across the
// replica group. All state is confined to the manager's runtime loop.
type TimeService struct {
	mgr   *replication.Manager
	clock hwclock.Clock
	cfg   Config

	offset      time.Duration // my_clock_offset
	lastGroup   time.Duration // latest group clock value, for the monotone guard
	causalFloor time.Duration // §5: group clock must advance past this value
	handlers    map[uint64]*ccsHandler
	common      []commonEntry     // my_common_input_buffer
	pendingRnd  map[uint64]uint64 // thread rounds restored from a checkpoint

	special         ccsHandler // handler for the special (state transfer) rounds
	pendingCaptures []pendingCapture

	// Join-staleness accounting for a recovering replica (recovery.go):
	// the first restored checkpoint seeds the lease lag estimate with the
	// elapsed recovery time, an upper bound on how stale the adopted group
	// value is.
	recoveryStart time.Duration
	joinLagDue    bool

	// Batched proposals with round coalescing (batch.go).
	pendingBatch []wire.CCSBatchEntry
	flushQueued  bool
	batchSeq     uint64
	inflight     map[threadRound]*inflightProposal

	// Deterministic group-time timers (timers.go).
	timers   []*GroupTimer
	timerSeq uint64
	firing   bool

	// Lease plane for external reads between CCS rounds (lease.go).
	lease leaseState

	// Inter-group federation: offset adoption as a special CCS round
	// (federation.go).
	fed fedState

	stats Stats
	obs   *obs.Recorder
}

type commonEntry struct {
	threadID uint64
	round    uint64
	msg      roundMsg
}

// New creates a time service bound to the manager and installs its hooks
// (CCS message routing and checkpoint participation).
func New(cfg Config) (*TimeService, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	s := &TimeService{
		mgr:        cfg.Manager,
		clock:      cfg.Clock,
		cfg:        cfg,
		obs:        cfg.Obs,
		handlers:   make(map[uint64]*ccsHandler),
		pendingRnd: make(map[uint64]uint64),
		inflight:   make(map[threadRound]*inflightProposal),
		special:    ccsHandler{threadID: specialThreadID, buffer: make(map[uint64]roundMsg)},
	}
	s.lease.refresh.threadID = RefreshThreadID
	s.fed.handler.threadID = FedThreadID
	if cfg.Manager.Recovering() {
		s.recoveryStart = cfg.Clock.Read()
		s.joinLagDue = true
	}
	cfg.Obs.Register(s)
	cfg.Manager.Runtime().Post(func() {
		cfg.Manager.SetCCSHandler(s.onCCS)
		cfg.Manager.SetCheckpointHooks(s.captureForCheckpoint, s.restoreFromCheckpoint)
		cfg.Manager.SetCausalHooks(s.Timestamp, s.ObserveTimestamp)
	})
	return s, nil
}

// Timestamp reports the group clock value to stamp into outgoing inter-group
// messages (§5 of the paper): any reading this replica has returned is at or
// below it. Loop-only.
func (s *TimeService) Timestamp() time.Duration {
	if s.causalFloor > s.lastGroup {
		return s.causalFloor
	}
	return s.lastGroup
}

// ObserveTimestamp records a group clock value carried by a delivered
// inter-group message. The next group clock reading strictly exceeds it, so
// causal relationships between the group clocks of different groups are
// preserved (§5). Timestamps are observed in delivery order — the same order
// at every replica — so the floor is consistent across the group. Loop-only.
func (s *TimeService) ObserveTimestamp(t time.Duration) {
	if t > s.causalFloor {
		s.causalFloor = t
	}
}

// Gettimeofday performs a consistent clock read at µs granularity. It blocks
// the calling logical thread for one CCS round and returns the group clock.
func (s *TimeService) Gettimeofday(ctx *replication.Ctx) time.Duration {
	return s.read(ctx, wire.OpGettimeofday)
}

// Time performs a consistent clock read at second granularity (time(2)).
func (s *TimeService) Time(ctx *replication.Ctx) time.Duration {
	return s.read(ctx, wire.OpTime)
}

// Ftime performs a consistent clock read at millisecond granularity.
func (s *TimeService) Ftime(ctx *replication.Ctx) time.Duration {
	return s.read(ctx, wire.OpFtime)
}

// Clock returns the interposition facade bound to a logical thread context.
func (s *TimeService) Clock(ctx *replication.Ctx) *Clock {
	return &Clock{svc: s, ctx: ctx}
}

// read converts one clock-related operation into a CCS round (Figure 2).
func (s *TimeService) read(ctx *replication.Ctx, op wire.ClockOp) time.Duration {
	v := ctx.Call(func(complete func(any)) {
		s.beginRead(ctx.ThreadID(), op, complete)
	})
	d, _ := v.(time.Duration)
	return d - d%op.Granularity()
}

// beginRead runs on the loop: lines 3–14 of Figure 2.
func (s *TimeService) beginRead(threadID uint64, op wire.ClockOp, complete func(any)) {
	h := s.handler(threadID)
	physical := s.clock.Read() // my_physical_clock_val
	local := s.proposal(physical, 0)
	h.round++ // line 9
	s.stats.RoundsInitiated++
	round := h.round
	s.obs.Trace(obs.ScopeCore, obs.EvReadStart, threadID, round, int64(local), "")

	// Line 10: matching messages were moved from the common input buffer
	// when the handler was created; line 11: check the input buffer.
	if msg, ok := h.buffer[round]; ok {
		delete(h.buffer, round)
		s.stats.FromBuffer++
		s.obs.Trace(obs.ScopeCore, obs.EvFromBuffer, threadID, round, int64(msg.proposed), "")
		s.finishRound(h, round, physical, msg, true, complete)
		return
	}
	h.waiting = &pendingRead{round: round, physical: physical, op: op, complete: complete}
	s.queueProposal(threadID, round, local, op)
}

// proposal is the value this replica proposes for a round of any kind: its
// local clock value physical + offset (my_local_clock_val), steered toward the
// external reference under CompExternal (§3.3), plus a federated round's
// forward nudge, and never at or below a causally observed foreign group clock
// (§5).
func (s *TimeService) proposal(physical, nudge time.Duration) time.Duration {
	local := physical + s.offset
	if s.cfg.Compensation == CompExternal {
		local += time.Duration(float64(s.cfg.External.Read()-local) * s.cfg.ExternalGain)
	}
	local += nudge
	if floor := s.causalFloor + time.Microsecond; local < floor {
		local = floor
	}
	return local
}

// competes reports whether this replica sends CCS proposals: all replicas
// under active replication; only the primary under passive and semi-active.
func (s *TimeService) competes() bool {
	if s.mgr.Style() == replication.Active {
		return true
	}
	return s.mgr.IsPrimary()
}

// onCCS handles a delivered CCS or CCS-batch message (Figure 3).
func (s *TimeService) onCCS(msg wire.Message, meta gcs.Meta) {
	if msg.Type == wire.TypeCCSBatch {
		s.onCCSBatch(msg, meta)
		return
	}
	if msg.Type == wire.TypeCCSFed {
		p, err := wire.UnmarshalCCSFed(msg.Payload)
		if err == nil {
			s.deliverLatest(&s.fed.handler, msg.Seq,
				roundMsg{proposed: p.Proposed, op: wire.OpGettimeofday, sender: meta.Sender}, p.Slack)
		}
		return
	}
	p, err := wire.UnmarshalCCS(msg.Payload)
	if err != nil {
		return
	}
	rm := roundMsg{proposed: p.Proposed, op: p.Op, special: p.Special, sender: meta.Sender}
	if p.Special {
		s.deliverToHandler(&s.special, msg.Seq, rm)
		return
	}
	s.deliverProposal(p.ThreadID, msg.Seq, rm)
}

// deliverProposal routes one delivered (thread, round) proposal — a plain
// CCS message or one batch entry — to its handler.
func (s *TimeService) deliverProposal(threadID, round uint64, rm roundMsg) {
	if threadID == RefreshThreadID {
		s.deliverLatest(&s.lease.refresh, round, rm, 0)
		return
	}
	h, ok := s.handlers[threadID]
	if !ok {
		// Lines 3–4 of Figure 3: no matching handler — the thread has not
		// been created yet; queue in the common input buffer (unless a
		// restored checkpoint already covers this round).
		s.releaseProposal(threadID, round)
		if round <= s.pendingRnd[threadID] {
			return
		}
		for _, e := range s.common {
			if e.threadID == threadID && e.round == round {
				return // duplicate
			}
		}
		rm.proposed = s.guardMonotone(rm.proposed)
		s.traceFirstOrdered(threadID, round, rm)
		s.common = append(s.common, commonEntry{threadID: threadID, round: round, msg: rm})
		s.observeGroupValue(threadID, round, rm)
		return
	}
	s.deliverToHandler(h, round, rm)
}

// traceFirstOrdered emits the round-decision event: the first CCS message
// delivered for a round fixes the group clock value. Attr carries the
// winning sender, plus the sender's batch id when the proposal arrived
// inside a CCS-batch message.
func (s *TimeService) traceFirstOrdered(threadID, round uint64, rm roundMsg) {
	if !s.obs.Tracing() {
		return
	}
	attr := fmt.Sprintf("n%d", rm.sender)
	if rm.batch != 0 {
		attr = fmt.Sprintf("n%d b%d", rm.sender, rm.batch)
	}
	s.obs.Trace(obs.ScopeCore, obs.EvFirstOrdered, threadID, round,
		int64(rm.proposed), attr)
}

// deliverToHandler implements recv_CCS_msg (lines 5–11 of Figure 3) plus the
// wake-up path of get_grp_clock_time. The first message delivered for a
// round decides the group clock; the monotone guard runs here, in delivery
// (total) order, exactly once per round.
func (s *TimeService) deliverToHandler(h *ccsHandler, round uint64, rm roundMsg) {
	if w := h.waiting; w != nil && w.round == round {
		h.waiting = nil
		// The round is decided; withdraw our own proposal for it if it has
		// not reached the wire yet (batch.go).
		s.releaseProposal(h.threadID, round)
		rm.proposed = s.guardMonotone(rm.proposed)
		s.traceFirstOrdered(h.threadID, round, rm)
		s.finishRound(h, round, w.physical, rm, true, w.complete)
		return
	}
	if round <= h.round {
		return // duplicate: this round is already decided (line 10)
	}
	if _, dup := h.buffer[round]; dup {
		return // duplicate of a buffered future round
	}
	s.releaseProposal(h.threadID, round)
	rm.proposed = s.guardMonotone(rm.proposed)
	s.traceFirstOrdered(h.threadID, round, rm)
	h.buffer[round] = rm
	// Every replica accepts the first delivered value for a round as the
	// group clock and re-derives its offset, even when no local thread is
	// blocked on the round (the paper's Figure 4 walk-through).
	s.observeGroupValue(h.threadID, round, rm)
	if h.threadID == specialThreadID {
		s.consumeSpecial()
	}
}

// startLatest opens the next round on a latest-wins handler — lease refresh
// or federated — unless this replica is not live or its previous round is
// still in flight, and returns the round and its proposal.
func (s *TimeService) startLatest(h *ccsHandler, nudge time.Duration) (round uint64, proposed time.Duration, ok bool) {
	if !s.mgr.Live() || h.waiting != nil {
		return 0, 0, false
	}
	physical := s.clock.Read()
	h.round++
	h.waiting = &pendingRead{round: h.round, physical: physical,
		op: wire.OpGettimeofday, complete: func(any) {}}
	return h.round, s.proposal(physical, nudge), true
}

// deliverLatest applies a delivered round on a latest-wins handler. Unlike
// deliverToHandler it never buffers: the first delivered proposal for a round
// decides, and a newer round advances the counter and adopts directly,
// superseding our own in-flight round. Replicas that start such rounds at
// different cadences therefore neither grow an input buffer nor replay a stale
// value later. A federated round re-anchors the federation slack it carries,
// in delivery order and before the adoption publishes the lease, so every
// member's published margin reflects the same total-order point.
func (s *TimeService) deliverLatest(h *ccsHandler, round uint64, rm roundMsg, slack time.Duration) {
	w := h.waiting
	initiated := w != nil && w.round == round
	if !initiated && round <= h.round {
		return // duplicate: already decided
	}
	h.round = round
	if w != nil {
		// Our round is decided, or overtaken by this one: withdraw our
		// proposal if it has not reached the wire yet.
		h.waiting = nil
		s.releaseProposal(h.threadID, w.round)
	}
	if h.threadID == FedThreadID {
		s.anchorFedSlack(slack)
		rm.proposed = s.guardMonotoneFed(rm.proposed)
	} else {
		rm.proposed = s.guardMonotone(rm.proposed)
	}
	s.traceFirstOrdered(h.threadID, round, rm)
	if initiated {
		s.finishRound(h, round, w.physical, rm, true, w.complete)
	} else {
		s.observeGroupValue(h.threadID, round, rm)
	}
}

// guardMonotone validates a round's decided value against the group clock
// sequence. It is called at delivery time, where rounds appear in total
// order at every replica, so the clamp is applied identically everywhere.
// The clamp is part of the algorithm, not a guard against broken clocks:
// CompExternal steers proposals toward the external reference, which can
// be behind the group clock, and a steered winner below the last value is
// clamped (9 of E9's 1 200 initiated CompExternal rounds at seed 8; none
// under CompNone or CompMeanDelay).
func (s *TimeService) guardMonotone(grp time.Duration) time.Duration {
	if grp < s.lastGroup {
		// A round proposed before the last federated nudge and delivered
		// after it decides a pre-nudge value: at or above the clamp floor
		// (the clock just before that adoption). The group moved forward
		// under it — a coalesce, not a broken clock.
		if s.fed.enabled && s.fed.adoptions > 0 && grp >= s.fed.clampFloor {
			s.stats.FedCoalesced++
		} else {
			s.stats.MonotonicityFixes++
		}
		return s.lastGroup
	}
	s.lastGroup = grp
	s.fireTimers()
	return grp
}

// finishRound implements lines 7–8 and 15–17 of Figure 2 at the replica
// whose thread performed the operation.
func (s *TimeService) finishRound(h *ccsHandler, round uint64,
	physical time.Duration, rm roundMsg, initiated bool, complete func(any)) {
	if round > h.round {
		h.round = round
	}
	if initiated {
		// physical is this replica's clock at proposal send; now is the
		// ordered delivery. The difference bounds how far this adoption's
		// anchor can sit from any other replica's for the same round.
		s.noteOrderingLag(s.clock.Read() - physical)
	}
	grp := s.adoptGroupValue(rm, physical)
	s.obs.Trace(obs.ScopeCore, obs.EvAdopted, h.threadID, round, int64(grp), "")
	if s.cfg.OnRound != nil {
		s.cfg.OnRound(RoundReport{
			ThreadID: h.threadID, Round: round, Op: rm.op, Special: rm.special,
			GroupClock: grp, Physical: physical, Offset: s.offset,
			Initiated: initiated, Winner: rm.sender,
		})
	}
	s.obs.Trace(obs.ScopeCore, obs.EvReadDone, h.threadID, round, int64(grp), "")
	complete(grp)
}

// adoptGroupValue applies the round's decided value (already validated by
// guardMonotone at delivery): the offset becomes group − physical,
// optionally biased by the mean-delay compensation (§3.3).
func (s *TimeService) adoptGroupValue(rm roundMsg, physical time.Duration) time.Duration {
	grp := rm.proposed
	s.offset = grp - physical // line 7
	if s.cfg.Compensation == CompMeanDelay {
		s.offset += s.cfg.MeanDelay
	}
	s.publishLease(grp, physical)
	return grp
}

// observeGroupValue updates this replica's offset from a round it did not
// initiate, reading the physical clock at delivery time (as replica R3 does
// in the paper's Figure 4 example).
func (s *TimeService) observeGroupValue(threadID, round uint64, rm roundMsg) {
	s.stats.RoundsObserved++
	grp := s.adoptGroupValue(rm, s.clock.Read())
	s.obs.Trace(obs.ScopeCore, obs.EvAdopted, threadID, round, int64(grp), "")
}

// handler returns (creating if needed) the CCS handler for a thread,
// draining any matching messages from the common input buffer (line 10 of
// Figure 2).
func (s *TimeService) handler(threadID uint64) *ccsHandler {
	if h, ok := s.handlers[threadID]; ok {
		return h
	}
	h := &ccsHandler{threadID: threadID, buffer: make(map[uint64]roundMsg)}
	if r, ok := s.pendingRnd[threadID]; ok {
		h.round = r
		delete(s.pendingRnd, threadID)
	}
	rest := s.common[:0]
	for _, e := range s.common {
		if e.threadID == threadID {
			if e.round > h.round {
				if _, dup := h.buffer[e.round]; !dup {
					h.buffer[e.round] = e.msg
				}
			}
			continue
		}
		rest = append(rest, e)
	}
	s.common = rest
	s.handlers[threadID] = h
	return h
}

// ObsSamples implements obs.Source under the canonical core.* names.
// Loop-only.
func (s *TimeService) ObsSamples() []obs.Sample {
	id := uint32(s.mgr.LocalNode())
	return append([]obs.Sample{
		{Node: id, Name: "core.rounds_initiated", Value: s.stats.RoundsInitiated},
		{Node: id, Name: "core.rounds_observed", Value: s.stats.RoundsObserved},
		{Node: id, Name: "core.ccs_sent", Value: s.stats.CCSSent},
		{Node: id, Name: "core.ccs_suppressed", Value: s.stats.CCSSuppressed},
		{Node: id, Name: "core.from_buffer", Value: s.stats.FromBuffer},
		{Node: id, Name: "core.rounds_coalesced", Value: s.stats.RoundsCoalesced},
		{Node: id, Name: "core.batches_sent", Value: s.stats.BatchesSent},
		{Node: id, Name: "core.batch_entries", Value: s.stats.BatchEntries},
		{Node: id, Name: "core.special_rounds", Value: s.stats.SpecialRounds},
		{Node: id, Name: "core.monotonicity_fixes", Value: s.stats.MonotonicityFixes},
		{Node: id, Name: "core.timers_fired", Value: s.stats.TimersFired},
	}, append(s.leaseObsSamples(id), s.fedObsSamples(id)...)...)
}

// Clock is the interposition facade standing in for the clock-related
// system calls of §4.1: each method carries its own operation type
// identifier in the CCS message and truncates to that call's granularity.
type Clock struct {
	svc *TimeService
	ctx *replication.Ctx
}

// Gettimeofday returns the group clock at µs granularity.
func (c *Clock) Gettimeofday() time.Duration { return c.svc.Gettimeofday(c.ctx) }

// Time returns the group clock at second granularity.
func (c *Clock) Time() time.Duration { return c.svc.Time(c.ctx) }

// Ftime returns the group clock at millisecond granularity.
func (c *Clock) Ftime() time.Duration { return c.svc.Ftime(c.ctx) }
