// Package baseline implements the comparison approaches the paper argues
// against (§1):
//
//   - PrimaryBackup: the clock-determinism scheme of Mullender (ed.) and of
//     hypervisor-based fault tolerance (Bressoud & Schneider): the primary
//     returns its raw physical hardware clock value and conveys it to the
//     backups, which use the conveyed value instead of their own clocks.
//     Individual readings are consistent, but no offset is maintained, so
//     when the primary fails the new primary answers from its own physical
//     clock — the reading can roll back in time or jump far forward,
//     exactly the failure modes the consistent time service eliminates.
//
//   - LocalClock: no coordination at all; each replica reads its own
//     physical clock. Replicas processing the same request at different
//     real times (or with different clocks) return different values —
//     the replica non-determinism of Figure 1.
package baseline

import (
	"errors"
	"sort"
	"time"

	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/replication"
	"cts/internal/transport"
	"cts/internal/wire"
)

// Report describes one completed baseline clock read at this replica.
type Report struct {
	ThreadID uint64
	Round    uint64
	Value    time.Duration
	Sender   transport.NodeID
	FromOwn  bool // this replica answered from its own physical clock
}

// PrimaryBackup is the primary/backup clock determinism baseline.
type PrimaryBackup struct {
	mgr   *replication.Manager
	clock hwclock.Clock

	handlers map[uint64]*pbHandler
	onRead   func(Report)

	// Sent counts clock messages this replica put on the wire.
	Sent uint64
	// FromBuffer counts reads satisfied by a conveyed value.
	FromBuffer uint64
}

type pbHandler struct {
	round   uint64
	buffer  map[uint64]pbMsg
	waiting *pbWaiter
}

type pbMsg struct {
	value  time.Duration
	sender transport.NodeID
}

type pbWaiter struct {
	round    uint64
	complete func(any)
}

// NewPrimaryBackup creates the baseline service and installs its CCS-message
// hook on the manager (it reuses the CCS message type as its conveyance
// channel; a deployment would never run both services on one group).
func NewPrimaryBackup(mgr *replication.Manager, clock hwclock.Clock,
	onRead func(Report)) (*PrimaryBackup, error) {
	if mgr == nil || clock == nil {
		return nil, errors.New("baseline: manager and clock are required")
	}
	s := &PrimaryBackup{
		mgr:      mgr,
		clock:    clock,
		handlers: make(map[uint64]*pbHandler),
		onRead:   onRead,
	}
	mgr.Runtime().Post(func() {
		mgr.SetCCSHandler(s.onMsg)
		mgr.SetCheckpointHooks(s.capture, s.restore)
	})
	return s, nil
}

// capture contributes the per-thread round counters to a checkpoint so that
// a backup's replay after failover lines its reads up with the conveyed
// values it buffered. (The baseline conveys values like [9] and [3]; what
// it lacks is the offset — fresh reads after failover come from the new
// primary's raw clock.)
func (s *PrimaryBackup) capture(done func(extra []byte, groupClock int64)) {
	tids := make([]uint64, 0, len(s.handlers))
	for tid := range s.handlers {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	w := wire.NewWriter(4 + 16*len(tids))
	w.U32(uint32(len(tids)))
	for _, tid := range tids {
		w.U64(tid)
		w.U64(s.handlers[tid].round)
	}
	done(w.Encoded(), 0)
}

// restore aligns round counters with an applied checkpoint and prunes
// conveyed values the counters have passed.
func (s *PrimaryBackup) restore(extra []byte) {
	r := wire.NewReader(extra)
	n := int(r.U32())
	entries := wire.NewReader(r.Raw(16 * n))
	if r.Done() != nil {
		return
	}
	for ; n > 0; n-- {
		tid, round := entries.U64(), entries.U64()
		h := s.handlers[tid]
		if h == nil {
			h = &pbHandler{buffer: make(map[uint64]pbMsg)}
			s.handlers[tid] = h
		}
		if round > h.round {
			h.round = round
		}
		for r := range h.buffer {
			if r <= h.round {
				delete(h.buffer, r)
			}
		}
	}
}

// Gettimeofday returns the primary's physical clock value for this round.
// At the primary it reads the local clock and conveys the value; at backups
// (semi-active execution) it blocks until the conveyed value arrives. After
// a failover the new primary answers from its own clock — with no offset to
// bridge the two clocks, roll-back and fast-forward are possible.
func (s *PrimaryBackup) Gettimeofday(ctx *replication.Ctx) time.Duration {
	v := ctx.Call(func(complete func(any)) {
		s.begin(ctx.ThreadID(), complete)
	})
	d, _ := v.(time.Duration)
	return d
}

func (s *PrimaryBackup) begin(threadID uint64, complete func(any)) {
	h := s.handlers[threadID]
	if h == nil {
		h = &pbHandler{buffer: make(map[uint64]pbMsg)}
		s.handlers[threadID] = h
	}
	h.round++
	if m, ok := h.buffer[h.round]; ok {
		delete(h.buffer, h.round)
		s.FromBuffer++
		s.finish(h.round, threadID, m, false, complete)
		return
	}
	if s.mgr.IsPrimary() {
		// The primary answers from its own physical hardware clock and
		// conveys the value to the backups.
		value := s.clock.Read()
		gid := s.mgr.Group()
		payload := wire.MarshalCCS(wire.CCSPayload{
			ThreadID: threadID, Proposed: value, Op: wire.OpGettimeofday})
		_ = s.mgr.Stack().Multicast(wire.Message{
			Header: wire.Header{Type: wire.TypeCCS, SrcGroup: gid,
				DstGroup: gid, Conn: wire.ConnID(threadID), Seq: h.round},
			Payload: payload,
		})
		s.Sent++
		s.finish(h.round, threadID, pbMsg{value: value, sender: s.mgr.LocalNode()}, true, complete)
		return
	}
	h.waiting = &pbWaiter{round: h.round, complete: complete}
}

func (s *PrimaryBackup) finish(round, threadID uint64, m pbMsg, own bool, complete func(any)) {
	if s.onRead != nil {
		s.onRead(Report{ThreadID: threadID, Round: round, Value: m.value,
			Sender: m.sender, FromOwn: own})
	}
	complete(m.value)
}

func (s *PrimaryBackup) onMsg(msg wire.Message, meta gcs.Meta) {
	p, err := wire.UnmarshalCCS(msg.Payload)
	if err != nil {
		return
	}
	h := s.handlers[p.ThreadID]
	if h == nil {
		h = &pbHandler{buffer: make(map[uint64]pbMsg)}
		s.handlers[p.ThreadID] = h
	}
	round := msg.Seq
	m := pbMsg{value: p.Proposed, sender: meta.Sender}
	if w := h.waiting; w != nil && w.round == round {
		h.waiting = nil
		if round > h.round {
			h.round = round
		}
		s.finish(round, p.ThreadID, m, false, w.complete)
		return
	}
	if round <= h.round {
		return // already answered this round (e.g. we were the primary)
	}
	if _, dup := h.buffer[round]; !dup {
		h.buffer[round] = m
	}
}

// LocalClock answers every clock read from the replica's own physical
// hardware clock, with no coordination: the "without consistent time
// service" configuration of the paper's Figure 5 measurement, and the
// source of the inconsistency of Figure 1.
type LocalClock struct {
	clock hwclock.Clock
}

// NewLocalClock wraps a physical clock.
func NewLocalClock(clock hwclock.Clock) *LocalClock {
	return &LocalClock{clock: clock}
}

// Gettimeofday reads the local physical clock. It never blocks and sends no
// messages; replica consistency is NOT guaranteed.
func (l *LocalClock) Gettimeofday(_ *replication.Ctx) time.Duration {
	return l.clock.Read()
}
