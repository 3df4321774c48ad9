package core

// This file implements batched CCS proposals with round coalescing. When a
// clock read starts while an earlier proposal is still unordered, the new
// round's proposal is not multicast on its own: pending proposals accumulate
// for the rest of the current loop instant and are flushed as one versioned
// CCS-batch message (wire.TypeCCSBatch) carrying every still-undecided
// (thread, round, proposal) entry. The first-ordered batch decides all the
// rounds it lists, applied in listed order, so the §3 first-wins rule and the
// per-thread group-clock sequences stay identical across replicas: total
// order plus a sender-fixed entry order yields one deterministic decision
// sequence, and entries for rounds an earlier message already decided fall
// into the ordinary duplicate paths. A batch is named by the rounds it lists,
// so replicas batching the same rounds send one message between them. Reads
// whose round is decided while their entry waits in the pending batch are
// dropped at flush and complete without any multicast.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"cts/internal/gcs"
	"cts/internal/obs"
	"cts/internal/wire"
)

// threadRound identifies one CCS round for in-flight proposal tracking.
type threadRound struct {
	thread uint64
	round  uint64
}

// inflightProposal tracks one multicast (plain CCS or batch) carrying rounds
// that are not all decided yet. Once every covered round has been decided,
// the multicast is withdrawn if it has not reached the wire.
type inflightProposal struct {
	remaining int
	cancel    func() bool
}

// queueProposal routes one round's proposal toward the wire: directly as a
// plain CCS message when nothing else is pending — the uncontended fast
// path, whose identical headers across replicas feed the ordering
// substrate's duplicate suppression — otherwise into the pending batch
// flushed at the end of the current loop instant.
func (s *TimeService) queueProposal(threadID, round uint64, proposed time.Duration, op wire.ClockOp) {
	if !s.competes() {
		return
	}
	if len(s.inflight) == 0 && len(s.pendingBatch) == 0 {
		s.sendSingleCCS(threadID, round, proposed, op)
		return
	}
	s.obs.Trace(obs.ScopeCore, obs.EvProposalQueued, threadID, round, int64(proposed), "batch")
	s.pendingBatch = append(s.pendingBatch, wire.CCSBatchEntry{
		ThreadID: threadID, Round: round, Proposed: proposed, Op: op,
	})
	if !s.flushQueued {
		s.flushQueued = true
		s.mgr.Runtime().Post(s.flushBatch)
	}
}

// flushBatch multicasts the accumulated pending proposals as one CCS-batch
// message. It runs as a posted loop event, after every event already queued
// at the same instant, so reads that start together coalesce into one batch.
func (s *TimeService) flushBatch() {
	s.flushQueued = false
	entries := s.pendingBatch
	s.pendingBatch = nil
	live := entries[:0]
	for _, e := range entries {
		if s.roundStillPending(e.ThreadID, e.Round) {
			live = append(live, e)
		}
	}
	coalesced := len(entries) - len(live) // decided while queued: no multicast at all
	if len(live) > 1 {
		coalesced += len(live) - 1 // rounds sharing one batch message
	}
	s.stats.RoundsCoalesced += uint64(coalesced)
	switch len(live) {
	case 0:
	case 1:
		e := live[0]
		s.sendSingleCCS(e.ThreadID, e.Round, e.Proposed, e.Op)
	default:
		s.sendBatchCCS(live)
	}
}

// roundStillPending reports whether a queued proposal's round is still
// undecided, i.e. its thread is still blocked on it.
func (s *TimeService) roundStillPending(threadID, round uint64) bool {
	var w *pendingRead
	if threadID == RefreshThreadID {
		w = s.lease.refresh.waiting
	} else if h, ok := s.handlers[threadID]; ok {
		w = h.waiting
	}
	return w != nil && w.round == round
}

// sendSingleCCS multicasts one plain CCS proposal (wire.TypeCCS). Its header
// carries the (thread, round) identity, so identical competing proposals from
// different replicas collapse in the substrate's duplicate suppression —
// batching must not replace this path for uncontended reads.
func (s *TimeService) sendSingleCCS(threadID, round uint64, proposed time.Duration, op wire.ClockOp) {
	s.sendCCS(wire.TypeCCS, threadID, round, proposed, "",
		wire.MarshalCCS(wire.CCSPayload{ThreadID: threadID, Proposed: proposed, Op: op}))
}

// sendCCS multicasts one round's proposal as a message of type typ whose
// header names the round (Conn is the truncated thread id, Seq the round),
// and tracks it in flight. attr tags its trace events.
func (s *TimeService) sendCCS(typ wire.MsgType, threadID, round uint64, proposed time.Duration,
	attr string, payload []byte) {
	s.obs.Trace(obs.ScopeCore, obs.EvProposalQueued, threadID, round, int64(proposed), attr)
	gid := s.mgr.Group()
	cancel, err := s.mgr.Stack().MulticastCancelable(wire.Message{
		Header: wire.Header{Type: typ, SrcGroup: gid, DstGroup: gid,
			Conn: wire.ConnID(threadID & 0xFFFFFFFF), Seq: round},
		Payload: payload,
	}, !s.cfg.AgreedCCS)
	if err != nil {
		return
	}
	s.stats.CCSSent++
	// The proposal is now in the totally-ordered send path; it reaches the
	// wire at the next token visit unless withdrawn.
	s.obs.Trace(obs.ScopeCore, obs.EvCCSSent, threadID, round, int64(proposed), attr)
	s.trackProposal([]threadRound{{threadID, round}}, func() bool {
		if cancel() {
			s.stats.CCSSent--
			s.stats.CCSSuppressed++
			s.obs.Trace(obs.ScopeCore, obs.EvCCSSuppressed, threadID, round, int64(proposed), attr)
			return true
		}
		return false
	})
}

// sendBatchCCS multicasts one CCS-batch message carrying the given entries.
// Its header names the batch by the rounds it lists (batchIdentity), so
// replicas that batch the same rounds send one logical message: the
// substrate withdraws every copy but the first, as it does for plain CCS
// (§4.3). Seq, the identity hash, also links the member rounds' trace
// events.
func (s *TimeService) sendBatchCCS(entries []wire.CCSBatchEntry) {
	payload, err := wire.MarshalCCSBatch(entries)
	if err != nil {
		return
	}
	conn, id := batchIdentity(entries)
	gid := s.mgr.Group()
	cancel, err := s.mgr.Stack().MulticastCancelable(wire.Message{
		Header:  wire.Header{Type: wire.TypeCCSBatch, SrcGroup: gid, DstGroup: gid, Conn: conn, Seq: id},
		Payload: payload,
	}, !s.cfg.AgreedCCS)
	if err != nil {
		return
	}
	n := uint64(len(entries))
	s.stats.CCSSent++
	s.stats.BatchesSent++
	s.stats.BatchEntries += n
	if s.obs.Tracing() {
		attr := fmt.Sprintf("b%x", id)
		for _, e := range entries {
			s.obs.Trace(obs.ScopeCore, obs.EvCCSSent, e.ThreadID, e.Round, int64(e.Proposed), attr)
		}
	}
	s.obs.Trace(obs.ScopeCore, obs.EvBatchSent, specialThreadID, id, int64(n), "")
	keys := make([]threadRound, len(entries))
	for i, e := range entries {
		keys[i] = threadRound{e.ThreadID, e.Round}
	}
	s.trackProposal(keys, func() bool {
		if cancel() {
			s.stats.CCSSent--
			s.stats.CCSSuppressed++
			s.stats.BatchesSent--
			s.stats.BatchEntries -= n
			s.obs.Trace(obs.ScopeCore, obs.EvCCSSuppressed, specialThreadID, id, int64(n), "batch")
			return true
		}
		return false
	})
}

// batchIdentity names a CCS-batch message by its content: Conn is the entry
// count and Seq an FNV-1a hash of the listed (thread, round) pairs in listed
// order, never 0. Proposed values, ops and the sender are left out, so
// every replica batching the same rounds in the same order derives the
// same header, hence the same gcs message identity. A copy withdrawn for
// that identity loses nothing: the identical list already sequenced
// decides each of its rounds, the §4.3 argument for plain CCS. The message
// type keeps it apart from every plain CCS identity.
func batchIdentity(entries []wire.CCSBatchEntry) (wire.ConnID, uint64) {
	f := fnv.New64a()
	var buf [16]byte
	for _, e := range entries {
		binary.BigEndian.PutUint64(buf[:8], e.ThreadID)
		binary.BigEndian.PutUint64(buf[8:], e.Round)
		f.Write(buf[:])
	}
	id := f.Sum64()
	if id == 0 {
		id = 1
	}
	return wire.ConnID(len(entries)), id
}

// trackProposal records an in-flight multicast covering the given rounds.
func (s *TimeService) trackProposal(keys []threadRound, cancel func() bool) {
	ip := &inflightProposal{remaining: len(keys), cancel: cancel}
	for _, k := range keys {
		s.inflight[k] = ip
	}
}

// releaseProposal marks one round decided for in-flight tracking. When every
// round a multicast covers has been decided, the multicast is withdrawn if
// it has not yet reached the wire (the cancel wrapper adjusts the stats).
func (s *TimeService) releaseProposal(threadID, round uint64) {
	k := threadRound{threadID, round}
	ip, ok := s.inflight[k]
	if !ok {
		return
	}
	delete(s.inflight, k)
	ip.remaining--
	if ip.remaining > 0 {
		return
	}
	if ip.cancel != nil {
		ip.cancel()
	}
}

// onCCSBatch applies a delivered CCS-batch message: each entry is one round's
// proposal, applied in listed order (see the file comment for why this
// preserves determinism).
func (s *TimeService) onCCSBatch(msg wire.Message, meta gcs.Meta) {
	entries, err := wire.UnmarshalCCSBatch(msg.Payload)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.ThreadID == specialThreadID {
			continue // special rounds (§3.2) are never batched
		}
		s.deliverProposal(e.ThreadID, e.Round, roundMsg{
			proposed: e.Proposed, op: e.Op, sender: meta.Sender, batch: msg.Seq,
		})
	}
}
