package core

import (
	"slices"
	"time"

	"cts/internal/obs"
	"cts/internal/wire"
)

// This file implements "Integration of New Clocks" (§3.2): adding a replica
// (equivalently, a clock) must not disturb the group clock's monotonicity.
// When the GET_STATE synchronization point is reached, the existing replicas
// take a special round of consistent clock synchronization immediately
// before the checkpoint. The special round's CCS message is ordered and
// delivered to all replicas including the recovering one, which does not
// compete: it adopts the delivered group clock value and derives its offset
// from its own physical clock at delivery time. The checkpoint additionally
// carries the time service's round counters so that the recovering replica
// replays subsequent clock operations against the buffered CCS stream.

// pendingCapture queues checkpoint captures when a special round is already
// in flight (two state transfers racing).
type pendingCapture struct {
	done func(extra []byte, groupClock int64)
}

// captureForCheckpoint is installed as the manager's checkpoint-capture
// hook: it runs the special CCS round and then hands the manager the time
// service's serialized state.
func (s *TimeService) captureForCheckpoint(done func(extra []byte, groupClock int64)) {
	if s.special.waiting != nil {
		s.pendingCaptures = append(s.pendingCaptures, pendingCapture{done: done})
		return
	}
	s.stats.SpecialRounds++
	round := s.special.round + 1
	physical := s.clock.Read()

	finish := func(v any) {
		grp, _ := v.(time.Duration)
		done(s.encodeState(), int64(grp))
		// Serve a queued capture, if any.
		if len(s.pendingCaptures) > 0 {
			next := s.pendingCaptures[0]
			s.pendingCaptures = s.pendingCaptures[1:]
			s.captureForCheckpoint(next.done)
		}
	}

	if msg, ok := s.special.buffer[round]; ok {
		// Another replica's special round for this transfer already
		// completed; adopt it.
		delete(s.special.buffer, round)
		s.stats.FromBuffer++
		s.finishRound(&s.special, round, physical, msg, true, finish)
		return
	}
	s.special.waiting = &pendingRead{round: round, physical: physical,
		op: wire.OpGettimeofday, complete: finish}
	// Special rounds are never batched: they synchronize with a GET_STATE
	// checkpoint and must stand alone in the total order.
	if s.competes() {
		local := s.proposal(physical, 0)
		s.sendCCS(wire.TypeCCS, specialThreadID, round, local, "special", wire.MarshalCCS(wire.CCSPayload{
			ThreadID: specialThreadID, Proposed: local, Op: wire.OpGettimeofday, Special: true}))
	}
}

// consumeSpecial advances the special round counter past rounds this
// replica merely observed, so that the next locally initiated special round
// uses a fresh number.
func (s *TimeService) consumeSpecial() {
	for {
		if _, ok := s.special.buffer[s.special.round+1]; !ok {
			return
		}
		s.special.round++
		delete(s.special.buffer, s.special.round)
	}
}

// restoreFromCheckpoint is installed as the manager's checkpoint-restore
// hook. It aligns the round counters with the checkpoint (so a recovering
// replica's replayed clock operations match the CCS messages it buffers)
// and prunes buffers the counters have passed. The donor's offset is
// deliberately not restored: the offset relates the group clock to the
// local physical clock, so the recovering replica re-derives its own from
// the special round's group value anchored at its own clock (end of this
// function), and from every delivered CCS message thereafter.
func (s *TimeService) restoreFromCheckpoint(extra []byte) {
	st, err := decodeState(extra)
	if err != nil {
		return
	}
	if st.specialRound > s.special.round {
		s.special.round = st.specialRound
	}
	for r := range s.special.buffer {
		if r <= s.special.round {
			delete(s.special.buffer, r)
		}
	}
	// The federated round counter is restored like the refresh counter: a
	// joiner that starts at zero would treat an old federated round as new
	// and re-adopt its stale value (clamped by the monotone guard, but
	// counted as a defensive fix a healthy run must not need).
	if st.fedRound > s.fed.handler.round {
		s.fed.handler.round = st.fedRound
	}
	// The donor's federation slack is adopted too, anchored conservatively
	// at the start of recovery (at or before the donor captured it), so the
	// joiner's published bound stays honest about inter-group skew from its
	// very first lease instead of waiting one exchange interval blind.
	// It is applied at once if federation is on, else by EnableFederation.
	if st.fedSlack > 0 {
		anchor := s.clock.Read()
		if s.joinLagDue && s.recoveryStart < anchor {
			anchor = s.recoveryStart
		}
		s.fed.restored, s.fed.restoredAnchor, s.fed.haveRestored = st.fedSlack, anchor, true
		if s.fed.enabled {
			s.applyRestoredFedSlack()
		}
	}
	for tid, round := range st.threadRounds {
		if tid == RefreshThreadID {
			if round > s.lease.refresh.round {
				s.lease.refresh.round = round
			}
			continue
		}
		if h, ok := s.handlers[tid]; ok {
			if round > h.round {
				h.round = round
			}
			for r := range h.buffer {
				if r <= h.round {
					delete(h.buffer, r)
				}
			}
			continue
		}
		if round > s.pendingRnd[tid] {
			s.pendingRnd[tid] = round
		}
	}
	// Prune the common input buffer of rounds covered by the checkpoint.
	rest := s.common[:0]
	for _, e := range s.common {
		if e.round <= s.pendingRnd[e.threadID] {
			continue
		}
		rest = append(rest, e)
	}
	s.common = rest
	// §3.2 adoption: the checkpoint carries the group clock decided by the
	// special round immediately preceding it, and the counters restored
	// above mark that round as covered — its CCS message will be dropped
	// as a duplicate if it arrives after this restore. Adopt the value
	// here, deriving the offset from our own physical clock now, unless a
	// newer round already reached us through the ordinary delivery path.
	if st.groupClock > s.lastGroup {
		s.lastGroup = st.groupClock
		grp := s.adoptGroupValue(roundMsg{proposed: st.groupClock, op: wire.OpGettimeofday}, s.clock.Read())
		s.obs.Trace(obs.ScopeCore, obs.EvAdopted, specialThreadID, st.specialRound, int64(grp), "restore")
	}
	// A joiner's adopted group value was decided some time after its
	// recovery began, so the elapsed recovery time upper-bounds how stale
	// the adoption anchor is. Seed the lease lag estimate with it: the
	// joiner's early proposals can run behind the group by up to this much,
	// and its serving bound must say so until measured ordering lags decay
	// the estimate to the steady-state value.
	if s.joinLagDue {
		s.joinLagDue = false
		s.noteOrderingLag(s.clock.Read() - s.recoveryStart)
	}
}

// ccsState is the time service's contribution to a checkpoint. fedRound and
// fedSlack carry the federation handler's counter and the projected
// federation slack at capture time (federation.go); both are zero when
// federation is off.
type ccsState struct {
	specialRound uint64
	groupClock   time.Duration
	fedRound     uint64
	fedSlack     time.Duration
	threadRounds map[uint64]uint64
}

func (s *TimeService) encodeState() []byte {
	st := ccsState{specialRound: s.special.round, groupClock: s.lastGroup,
		fedRound: s.fed.handler.round, threadRounds: make(map[uint64]uint64)}
	if s.fed.enabled {
		st.fedSlack = s.fedSlackAt(s.clock.Read())
	}
	for tid, h := range s.handlers {
		st.threadRounds[tid] = h.round
	}
	for tid, r := range s.pendingRnd {
		st.threadRounds[tid] = max(st.threadRounds[tid], r)
	}
	// The lease refresh round rides the thread-round table under its
	// reserved identifier, so a recovering replica skips refresh rounds
	// the checkpoint already covers.
	if r := s.lease.refresh.round; r > 0 {
		st.threadRounds[RefreshThreadID] = max(st.threadRounds[RefreshThreadID], r)
	}
	return st.encode()
}

// encode writes the fixed fields, then the thread-round table sorted by
// thread id.
func (st ccsState) encode() []byte {
	tids := make([]uint64, 0, len(st.threadRounds))
	for tid := range st.threadRounds {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	w := wire.NewWriter(8 + 8 + 8 + 8 + 4 + 16*len(tids))
	w.U64(st.specialRound)
	w.U64(uint64(st.groupClock))
	w.U64(st.fedRound)
	w.U64(uint64(st.fedSlack))
	w.U32(uint32(len(tids)))
	for _, tid := range tids {
		w.U64(tid)
		w.U64(st.threadRounds[tid])
	}
	return w.Encoded()
}

func decodeState(b []byte) (ccsState, error) {
	r := wire.NewReader(b)
	st := ccsState{specialRound: r.U64(), groupClock: time.Duration(r.U64()),
		fedRound: r.U64(), fedSlack: time.Duration(r.U64())}
	n := r.Count(16)
	st.threadRounds = make(map[uint64]uint64, n)
	for i := 0; i < n; i++ {
		tid := r.U64()
		st.threadRounds[tid] = r.U64()
	}
	return st, r.Done()
}
