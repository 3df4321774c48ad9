package core

// This file implements the group-side half of inter-group federation
// (internal/federation holds the exchange plane): federated offset adoption
// as a special CCS round. A federation agent observing that a neighbor group
// is confidently ahead proposes `local + nudge` under the reserved
// federation thread identifier; the first totally-ordered proposal decides,
// every member adopts the nudged value and re-derives its offset, so the
// whole group moves together and §3 determinism is preserved. The round also
// carries a slack term — the inter-group precision bound — that every member
// folds into its published lease margin, mirroring how the lease plane's
// ordering-latency term keeps single-group bounds honest.
//
// Between federated rounds the slack ages at a configured rate: neighbor
// groups keep advancing (by drift, and by up to one bounded nudge per
// exchange interval), so a group that stops hearing adoptions — an
// inter-group partition — publishes bounds that keep growing until the link
// heals and a fresh round re-anchors the slack. Honesty never depends on the
// exchange plane being alive.

import (
	"errors"
	"fmt"
	"time"

	"cts/internal/obs"
	"cts/internal/wire"
)

// FedThreadID is the reserved logical-thread identifier for federated
// offset-adoption rounds. Like lease refresh rounds they use a dedicated
// non-buffering handler: an observed future round advances the counter and
// adopts immediately.
const FedThreadID = ^uint64(0) - 1

// FedConfig configures the federation half of a TimeService.
type FedConfig struct {
	// InitialSlack pads the published staleness bound until the first
	// federated round refines it: before any summary exchange the group
	// knows nothing about its neighbors, so this must cover the worst
	// plausible initial inter-group offset. Required (positive).
	InitialSlack time.Duration
	// AgingPPM is the rate (parts per million of elapsed physical time) at
	// which the federation slack grows between federated rounds. It must
	// cover how fast neighbor groups can pull ahead unseen: their bounded
	// nudge rate (MaxStep per exchange interval) plus mutual drift.
	// Required (positive).
	AgingPPM float64
}

// Validate checks cfg.
func (c FedConfig) Validate() (FedConfig, error) {
	if c.InitialSlack <= 0 {
		return c, errors.New("core: FedConfig.InitialSlack must be positive")
	}
	if c.AgingPPM <= 0 {
		return c, fmt.Errorf("core: FedConfig.AgingPPM must be positive (got %v)", c.AgingPPM)
	}
	return c, nil
}

// fedState is the TimeService's federation state. Loop-only.
type fedState struct {
	enabled  bool
	agingPPM float64
	handler  ccsHandler // dedicated non-buffering handler for federated rounds
	slack    time.Duration
	anchor   time.Duration // physical clock at the last slack re-anchor
	// anchored distinguishes a slack grounded in real information (a
	// delivered federated round, or a donor's checkpoint) from the blind
	// InitialSlack pad. Informed values replace a blind pad outright;
	// between two informed values the wider projection wins.
	anchored bool
	// clampFloor is the group clock just before the last federated nudge was
	// adopted. A non-federated round in flight across that adoption decides a
	// value computed before the nudge — at or above this floor — and its
	// monotone clamp is a benign coalesce, not a clock anomaly. Updated in
	// total order, so every replica attributes clamps identically.
	clampFloor time.Duration
	// restored carries checkpoint-restored slack observed before
	// EnableFederation has run (state transfer racing enablement).
	restored       time.Duration
	restoredAnchor time.Duration
	haveRestored   bool
	adoptions      uint64
	proposals      uint64
}

// EnableFederation turns on federated offset adoption. Safe to call from any
// goroutine; takes effect on the loop. Until the first federated round is
// delivered, published bounds carry InitialSlack (or a restored checkpoint's
// slack, whichever is larger), aging at AgingPPM.
func (s *TimeService) EnableFederation(cfg FedConfig) error {
	cfg, err := cfg.Validate()
	if err != nil {
		return err
	}
	s.mgr.Runtime().Post(func() {
		s.fed.agingPPM = cfg.AgingPPM
		if !s.fed.enabled {
			s.fed.enabled = true
			s.fed.slack = cfg.InitialSlack
			s.fed.anchor = s.clock.Read()
			s.fed.anchored = false
			if s.fed.haveRestored {
				s.applyRestoredFedSlack()
			}
		}
	})
	return nil
}

// applyRestoredFedSlack folds a checkpoint-restored slack into the live
// state. A donor's checkpoint is real information about the group's
// inter-group envelope, so it replaces a blind InitialSlack pad outright;
// against an already-informed anchor the restore is conservative — keep
// whichever projects larger now, never narrowing a bound on the word of
// older information.
func (s *TimeService) applyRestoredFedSlack() {
	s.fed.haveRestored = false
	now := s.clock.Read()
	cur := s.fedSlackAt(now)
	aged := s.fed.restored + s.fedAgingOver(now-s.fed.restoredAnchor)
	if !s.fed.anchored || aged > cur {
		s.fed.slack = s.fed.restored
		s.fed.anchor = s.fed.restoredAnchor
		s.fed.anchored = true
	}
}

// fedAgingOver returns the slack growth over an elapsed physical duration.
func (s *TimeService) fedAgingOver(elapsed time.Duration) time.Duration {
	if elapsed <= 0 {
		return 0
	}
	return time.Duration(float64(elapsed) * s.fed.agingPPM / 1e6)
}

// fedSlackAt reports the federation slack as of the given physical reading:
// the last anchored value plus aging. Zero when federation is off. Loop-only.
func (s *TimeService) fedSlackAt(physical time.Duration) time.Duration {
	if !s.fed.enabled {
		return 0
	}
	return s.fed.slack + s.fedAgingOver(physical-s.fed.anchor)
}

// FederationSlack reports the current federation slack term of the published
// staleness bound. Loop-only.
func (s *TimeService) FederationSlack() time.Duration {
	return s.fedSlackAt(s.clock.Read())
}

// ProposeFederated starts a federated offset-adoption round carrying the
// given forward nudge and slack term, unless one is already in flight.
// Loop-only (federation agents run on the replica's loop). The nudge must
// come from a bounded-influence merge rule — this method clamps nothing
// beyond the monotone guard every CCS value passes at delivery.
//
// Like refresh rounds, the header carries the round identity, so identical
// competing rounds from several members collapse in the substrate's duplicate
// suppression. Federated rounds never batch: their payload carries the slack
// term, which must ride the same total-order slot as the value it accounts
// for.
func (s *TimeService) ProposeFederated(nudge, slack time.Duration) {
	if !s.fed.enabled {
		return
	}
	round, proposed, ok := s.startLatest(&s.fed.handler, max(nudge, 0))
	if !ok {
		return
	}
	s.fed.proposals++
	if s.competes() {
		s.sendCCS(wire.TypeCCSFed, FedThreadID, round, proposed, "fed",
			wire.MarshalCCSFed(wire.CCSFedPayload{Proposed: proposed, Slack: max(slack, 0)}))
	}
}

// guardMonotoneFed validates a federated round's decided value. A federated
// proposal is a snapshot — the duty member's group clock plus nudge as of
// its evaluation — so deciding below the current group clock only means the
// group advanced past the nudge while the proposal was in flight. The clamp
// is a coalesce (the nudge's work was already done), never a clock anomaly.
// It also records the pre-adoption clock as the clamp floor for concurrent
// non-federated rounds (see guardMonotone).
func (s *TimeService) guardMonotoneFed(grp time.Duration) time.Duration {
	if grp < s.lastGroup {
		s.stats.FedCoalesced++
		return s.lastGroup
	}
	s.fed.clampFloor = s.lastGroup
	return s.guardMonotone(grp)
}

// anchorFedSlack installs a delivered round's slack term as the new aging
// anchor.
func (s *TimeService) anchorFedSlack(slack time.Duration) {
	if !s.fed.enabled {
		return
	}
	s.fed.adoptions++
	s.fed.slack = slack
	s.fed.anchor = s.clock.Read()
	s.fed.anchored = true
}

// fedObsSamples contributes the federation counters to ObsSamples.
func (s *TimeService) fedObsSamples(id uint32) []obs.Sample {
	if !s.fed.enabled {
		return nil
	}
	return []obs.Sample{
		{Node: id, Name: "core.fed_proposals", Value: s.fed.proposals},
		{Node: id, Name: "core.fed_adoptions", Value: s.fed.adoptions},
		{Node: id, Name: "core.fed_coalesced", Value: s.stats.FedCoalesced},
	}
}
