package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/wire"
)

// This file implements the lease plane that lets a replica answer external
// time queries between CCS rounds. Every CCS adoption publishes a lease
// snapshot: the decided group clock value paired with the physical clock
// reading that produced this replica's offset. Until the lease expires, any
// goroutine may read `physical_clock + offset` lock-free and hand the result
// to unreplicated clients together with a staleness bound that grows with
// the time elapsed since the adoption. Membership changes (which include
// synchronizer failover: a crashed synchronizer is excluded from the next
// view) invalidate outstanding leases by bumping the lease epoch, so clients
// holding cached leases from the old configuration are told to re-query.

// RefreshThreadID is the reserved logical-thread identifier for lease
// refresh rounds. Refresh rounds use a dedicated handler that never buffers:
// an observed refresh round advances the counter and republishes the lease
// immediately, so replicas that refresh at different cadences neither grow
// an input buffer nor replay stale group values.
const RefreshThreadID = ^uint64(0)

// defaultLeaseSlack pads the staleness bound for the uncompensated mode: the
// decided value is the synchronizer's clock at proposal time, adopted at
// delivery time, so the adoption already trails true group time by roughly
// the CCS ordering delay (§4.3). The compensation modes cancel this bias.
const defaultLeaseSlack = 75 * time.Microsecond

// LeaseConfig configures the lease plane of a TimeService.
type LeaseConfig struct {
	// Window is how long after a CCS adoption the lease may be served.
	// Required (positive).
	Window time.Duration
	// DriftPPM is the assumed worst-case rate error of the local physical
	// clock, used to widen the staleness bound as the lease ages. If the
	// clock reports its own drift (hwclock.SimClock), the larger of the two
	// is used. Default 100 ppm.
	DriftPPM float64
}

// Validate checks cfg and fills defaults.
func (c LeaseConfig) Validate() (LeaseConfig, error) {
	if c.Window <= 0 {
		return c, errors.New("core: LeaseConfig.Window must be positive")
	}
	if c.DriftPPM < 0 {
		return c, fmt.Errorf("core: LeaseConfig.DriftPPM must not be negative (got %v)", c.DriftPPM)
	}
	if c.DriftPPM == 0 {
		c.DriftPPM = 100
	}
	return c, nil
}

// LeaseReading is one leased group-clock read. The true group clock at the
// moment of the read is within [GroupClock-Bound, GroupClock+Bound], and
// GroupClock never regresses across the reads of one replica.
type LeaseReading struct {
	GroupClock time.Duration
	Bound      time.Duration
	Epoch      uint64
}

// leaseSnapshot is the immutable lease published by the loop and read
// lock-free by serving goroutines.
type leaseSnapshot struct {
	epoch      uint64
	groupAt    time.Duration // decided group clock value
	physAt     time.Duration // physical reading the offset was derived from
	validUntil time.Duration // physical-clock expiry of the lease
	driftPPM   float64
	margin     time.Duration // granularity + compensation slack
	// fedPPM ages the federation slack between publishes: neighbor groups
	// keep advancing (bounded nudges plus drift), so a served bound keeps
	// growing at this extra rate until a fresh adoption republishes
	// (federation.go). Zero when federation is off.
	fedPPM float64
	// fedAt is the federation slack folded into margin at publish, kept
	// separately so LeaseReadIntra can strip the inter-group terms.
	fedAt time.Duration
}

// leaseState is the TimeService's lease plane. snap and floor are the only
// fields touched off-loop.
type leaseState struct {
	snap    atomic.Pointer[leaseSnapshot]
	floor   atomic.Int64 // max group clock served, for per-replica monotonicity
	enabled bool         // loop-only
	cfg     LeaseConfig  // loop-only
	epoch   uint64       // loop-only; bumped on membership change
	margin  time.Duration
	drift   float64
	// lagEst estimates the CCS ordering latency (send → totally-ordered
	// delivery), measured whenever this replica initiated a round. The
	// group clocks of two replicas that adopted the same round differ by at
	// most the spread of their adoption times, which this latency bounds,
	// so it is the precision term of the staleness bound (the paper's
	// Cristian-style reading error). Loop-only; rises instantly, decays
	// slowly, so congestion spikes widen bounds for a while after.
	lagEst  time.Duration
	refresh ccsHandler // dedicated non-buffering refresh handler
	// loop-only counters, reported via ObsSamples
	refreshes     uint64
	invalidations uint64
	published     uint64
	// The lease gap: how long the replica held no lease between an
	// invalidation and the next publish. gapFrom is the runtime time of the
	// invalidation that opened the current gap (gapOpen); gaps counts the
	// closed ones and gapMax is the longest. Loop-only.
	gapOpen bool
	gapFrom time.Duration
	gaps    uint64
	gapMax  time.Duration
}

// EnableLease turns on the lease plane. Safe to call from any goroutine;
// takes effect on the loop. The first lease is published at the next CCS
// adoption (call RefreshLease to force one).
func (s *TimeService) EnableLease(cfg LeaseConfig) error {
	cfg, err := cfg.Validate()
	if err != nil {
		return err
	}
	s.mgr.Runtime().Post(func() {
		s.lease.cfg = cfg
		s.lease.drift = cfg.DriftPPM
		if sc, ok := s.clock.(interface{ DriftPPM() float64 }); ok {
			if d := sc.DriftPPM(); d > s.lease.drift || d < -s.lease.drift {
				if d < 0 {
					d = -d
				}
				s.lease.drift = d
			}
		}
		s.lease.margin = hwclock.GranularityOf(s.clock)
		if s.cfg.Compensation == CompNone {
			slack := s.cfg.MeanDelay
			if slack < defaultLeaseSlack {
				slack = defaultLeaseSlack
			}
			s.lease.margin += slack
		}
		if !s.lease.enabled {
			s.lease.enabled = true
			s.mgr.Stack().WatchViews(s.onLeaseView)
		}
	})
	return nil
}

// onLeaseView invalidates outstanding leases on any membership change of the
// server group, including synchronizer failover (the failed synchronizer
// leaves the view). Runs on the loop, in view-installation order.
func (s *TimeService) onLeaseView(v gcs.GroupView) {
	if v.Group != s.mgr.Group() {
		return
	}
	s.lease.epoch++
	s.lease.invalidations++
	s.lease.snap.Store(nil)
	if !s.lease.gapOpen {
		s.lease.gapOpen = true
		s.lease.gapFrom = s.mgr.Runtime().Now()
	}
	s.obs.Trace(obs.ScopeCore, obs.EvLeaseInvalidated, RefreshThreadID,
		s.lease.epoch, int64(len(v.Members)), "view")
}

// publishLease publishes a fresh lease snapshot after a CCS adoption.
// Loop-only; called from adoptGroupValue with the round's decided group
// value and the physical reading the new offset was derived from. Only
// monotonically increasing group values are published: a lagging replica
// consuming buffered rounds must not roll the serving plane backwards.
func (s *TimeService) publishLease(grp, physical time.Duration) {
	if !s.lease.enabled {
		return
	}
	if prev := s.lease.snap.Load(); prev != nil &&
		prev.epoch == s.lease.epoch && grp <= prev.groupAt {
		return
	}
	s.lease.published++
	if s.lease.gapOpen {
		s.lease.gapOpen = false
		s.lease.gaps++
		s.lease.gapMax = max(s.lease.gapMax, s.mgr.Runtime().Now()-s.lease.gapFrom)
	}
	var fedPPM float64
	if s.fed.enabled {
		fedPPM = s.fed.agingPPM
	}
	fedAt := s.fedSlackAt(physical)
	s.lease.snap.Store(&leaseSnapshot{
		epoch:      s.lease.epoch,
		groupAt:    grp,
		physAt:     physical,
		validUntil: physical + s.lease.cfg.Window,
		driftPPM:   s.lease.drift,
		margin:     s.lease.margin + s.lease.lagEst + fedAt,
		fedPPM:     fedPPM,
		fedAt:      fedAt,
	})
}

// noteOrderingLag folds one measured CCS ordering latency into the lease
// precision estimate. Called on the loop by finishRound for every round this
// replica sent a proposal for (winner or withdrawn, the measurement is the
// same: own send to first ordered delivery).
func (s *TimeService) noteOrderingLag(lag time.Duration) {
	if lag < 0 {
		return
	}
	if lag >= s.lease.lagEst {
		s.lease.lagEst = lag
	} else {
		s.lease.lagEst -= (s.lease.lagEst - lag) / 8
	}
}

// LeaseRead answers one external read from the current lease:
// `physical_clock + offset`, where the offset is frozen in the snapshot as
// groupAt − physAt. Safe to call from any goroutine, lock-free. Returns
// ok=false when no valid lease is held (never published, expired, or
// invalidated by a membership change) — the caller must then fall back to a
// replicated read or another replica.
//
// The bound covers quantization, drift since the adoption, and the
// uncompensated modes' adoption bias. Reads of one replica never regress:
// a shared floor is advanced with CAS, and a read clamped up to the floor
// widens its bound by the clamp distance so it still covers true time.
//
//cts:allocfree
func (s *TimeService) LeaseRead() (LeaseReading, bool) {
	snap := s.lease.snap.Load()
	if snap == nil {
		return LeaseReading{}, false
	}
	phys := s.clock.Read()
	if phys > snap.validUntil || phys < snap.physAt {
		return LeaseReading{}, false
	}
	elapsed := phys - snap.physAt
	g := snap.groupAt + elapsed
	bound := snap.margin + time.Duration(float64(elapsed)*(snap.driftPPM+snap.fedPPM)/1e6)
	for {
		prev := s.lease.floor.Load()
		if int64(g) <= prev {
			bound += time.Duration(prev) - g
			g = time.Duration(prev)
			break
		}
		if s.lease.floor.CompareAndSwap(prev, int64(g)) {
			break
		}
	}
	return LeaseReading{GroupClock: g, Bound: bound, Epoch: snap.epoch}, true
}

// LeaseReadIntra answers one read with the inter-group terms stripped: the
// uncertainty of this group's own clock (quantization, drift, ordering lag),
// excluding the federation slack and its aging. This is what a federation
// summary must carry — a summary quoting the full client-facing bound would
// count the neighbor's own inter-group slack against the merge rule, which
// could then never find a neighbor "confidently ahead" and never converge.
// Unlike LeaseRead it does not fold the served floor (summaries are
// estimates between groups, not client-visible reads). Safe from any
// goroutine.
func (s *TimeService) LeaseReadIntra() (LeaseReading, bool) {
	snap := s.lease.snap.Load()
	if snap == nil {
		return LeaseReading{}, false
	}
	phys := s.clock.Read()
	if phys > snap.validUntil || phys < snap.physAt {
		return LeaseReading{}, false
	}
	elapsed := phys - snap.physAt
	bound := snap.margin - snap.fedAt + time.Duration(float64(elapsed)*snap.driftPPM/1e6)
	return LeaseReading{GroupClock: snap.groupAt + elapsed, Bound: bound, Epoch: snap.epoch}, true
}

// RefreshLease starts a lease refresh CCS round unless one is already in
// flight. Safe to call from any goroutine. Refresh rounds ride the ordinary
// CCS machinery (same duplicate detection, same monotone guard) under the
// reserved RefreshThreadID, so concurrent refreshes from several replicas
// coalesce into one round: the first delivered proposal decides, the other
// senders withdraw, and every replica republishes its lease on adoption.
func (s *TimeService) RefreshLease() {
	s.mgr.Runtime().Post(s.refreshLease)
}

// RefreshProposers is how many members of a view propose lease-refresh rounds
// on one tick. More than one for fault tolerance; few, because concurrent
// refreshes coalesce into one round anyway.
const RefreshProposers = 3

// RefreshDuty is the lease-refresh policy: whether the member at rank in a
// view of n members should call RefreshLease on its tick-th refresh tick.
// Duty rotates because a replica's ordering-lag estimate (lagEst) is fed
// only by rounds it proposes itself: cycling duty through the population
// keeps every member's bound honest instead of only the first few ids'.
func RefreshDuty(rank, n int, tick uint64) bool {
	return OnDuty(rank, n, tick, RefreshProposers)
}

// OnDuty reports whether the member at rank (its index in the sorted
// members of a view of n, or -1 when it is not one) holds one of the width
// duty slots of tick: a window over the ranks that advances by width per
// tick, so every member serves once per ⌈n/width⌉ ticks and at most width
// serve at once. A view no larger than width (every 3-replica deployment;
// the empty view before the first installation) puts everyone on duty on
// every tick; in a larger one a node outside the view has none.
func OnDuty(rank, n int, tick uint64, width int) bool {
	if n <= width {
		return true
	}
	if rank < 0 {
		return false
	}
	first := int(tick%uint64(n)) * width % n
	return (rank-first+n)%n < width
}

// refreshLease is the loop half of RefreshLease.
func (s *TimeService) refreshLease() {
	if !s.lease.enabled {
		return
	}
	if round, proposed, ok := s.startLatest(&s.lease.refresh, 0); ok {
		s.lease.refreshes++
		s.queueProposal(RefreshThreadID, round, proposed, wire.OpGettimeofday)
	}
}

// leaseObsSamples contributes the lease plane's counters to ObsSamples.
func (s *TimeService) leaseObsSamples(id uint32) []obs.Sample {
	return []obs.Sample{
		{Node: id, Name: "core.lease_refreshes", Value: s.lease.refreshes},
		{Node: id, Name: "core.lease_invalidations", Value: s.lease.invalidations},
		{Node: id, Name: "core.lease_published", Value: s.lease.published},
		{Node: id, Name: "core.lease_gaps", Value: s.lease.gaps},
		{Node: id, Name: "core.lease_gap_max_us", Value: uint64(s.lease.gapMax / time.Microsecond)},
	}
}
