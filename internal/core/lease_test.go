package core

import (
	"testing"
	"time"

	"cts/internal/replication"
	"cts/internal/transport"
)

var serverIDs = []transport.NodeID{1, 2, 3}

// enableLeases turns the lease plane on at every replica and lets the
// posted enables run.
func enableLeases(h *coreHarness, cfg LeaseConfig) {
	h.t.Helper()
	for _, id := range serverIDs {
		if err := h.svcs[id].EnableLease(cfg); err != nil {
			h.t.Fatal(err)
		}
	}
	h.k.RunFor(time.Millisecond)
}

func TestLeaseConfigValidate(t *testing.T) {
	if _, err := (LeaseConfig{}).Validate(); err == nil {
		t.Fatal("zero Window accepted")
	}
	if _, err := (LeaseConfig{Window: time.Second, DriftPPM: -1}).Validate(); err == nil {
		t.Fatal("negative DriftPPM accepted")
	}
	cfg, err := (LeaseConfig{Window: time.Second}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DriftPPM != 100 {
		t.Fatalf("default DriftPPM = %v, want 100", cfg.DriftPPM)
	}
}

// TestLeasePublishedByOrdinaryRounds: every CCS adoption republishes the
// lease, so a replica serving application traffic needs no refresh rounds.
func TestLeasePublishedByOrdinaryRounds(t *testing.T) {
	h, client := standardSetup(t, 21, replication.Active)
	enableLeases(h, LeaseConfig{Window: time.Second})
	driveReads(t, h, client, 10)

	for _, id := range serverIDs {
		if _, ok := h.leaseRead(id); !ok {
			t.Fatalf("replica %v holds no lease after 10 CCS rounds", id)
		}
	}
	if h.counter(1, "core.lease_refreshes") != 0 {
		t.Fatal("ordinary rounds should not count as refreshes")
	}
	if h.counter(1, "core.lease_published") == 0 {
		t.Fatal("no lease published at replica 1")
	}
}

// TestLeaseAgesAndExpires: between rounds the lease extrapolates the group
// clock at the physical rate with a bound that widens by the drift
// allowance, and past the window it stops serving.
func TestLeaseAgesAndExpires(t *testing.T) {
	h, client := standardSetup(t, 22, replication.Active)
	enableLeases(h, LeaseConfig{Window: 500 * time.Millisecond})
	driveReads(t, h, client, 5)

	r1, ok := h.svcs[1].LeaseRead()
	if !ok {
		t.Fatal("no lease after reads")
	}
	h.k.RunFor(100 * time.Millisecond) // idle: no rounds, lease ages
	r2, ok := h.svcs[1].LeaseRead()
	if !ok {
		t.Fatal("lease expired before its window")
	}
	if d := r2.GroupClock - r1.GroupClock; d < 99*time.Millisecond || d > 101*time.Millisecond {
		t.Fatalf("lease extrapolated %v over 100ms idle", d)
	}
	if r2.Bound <= r1.Bound {
		t.Fatalf("bound did not widen as the lease aged: %v then %v", r1.Bound, r2.Bound)
	}

	h.k.RunFor(500 * time.Millisecond) // now past the 500ms window
	if _, ok := h.svcs[1].LeaseRead(); ok {
		t.Fatal("expired lease still serving")
	}

	// A refresh round brings every replica back.
	h.svcs[2].RefreshLease()
	h.k.RunFor(5 * time.Millisecond)
	for _, id := range serverIDs {
		if _, ok := h.leaseRead(id); !ok {
			t.Fatalf("replica %v has no lease after refresh", id)
		}
	}
}

// TestLeaseRefreshCoalesces: simultaneous refreshes from all replicas ride
// one CCS round (the first delivered proposal decides, the others withdraw)
// and every replica ends up serving a consistent lease.
func TestLeaseRefreshCoalesces(t *testing.T) {
	h, _ := standardSetup(t, 23, replication.Active)
	enableLeases(h, LeaseConfig{Window: time.Second})
	for _, id := range serverIDs {
		h.svcs[id].RefreshLease()
	}
	h.k.RunFor(5 * time.Millisecond)

	for _, id := range serverIDs {
		if _, ok := h.leaseRead(id); !ok {
			t.Fatalf("replica %v holds no lease after coalesced refresh", id)
		}
		if got := h.counter(id, "core.lease_refreshes"); got != 1 {
			t.Fatalf("replica %v counted %d refreshes, want 1", id, got)
		}
	}
	// All three competed, so up to three proposals hit the wire, but they
	// decided a single round: a second refresh advances every handler by
	// exactly one round again rather than replaying buffered values.
	for _, id := range serverIDs {
		h.svcs[id].RefreshLease()
	}
	h.k.RunFor(5 * time.Millisecond)
	for _, id := range serverIDs {
		if _, ok := h.leaseRead(id); !ok {
			t.Fatalf("replica %v lost its lease on the second refresh", id)
		}
	}
}

// TestLeaseInvalidatedOnMembershipChange: a membership change (here: one
// replica fail-stops) bumps the lease epoch at every survivor and stops the
// old leases from serving until the next round under the new view.
func TestLeaseInvalidatedOnMembershipChange(t *testing.T) {
	h, client := standardSetup(t, 24, replication.Active)
	enableLeases(h, LeaseConfig{Window: 30 * time.Second})
	driveReads(t, h, client, 5)

	before := make(map[transport.NodeID]LeaseReading)
	for _, id := range serverIDs {
		r, ok := h.leaseRead(id)
		if !ok {
			t.Fatalf("replica %v holds no lease before the crash", id)
		}
		before[id] = r
	}

	// Fail-stop replica 3 mid-lease.
	h.stacks[3].Stop()
	h.net.Endpoint(3).SetDown(true)
	survivors := []transport.NodeID{1, 2}
	if !h.runUntil(10*time.Second, func() bool {
		for _, id := range survivors {
			if h.counter(id, "core.lease_invalidations") == 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("membership change never invalidated the leases")
	}
	for _, id := range survivors {
		if _, ok := h.svcs[id].LeaseRead(); ok {
			t.Fatalf("replica %v still serving an invalidated lease", id)
		}
	}

	// The next refresh re-arms serving under a higher epoch, without any
	// group clock regression relative to pre-crash reads.
	h.svcs[1].RefreshLease()
	h.k.RunFor(10 * time.Millisecond)
	for _, id := range survivors {
		r, ok := h.leaseRead(id)
		if !ok {
			t.Fatalf("replica %v has no lease after post-crash refresh", id)
		}
		if r.Epoch <= before[id].Epoch {
			t.Fatalf("replica %v epoch %d not advanced past %d",
				id, r.Epoch, before[id].Epoch)
		}
	}
}
