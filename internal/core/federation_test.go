package core

import (
	"testing"
	"time"

	"cts/internal/replication"
	"cts/internal/transport"
)

// enableFederation turns the federation half on at the given replicas and
// lets the posted enables run.
func enableFederation(h *coreHarness, cfg FedConfig, ids ...transport.NodeID) {
	h.t.Helper()
	for _, id := range ids {
		if err := h.svcs[id].EnableFederation(cfg); err != nil {
			h.t.Fatal(err)
		}
	}
	h.k.RunFor(time.Millisecond)
}

func TestFedConfigValidate(t *testing.T) {
	if _, err := (FedConfig{}).Validate(); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := (FedConfig{InitialSlack: time.Millisecond}).Validate(); err == nil {
		t.Fatal("zero AgingPPM accepted")
	}
	if _, err := (FedConfig{InitialSlack: -1, AgingPPM: 100}).Validate(); err == nil {
		t.Fatal("negative InitialSlack accepted")
	}
	if _, err := (FedConfig{InitialSlack: time.Millisecond, AgingPPM: 100}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFederatedRoundNudgesWholeGroup: a federated round is a total-order
// adoption like any other CCS round — every replica applies the same nudge,
// re-derives its offset, and the group keeps answering identical values.
func TestFederatedRoundNudgesWholeGroup(t *testing.T) {
	h, client := standardSetup(t, 31, replication.Active)
	enableLeases(h, LeaseConfig{Window: time.Minute})
	enableFederation(h, FedConfig{InitialSlack: 5 * time.Millisecond, AgingPPM: 10_000}, serverIDs...)
	driveReads(t, h, client, 5)

	const nudge = 2 * time.Millisecond
	offBefore := h.svcs[2].offset
	h.svcs[1].ProposeFederated(nudge, time.Millisecond)
	h.k.RunFor(5 * time.Millisecond)
	offAfter := h.svcs[2].offset

	for _, id := range serverIDs {
		if got := h.counter(id, "core.fed_adoptions"); got != 1 {
			t.Fatalf("replica %v adopted %d federated rounds, want 1", id, got)
		}
	}
	if got := h.counter(1, "core.fed_proposals"); got != 1 {
		t.Fatalf("proposer counted %d proposals, want 1", got)
	}

	// Replicas still agree exactly after the nudge (the round oracle), and
	// no read regresses across it (the client oracle).
	driveReads(t, h, client, 5)
	// A non-proposing replica's re-derived offset jumped forward by the nudge
	// minus the round's ordering delay (the group clock kept advancing between
	// proposal and delivery, which eats a sliver of the step).
	delta := offAfter - offBefore
	if delta < nudge/2 || delta > nudge+time.Millisecond {
		t.Fatalf("offset moved by %v across the federated round, want about the %v nudge", delta, nudge)
	}
	if h.counter(1, "core.monotonicity_fixes") != 0 {
		t.Fatal("forward nudge must not trip the monotone guard")
	}
}

// TestFedSlackWidensAndAges: before any federated round the published bound
// carries InitialSlack; a delivered round re-anchors it to the carried slack
// term; and between rounds it ages at AgingPPM.
func TestFedSlackWidensAndAges(t *testing.T) {
	h, client := standardSetup(t, 32, replication.Active)
	enableLeases(h, LeaseConfig{Window: time.Minute})
	driveReads(t, h, client, 3)
	base, ok := h.svcs[1].LeaseRead()
	if !ok {
		t.Fatal("no lease before federation")
	}

	const initial = 5 * time.Millisecond
	enableFederation(h, FedConfig{InitialSlack: initial, AgingPPM: 10_000}, serverIDs...)
	driveReads(t, h, client, 1) // republish with the federation slack folded in
	widened, ok := h.svcs[1].LeaseRead()
	if !ok {
		t.Fatal("no lease after enabling federation")
	}
	if d := widened.Bound - base.Bound; d < initial {
		t.Fatalf("bound widened by %v, want at least InitialSlack %v", d, initial)
	}

	const anchored = time.Millisecond
	h.svcs[1].ProposeFederated(0, anchored)
	h.k.RunFor(5 * time.Millisecond)
	driveReads(t, h, client, 1)
	r1, ok := h.svcs[1].LeaseRead()
	if !ok {
		t.Fatal("no lease after federated round")
	}
	if r1.Bound >= widened.Bound {
		t.Fatalf("federated round did not re-anchor the slack: bound %v, was %v", r1.Bound, widened.Bound)
	}

	// Idle aging: 100ms at 10_000 ppm grows the bound by ~1ms beyond the
	// drift term alone.
	h.k.RunFor(100 * time.Millisecond)
	r2, ok := h.svcs[1].LeaseRead()
	if !ok {
		t.Fatal("lease expired during idle")
	}
	if growth := r2.Bound - r1.Bound; growth < time.Millisecond {
		t.Fatalf("bound grew %v over 100ms idle, want at least 1ms of federation aging", growth)
	}
}

// TestFedStateRidesCheckpoint: the state codec carries the federated round
// counter and the projected slack (the §3.2 discipline extended to the
// federation plane).
func TestFedStateRidesCheckpoint(t *testing.T) {
	h, client := standardSetup(t, 33, replication.Active)
	enableLeases(h, LeaseConfig{Window: time.Minute})
	enableFederation(h, FedConfig{InitialSlack: 5 * time.Millisecond, AgingPPM: 10_000}, serverIDs...)
	driveReads(t, h, client, 2)
	h.svcs[1].ProposeFederated(time.Millisecond, 2*time.Millisecond)
	h.k.RunFor(5 * time.Millisecond)

	st, err := decodeState(h.svcs[1].encodeState())
	if err != nil {
		t.Fatal(err)
	}
	if st.fedRound != 1 {
		t.Fatalf("checkpoint carries fedRound %d, want 1", st.fedRound)
	}
	if st.fedSlack < 2*time.Millisecond {
		t.Fatalf("checkpoint carries fedSlack %v, want at least the anchored 2ms", st.fedSlack)
	}
}

// TestJoinerInheritsFederationState is the regression test for the
// §3.2-joiner-class bug in the federation plane: without the checkpoint
// carrying fedRound and fedSlack, a recovering replica would (a) treat a
// replayed old federated round as new and re-adopt its stale value — a
// monotone-guard hit a healthy run must not need — and (b) publish bounds
// blind to inter-group skew for up to one exchange interval.
func TestJoinerInheritsFederationState(t *testing.T) {
	h := newCoreHarness(t, 34)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.addReplica(1, replication.Active, false, h.simClock(0, 0))
	h.addReplica(2, replication.Active, false, h.simClock(3*time.Second, 0))
	client := h.newClient(0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	fedCfg := FedConfig{InitialSlack: 20 * time.Millisecond, AgingPPM: 10_000}
	for _, id := range []transport.NodeID{1, 2} {
		if err := h.svcs[id].EnableLease(LeaseConfig{Window: time.Minute}); err != nil {
			t.Fatal(err)
		}
	}
	enableFederation(h, fedCfg, 1, 2)
	driveReads(t, h, client, 4)
	// Advance the federated plane past round zero with a live slack anchor.
	for i := 0; i < 3; i++ {
		h.svcs[1].ProposeFederated(100*time.Microsecond, 3*time.Millisecond)
		h.k.RunFor(5 * time.Millisecond)
	}

	h.addReplica(3, replication.Active, true, h.simClock(100*time.Second, 0))
	if err := h.svcs[3].EnableFederation(fedCfg); err != nil {
		t.Fatal(err)
	}
	ok := h.runUntil(10*time.Second, func() bool {
		live := false
		h.k.Post(func() { live = h.mgrs[3].Live() })
		h.k.RunFor(50 * time.Microsecond)
		return live
	})
	if !ok {
		t.Fatal("recovering replica never went live")
	}

	var round uint64
	var slack time.Duration
	h.k.Post(func() {
		round = h.svcs[3].fed.handler.round
		slack = h.svcs[3].FederationSlack()
	})
	h.k.RunFor(time.Millisecond)
	if round < 3 {
		t.Fatalf("joiner's federated round counter = %d, want at least 3 from the checkpoint", round)
	}
	// The joiner inherited the donor's anchored slack (~3ms), not the blind
	// 20ms InitialSlack — and not zero.
	if slack < 3*time.Millisecond {
		t.Fatalf("joiner's federation slack = %v, want at least the donor's 3ms", slack)
	}
	if slack > 15*time.Millisecond {
		t.Fatalf("joiner's federation slack = %v; restored anchor should beat InitialSlack", slack)
	}

	// A fresh federated round lands on the joiner as an adoption, not a
	// replayed duplicate, and nobody needed the monotone guard.
	h.svcs[1].ProposeFederated(0, 3*time.Millisecond)
	h.k.RunFor(5 * time.Millisecond)
	if got := h.counter(3, "core.fed_adoptions"); got == 0 {
		t.Fatal("joiner did not adopt the post-recovery federated round")
	}
	for _, id := range []transport.NodeID{1, 2, 3} {
		if got := h.counter(id, "core.monotonicity_fixes"); got != 0 {
			t.Fatalf("replica %v needed %d monotonicity fixes across recovery", id, got)
		}
	}
}
