package experiment

import (
	"strings"
	"testing"
	"time"

	"cts/internal/core"
	"cts/internal/transport"
)

// The experiment tests run scaled-down versions of each figure/table and
// assert the paper's qualitative shape. Full-size runs (10,000 invocations)
// are exercised by the benchmark harness and cmd/ctsbench.

func TestFigure5ShapeOverheadPositive(t *testing.T) {
	r, err := RunFigure5(1, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r.With.N() != 300 || r.Without.N() != 300 {
		t.Fatalf("sample sizes: %d/%d", r.With.N(), r.Without.N())
	}
	// The service adds latency (the paper: ≈300µs, one extra token
	// circulation on the 4-node ring ≈ 4 hops ≈ 220µs in our calibration).
	over := r.Overhead()
	if over < 100*time.Microsecond {
		t.Fatalf("overhead = %v, want ≥ 100µs (one extra token circulation)", over)
	}
	if over > 2*time.Millisecond {
		t.Fatalf("overhead = %v, implausibly large", over)
	}
	// Baseline latency is itself nontrivial (request ordering + reply).
	if r.Without.Mean() < 100*time.Microsecond {
		t.Fatalf("baseline mean %v too small to be a real round trip", r.Without.Mean())
	}
	if !strings.Contains(r.Render(), "overhead") {
		t.Fatal("render missing overhead line")
	}
}

func TestMessageCountsSuppression(t *testing.T) {
	totemOnly(t)
	const ops = 400
	r, err := RunMessageCounts(2, ops)
	if err != nil {
		t.Fatal(err)
	}
	if int(r.TotalSent) < ops {
		t.Fatalf("total CCS on wire %d < rounds %d", r.TotalSent, ops)
	}
	// Without suppression there would be 3×ops; require the large majority
	// of duplicates gone (paper: 10,000 rounds → 10,000 messages total).
	if int(r.TotalSent) > ops+ops/2 {
		t.Fatalf("total CCS on wire %d for %d rounds; suppression ineffective", r.TotalSent, ops)
	}
	// The paper's counts are heavily skewed (1 / 9,977 / 22): one ring
	// position wins nearly every round of the Figure 5 workload.
	var max uint64
	for _, n := range r.PerNode {
		if n > max {
			max = n
		}
	}
	if int(max) < ops*6/10 {
		t.Fatalf("no dominant synchronizer: per-node %v for %d rounds", r.PerNode, ops)
	}
	var sum uint64
	for _, n := range r.PerNode {
		sum += n
	}
	if sum != r.TotalSent {
		t.Fatalf("per-node sum %d != total %d", sum, r.TotalSent)
	}
	if !strings.Contains(r.Render(), "CCS message counts") {
		t.Fatal("render malformed")
	}
}

func TestFigure6Shape(t *testing.T) {
	// Synchronizer rotation is a token-ring property: the replica closest
	// behind the token wins the round. Under the leader-sequencer the
	// sender co-located with the leader wins every round, so there is no
	// rotation to assert.
	totemOnly(t)
	r, err := RunFigure6(3, 400, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds != 20 || len(r.IntervalGroup) != 20 {
		t.Fatalf("rounds = %d, intervals = %d", r.Rounds, len(r.IntervalGroup))
	}
	// (a) Intervals are in the paper's regime (inserted delay 60–400µs plus
	// the round's ordering latency: a few hundred µs up to ~2ms).
	for i, iv := range r.IntervalGroup {
		if iv <= 0 {
			t.Fatalf("group interval %d = %v, not positive", i, iv)
		}
		if iv > 5*time.Millisecond {
			t.Fatalf("group interval %d = %v, out of regime", i, iv)
		}
	}
	// The synchronizer rotates: at least two distinct winners in 20 rounds.
	winners := make(map[transport.NodeID]bool)
	for _, w := range r.Winner {
		winners[w] = true
	}
	if len(winners) < 2 {
		t.Fatalf("synchronizer never rotated: %v", r.Winner)
	}
	// (b) The winner's offset trends downward (occasional increases allowed).
	if len(r.WinnerOffset) < 10 {
		t.Fatalf("winner offsets: %d", len(r.WinnerOffset))
	}
	first, last := r.WinnerOffset[0], r.WinnerOffset[len(r.WinnerOffset)-1]
	if last >= first {
		t.Fatalf("winner offset did not decrease: %v -> %v", first, last)
	}
	// (c) The group clock runs slower than every physical clock.
	lastIdx := r.Rounds - 1
	for _, id := range []transport.NodeID{1, 2, 3} {
		if r.NormGroup[lastIdx] >= r.NormPhys[id][lastIdx] {
			t.Fatalf("group clock (%v) not slower than %v's physical clock (%v)",
				r.NormGroup[lastIdx], id, r.NormPhys[id][lastIdx])
		}
	}
	out := r.Render()
	for _, want := range []string{"Figure 6(a)", "Figure 6(b)", "Figure 6(c)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFigure1InconsistencyEliminated(t *testing.T) {
	r, err := RunFigure1(4, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Raw local clocks disagree even though the hardware is synchronized
	// (operations execute at different real times).
	if r.SpreadRaw.Max() == 0 {
		t.Fatal("raw clock readings never diverged; Figure 1 premise not reproduced")
	}
	// The consistent time service removes the inconsistency entirely.
	if r.SpreadCTS.Max() != 0 {
		t.Fatalf("CTS readings diverged by up to %v", r.SpreadCTS.Max())
	}
	if !strings.Contains(r.Render(), "spread") {
		t.Fatal("render malformed")
	}
}

func TestRollbackBaselineVsCTS(t *testing.T) {
	// Backup clock 2s BEHIND the primary: the baseline rolls back.
	r, err := RunRollback(5, -2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The service's reads go through the client oracle, so RunRollback
	// fails if it rolls back.
	if r.BaselineJump() >= 0 {
		t.Fatalf("baseline should roll back; jump = %v", r.BaselineJump())
	}
	if !strings.Contains(r.Render(), "Roll-back") {
		t.Fatal("render malformed")
	}
}

func TestFastForwardBaselineVsCTS(t *testing.T) {
	// Backup clock 2s AHEAD: the baseline jumps forward by ≈2s; the service
	// advances only by the failover duration.
	r, err := RunRollback(6, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineJump() < time.Second {
		t.Fatalf("baseline should fast-forward ≈2s; jump = %v", r.BaselineJump())
	}
	if r.CTSJump() > time.Second {
		t.Fatalf("CTS jump = %v, want small", r.CTSJump())
	}
}

func TestRecoveryIntegration(t *testing.T) {
	r, err := RunRecovery(7, 200*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.After < r.Before {
		t.Fatalf("group clock regressed across recovery: %v -> %v", r.Before, r.After)
	}
	if r.After > r.Before+time.Minute {
		t.Fatalf("group clock jumped toward the new clock: %v -> %v", r.Before, r.After)
	}
	if r.SpecialRounds == 0 {
		t.Fatal("no special round taken")
	}
	if !r.NewcomerMatch {
		t.Fatal("newcomer readings inconsistent with existing replicas")
	}
}

func TestDriftCompensationOrdering(t *testing.T) {
	// MeanDelay=40µs is the paper's measured Totem CCS ordering delay.
	// The leader-sequencer loses ~1µs per round (the winner anchors at its
	// send time and keeps winning), so the testbed constant overshoots by
	// design; compensation calibration is protocol-specific (§3.3).
	totemOnly(t)
	r, err := RunDrift(8, 400)
	if err != nil {
		t.Fatal(err)
	}
	lagNone := r.LagPerMode[core.CompNone]
	lagMean := r.LagPerMode[core.CompMeanDelay]
	lagExt := r.LagPerMode[core.CompExternal]
	if lagNone <= 0 {
		t.Fatalf("uncompensated lag = %v, want positive (group clock slow)", lagNone)
	}
	if absDur(lagMean) >= absDur(lagNone) {
		t.Fatalf("mean-delay compensation did not reduce |lag|: %v vs %v", lagMean, lagNone)
	}
	if absDur(lagExt) >= absDur(lagNone) {
		t.Fatalf("external compensation did not reduce |lag|: %v vs %v", lagExt, lagNone)
	}
	if !strings.Contains(r.Render(), "Drift compensation") {
		t.Fatal("render malformed")
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestTokenTimingPeakNearPaper(t *testing.T) {
	totemOnly(t)
	r, err := RunTokenTiming(9, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hops.N() < 4000 {
		t.Fatalf("only %d hop samples", r.Hops.N())
	}
	// Paper: peak probability density ≈51µs. Our calibrated model must put
	// the mode bin within [40µs, 70µs).
	if r.Mode < 40*time.Microsecond || r.Mode >= 70*time.Microsecond {
		t.Fatalf("token-passing mode bin at %v, want near 51µs", r.Mode)
	}
	if !strings.Contains(r.Render(), "Token-passing") {
		t.Fatal("render malformed")
	}
}

func TestScalingMonotoneCost(t *testing.T) {
	totemOnly(t)
	r, err := RunScaling(10, []int{2, 4, 8}, 60)
	if err != nil {
		t.Fatal(err)
	}
	// A bigger ring means a longer token rotation, so latency grows.
	if r.MeanLat[8] <= r.MeanLat[2] {
		t.Fatalf("latency did not grow with group size: 2->%v 8->%v",
			r.MeanLat[2], r.MeanLat[8])
	}
	for _, size := range r.Sizes {
		if r.RoundsSec[size] <= 0 {
			t.Fatalf("size %d: no throughput recorded", size)
		}
	}
	if !strings.Contains(r.Render(), "scaling") {
		t.Fatal("render malformed")
	}
}

func TestCCSAblationOrdering(t *testing.T) {
	r, err := RunCCSAblation(11, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The time service costs latency, and safe delivery — the property §3's
	// correctness argument rests on — costs more than agreed delivery.
	if !(r.Baseline < r.AgreedMean && r.AgreedMean < r.SafeMean) {
		t.Fatalf("want baseline < agreed < safe, got %v / %v / %v",
			r.Baseline, r.AgreedMean, r.SafeMean)
	}
	if !strings.Contains(r.Render(), "CCS delivery ablation") {
		t.Fatal("render malformed")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Seed: 1}); err == nil {
		t.Fatal("cluster with no replicas accepted")
	}
}

func TestDecodeTimeval(t *testing.T) {
	v := 8*time.Hour + 123456*time.Microsecond
	got, err := DecodeTimeval(encodeTimeval(v))
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("round trip: %v -> %v", v, got)
	}
	if _, err := DecodeTimeval([]byte{1}); err == nil {
		t.Fatal("short timeval accepted")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	a, err := RunMessageCounts(42, 120)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMessageCounts(42, 120)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range a.PerNode {
		if b.PerNode[id] != n {
			t.Fatalf("nondeterministic counts at %v: %d vs %d", id, n, b.PerNode[id])
		}
	}
}
