package campaign

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/invariant"
)

const ms = time.Millisecond

// served is a reading from an up node that served [clock−bound, clock+bound].
func served(group int, node uint32, clock, bound time.Duration) reading {
	return reading{group: group, key: invariant.Key{Group: uint32(group), Node: node},
		up: true, ok: true, clock: clock, bound: bound}
}

// TestMonitorSeamViolation plants two groups whose intervals are disjoint:
// the pass counts one seam violation, and its skew keeps the cell from
// reconverging until a pass with overlapping intervals under the ceiling.
func TestMonitorSeamViolation(t *testing.T) {
	mo := newMonitor(0, ms)
	mo.observe(10*ms, 2, []reading{served(0, 1, 100*ms, ms), served(1, 1, 110*ms, ms)})
	if mo.seamViolations != 1 {
		t.Fatalf("disjoint seam counted %d violations, want 1", mo.seamViolations)
	}
	if mo.reconvergedAt >= 0 {
		t.Fatalf("reconverged at %v with a 10ms seam skew over a 1ms ceiling", mo.reconvergedAt)
	}
	mo.observe(20*ms, 2, []reading{served(0, 1, 120*ms, ms), served(1, 1, 120*ms+500*time.Microsecond, ms)})
	if mo.seamViolations != 1 {
		t.Fatalf("overlapping seam counted: %d violations, want 1", mo.seamViolations)
	}
	if mo.reconvergedAt != 20*ms || mo.finalSeamSkewUS != 500 || mo.maxSeamSkewUS != 10000 {
		t.Fatalf("reconverged at %v, final/max seam skew %v/%vµs; want 20ms, 500/10000µs",
			mo.reconvergedAt, mo.finalSeamSkewUS, mo.maxSeamSkewUS)
	}
	if st, reg := mo.chk.Violations(); st != 0 || reg != 0 {
		t.Fatalf("honest readings counted %d staleness, %d regressions", st, reg)
	}
}

// TestMonitorCrossGroupStaleness plants a reading whose interval ends below
// the lower bound another group served in the previous pass: the floor is
// global, so it counts one staleness violation, while the same reading in
// the pass that set the floor would not be compared against it. The gate
// names the first witness next to the count.
func TestMonitorCrossGroupStaleness(t *testing.T) {
	mo := newMonitor(0, time.Hour)
	mo.observe(10*ms, 2, []reading{served(0, 1, 100*ms, ms), served(1, 1, 97*ms, ms)})
	if st, _ := mo.chk.Violations(); st != 0 {
		t.Fatalf("readings of one pass compared against each other: %d staleness violations", st)
	}
	mo.observe(20*ms, 2, []reading{served(1, 1, 97*ms, ms)})
	if st, reg := mo.chk.Violations(); st != 1 || reg != 0 {
		t.Fatalf("stale cross-group reading: %d staleness, %d regressions; want 1, 0", st, reg)
	}
	mo.m.StalenessViolations, mo.m.Regressions = mo.chk.Violations()
	want := []string{"1 staleness-bound violations (want 0)",
		"first: staleness: group 1 node 1 served 97ms (bound 1ms), below the floor 99ms set by group 0 node 1"}
	if fails := mo.gate(0, time.Hour); fmt.Sprint(fails) != fmt.Sprint(want) {
		t.Fatalf("gate failures = %q, want %q", fails, want)
	}
}

// TestMonitorReconvergesWhenEveryNodeServes runs a one-group cell through
// passes before the fault window ends, with an up node not serving, and
// with every up node serving: reconvergence is the first of the last kind.
// A node the schedule holds down never blocks it, and only the up node's
// missed pass counts as unserved.
func TestMonitorReconvergesWhenEveryNodeServes(t *testing.T) {
	mo := newMonitor(5*ms, 0)
	down := reading{key: invariant.Key{Node: 3}}
	pass := func(now time.Duration, second reading) {
		mo.observe(now, 1, []reading{served(0, 1, now, ms), second, down})
	}
	pass(2*ms, served(0, 2, 2*ms, ms)) // all serving, but inside the fault window
	pass(6*ms, reading{key: invariant.Key{Node: 2}, up: true})
	if mo.reconvergedAt >= 0 {
		t.Fatalf("reconverged at %v before every up node served", mo.reconvergedAt)
	}
	pass(8*ms, served(0, 2, 8*ms, ms))
	pass(10*ms, served(0, 2, 10*ms, ms))
	if mo.reconvergedAt != 8*ms {
		t.Fatalf("reconverged at %v, want 8ms (first pass after the faults with every up node serving)", mo.reconvergedAt)
	}
	// One up node missed one pass; the down node's passes are not counted.
	if mo.m.Samples != 7 || mo.m.Unserved != 1 {
		t.Fatalf("samples/unserved = %d/%d, want 7/1", mo.m.Samples, mo.m.Unserved)
	}
}
