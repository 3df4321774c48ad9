package invariant

import (
	"strings"
	"testing"
	"time"
)

// round is node's completion of (thread, round) with value v (in ms) and
// winner 1.
func round(node uint32, thread, rnd uint64, v int) RoundReport {
	return RoundReport{Node: node, Thread: thread, Round: rnd, Value: ms * time.Duration(v), Winner: 1}
}

func roundViolations(t *testing.T, o *Rounds, want int, kind Violation) RoundWitness {
	t.Helper()
	n, w := o.Violations()
	if n != want || (want > 0 && w.Kind != kind) {
		t.Fatalf("violations = %d, first %+v; want %d of kind %d", n, w, want, kind)
	}
	if (o.Err() == nil) != (want == 0) {
		t.Fatalf("Err() = %v with %d violations", o.Err(), n)
	}
	return w
}

// Three replicas, two threads, reports interleaved across replicas and
// threads in every order a total-order delivery allows: no violation, and
// every replica's reports were checked against another's.
func TestRoundsCleanInterleaving(t *testing.T) {
	var o Rounds
	for r := uint64(1); r <= 5; r++ {
		for _, node := range []uint32{2, 1, 3} {
			o.Report(round(node, 7, r, int(10*r)))
			o.Report(round(4-node, 9, r, int(10*r+1)))
		}
	}
	roundViolations(t, &o, 0, 0)
	for _, node := range []uint32{1, 2, 3} {
		if got := o.Shared(node); got != 10 {
			t.Errorf("Shared(%d) = %d, want 10", node, got)
		}
	}
	// A replica that skipped rounds (it recovered, or was cut off) still
	// completes the rest in order.
	o.Report(round(4, 7, 5, 50))
	roundViolations(t, &o, 0, 0)
}

// Mutation: replica 3 adopts its own proposal instead of the winner's. The
// first witness names both reports.
func TestRoundsDisagreement(t *testing.T) {
	var o Rounds
	o.Report(round(1, 1, 151, 3206))
	o.Report(round(2, 1, 151, 3206))
	bad := round(3, 1, 151, 3227)
	bad.Winner = 3
	o.Report(bad)
	o.Report(round(3, 1, 152, 3300)) // later violations keep the first witness
	o.Report(round(1, 1, 152, 3299))
	w := roundViolations(t, &o, 2, Disagreement)
	if w.First != round(1, 1, 151, 3206) || w.Second != bad {
		t.Fatalf("witness = %+v, want node 1's and node 3's reports of (1,151)", w)
	}
	for _, part := range []string{"key (1,151)", "3.206s at node 1", "3.227s at node 3 (winner 3)", "2 violation(s)"} {
		if !strings.Contains(o.Err().Error(), part) {
			t.Errorf("Err() = %q, missing %q", o.Err(), part)
		}
	}
}

// Mutation: a replica completes one key twice, then a thread's round out of
// order. Neither report is held against the table, so each counts once.
func TestRoundsReorder(t *testing.T) {
	var o Rounds
	o.Report(round(1, 1, 1, 10))
	o.Report(round(1, 1, 2, 20))
	o.Report(round(1, 1, 2, 20))
	w := roundViolations(t, &o, 1, Reorder)
	if w.First.Round != 2 || w.Second.Round != 2 || w.Second.Node != 1 {
		t.Fatalf("witness = %+v, want node 1 completing round 2 twice", w)
	}
	o.Report(round(1, 1, 1, 10))
	roundViolations(t, &o, 2, Reorder)
	o.Report(round(1, 1, 3, 30)) // the thread carries on from round 2
	roundViolations(t, &o, 2, Reorder)
}

// Mutation: a replica's thread reads a lower value in a later round — the
// monotonicity clamp switched off. The other replica agrees on every value,
// so only the regression trips.
func TestRoundsRegression(t *testing.T) {
	var o Rounds
	for _, node := range []uint32{1, 2} {
		o.Report(round(node, 5, 1, 20))
		o.Report(round(node, 5, 2, 19))
	}
	w := roundViolations(t, &o, 2, Regression)
	if w.First != (RoundReport{Node: 1, Thread: 5, Round: 1, Value: 20 * ms}) || w.Second != round(1, 5, 2, 19) {
		t.Fatalf("witness = %+v, want node 1's rounds 1 and 2 of thread 5", w)
	}
	if !strings.Contains(o.Err().Error(), "node 1 thread 5: round 2 returned 19ms after round 1 returned 20ms") {
		t.Errorf("Err() = %q", o.Err())
	}
}
