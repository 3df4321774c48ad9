package experiment

import (
	"testing"

	"cts/internal/obs"
	"cts/internal/order"
)

// TestFigure5RoundTrace drives the Figure 5 workload (three-way actively
// replicated server) with the observability layer on and asserts that every
// replica emits the complete, ordered CCS round lifecycle —
// read_start → proposal_queued → ccs_sent → first_ordered → adopted →
// read_done — for the invocation thread's early rounds.
func TestFigure5RoundTrace(t *testing.T) {
	totemOnly(t)
	const invocations = 5
	sink := obs.NewMemorySink(0)
	res, err := RunFigure5Traced(1, invocations, sink)
	if err != nil {
		t.Fatalf("RunFigure5Traced: %v", err)
	}
	evs := sink.Events()
	if len(evs) == 0 {
		t.Fatal("trace sink received no events")
	}

	// Under active replication every replica (nodes 1..3) runs the
	// invocation thread (id 1) and competes in every round.
	const invThread = 1
	for node := uint32(1); node <= 3; node++ {
		for round := uint64(1); round <= invocations; round++ {
			span, err := obs.VerifyRound(evs, node, invThread, round)
			if err != nil {
				t.Errorf("node %d round %d: %v", node, round, err)
				continue
			}
			for i := 1; i < len(span); i++ {
				if span[i].T < span[i-1].T {
					t.Errorf("node %d round %d: %s at %v precedes %s at %v",
						node, round, span[i].Name, span[i].T, span[i-1].Name, span[i-1].T)
				}
			}
		}
	}

	// The totem sub-spans of the safe-delivery path must be present: CCS
	// messages use safe delivery, which blocks on the safe point for about
	// one extra token circulation (§4.3).
	var tokens, safeWaits, safeDelivered int
	for _, ev := range evs {
		if ev.Scope != obs.ScopeTotem {
			continue
		}
		switch ev.Name {
		case obs.EvTokenRecv:
			tokens++
		case obs.EvSafeWait:
			safeWaits++
		case obs.EvSafeDelivered:
			safeDelivered++
		}
	}
	if tokens == 0 {
		t.Error("no token_recv events recorded")
	}
	if safeWaits == 0 || safeDelivered == 0 {
		t.Errorf("safe-delivery sub-spans missing: %d safe_wait, %d safe_delivered",
			safeWaits, safeDelivered)
	}

	// The gathered metrics must cover every instrumented layer under the
	// canonical names.
	m := obs.SampleMap(res.Metrics)
	for _, name := range []string{
		"core.rounds_initiated", "core.ccs_sent",
		"totem.tokens_handled", "totem.delivered",
		"gcs.multicasts", "gcs.app_delivered",
		"repl.executed", "repl.replies_sent",
		"rpc.invocations", "rpc.replies",
	} {
		if m[name] == 0 {
			t.Errorf("metric %s is zero or missing", name)
		}
	}
	if m["rpc.replies"] != invocations {
		t.Errorf("rpc.replies = %d, want %d", m["rpc.replies"], invocations)
	}
}

// TestClusterObserveDisabledByDefault pins the nil fast path: a cluster
// without Observe has no recorder, so instrumentation stays off.
func TestClusterObserveDisabledByDefault(t *testing.T) {
	res, err := RunFigure5(1, 2)
	if err != nil {
		t.Fatalf("RunFigure5: %v", err)
	}
	if len(res.Metrics) != 0 {
		t.Fatalf("untraced run gathered %d metric samples, want 0", len(res.Metrics))
	}
}

// TestFigure5RetentionBounded runs the Figure 5 loop long enough that a layer
// keeping every ordered message would show it, and checks the retention
// gauges of every node at the end: the orderer holds only the ring's last few
// messages and two generations of duplicate keys, and no executor holds a
// request it has already run. (Under -orderer=seq there is no totem gauge;
// the replication log is checked for both orderers.)
func TestFigure5RetentionBounded(t *testing.T) {
	const (
		invocations = 5000
		maxRetained = 64 // a few token rotations' worth, not a function of invocations
		// Two key generations. On the 4-member Figure 5 ring a generation is
		// Totem's floor of 4096 keys (4 rotations × 16 per visit × 4 members
		// is below it), however many reads have run.
		maxDupKeys = 2 * 4096
	)
	res, err := RunFigure5Traced(1, invocations, nil)
	if err != nil {
		t.Fatalf("RunFigure5Traced: %v", err)
	}
	var logGauges, totemGauges, keyGauges int
	for _, s := range res.Metrics {
		switch s.Name {
		case "totem.retained_msgs":
			totemGauges++
			if s.Value > maxRetained {
				t.Errorf("node %d: totem.retained_msgs = %d after %d reads, want ≤ %d",
					s.Node, s.Value, invocations, maxRetained)
			}
		case "totem.dup_keys":
			keyGauges++
			if s.Value > maxDupKeys {
				t.Errorf("node %d: totem.dup_keys = %d after %d reads, want ≤ %d",
					s.Node, s.Value, invocations, maxDupKeys)
			}
		case "totem.discard_point":
			if s.Value < invocations {
				t.Errorf("node %d: totem.discard_point = %d after %d reads", s.Node, s.Value, invocations)
			}
		case "replication.log_entries":
			logGauges++
			if s.Value > 1 {
				t.Errorf("node %d: replication.log_entries = %d after %d reads, want ≤ 1",
					s.Node, s.Value, invocations)
			}
		}
	}
	if logGauges == 0 {
		t.Error("no replication.log_entries gauge gathered")
	}
	if DefaultOrderer == order.KindTotem && (totemGauges == 0 || keyGauges == 0) {
		t.Errorf("gathered %d totem.retained_msgs and %d totem.dup_keys gauges, want both", totemGauges, keyGauges)
	}
}
