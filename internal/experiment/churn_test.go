package experiment

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"cts/internal/faultinject"
	"cts/internal/replication"
	"cts/internal/rpc"
	"cts/internal/transport"
)

// TestChurnStress drives continuous clock reads through a five-replica
// active group while the fault injector repeatedly crashes and revives
// replicas and partitions and heals the network. Throughout, the paper's
// guarantees must hold at the clients and survivors, as the cluster's two
// oracles judge them:
//
//   - no read returns less than a read that returned before it was invoked
//     (the client oracle);
//   - replicas that completed the same round recorded the same value (the
//     round oracle);
//   - the service makes progress whenever a primary component exists.
//
// It runs each seed of -churn-seeds as a subtest; the committed seed is 99,
// and `make churn-sweep` runs seeds 80-139, printing each failing seed's
// first witness of each oracle.
func TestChurnStress(t *testing.T) {
	seeds, err := parseSeeds(*churnSeeds)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) { churnStress(t, seed) })
	}
}

func churnStress(t *testing.T, seed int64) {
	const (
		replicas = 5
		duration = 8 * time.Second // virtual
	)
	specs := make([]ClockSpec, replicas)
	for i := range specs {
		specs[i] = ClockSpec{
			Offset:   time.Duration(i*13) * time.Second,
			DriftPPM: float64(i*11%60) - 30,
		}
	}
	c, err := NewCluster(ClusterConfig{
		Seed:          seed,
		Clocks:        specs,
		Style:         replication.Active,
		Mode:          ModeCTS,
		Observe:       true,
		ClientTimeout: 2 * time.Second, // reads during total outage must not hang
	})
	if err != nil {
		t.Fatal(err)
	}
	// Draw the churn schedule: every ~600ms one fault event. Replica 1 is
	// left alone so at least one replica holds the full history, and at
	// most one replica is down at a time so a quorum (3 of 6 nodes incl.
	// client ≥ majority of ring) usually exists. A downed replica is
	// isolated at its endpoint, not stopped, so its protocol state
	// survives; a full restart is exercised by the recovery tests.
	rng := rand.New(rand.NewSource(seed))
	var events []faultinject.Event
	for at := 500 * time.Millisecond; at < duration-time.Second; at += 600 * time.Millisecond {
		var e faultinject.Event
		switch rng.Intn(3) {
		case 0: // isolate a random replica (not node 1), later reconnect
			e = faultinject.Event{Kind: faultinject.Isolate, For: 400 * time.Millisecond,
				Nodes: []transport.NodeID{transport.NodeID(2 + rng.Intn(replicas-1))}}
		case 1: // partition client+majority vs the rest, then heal
			e = faultinject.Event{Kind: faultinject.Partition, For: 300 * time.Millisecond,
				Nodes: []transport.NodeID{4, 5}, Peers: []transport.NodeID{0, 1, 2, 3}}
		case 2: // loss window
			e = faultinject.Event{Kind: faultinject.Loss, For: 200 * time.Millisecond, Loss: 0.1}
		}
		e.At = at
		events = append(events, e)
		at += e.For
	}
	c.Inject.Apply(events...)
	// A failing seed names its schedule on one line.
	defer func() {
		if t.Failed() {
			t.Logf("schedule: %v", events)
		}
	}()

	// Continuous sequential reads with a short think time.
	var values []time.Duration
	errors := 0
	stop := false
	var invoke func()
	invoke = func() {
		if stop {
			return
		}
		c.invoke(MethodCurrentTime, nil, func(r rpc.Reply) {
			if r.Err != nil {
				errors++
			} else if v, err := DecodeTimeval(r.Body); err == nil {
				values = append(values, v)
			}
			c.K.After(20*time.Millisecond, invoke)
		})
	}
	invoke()
	c.K.RunUntil(duration)
	stop = true
	c.K.RunFor(100 * time.Millisecond)

	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(values) < 50 {
		t.Fatalf("only %d successful reads under churn (errors=%d)", len(values), errors)
	}
	// No defensive monotonicity clamps were needed anywhere.
	c.K.Post(func() {
		for _, s := range c.Obs.Samples() {
			if s.Name == "core.monotonicity_fixes" && s.Value != 0 {
				t.Errorf("replica %d needed %d monotonicity fixes", s.Node, s.Value)
			}
		}
	})
	c.K.RunFor(time.Millisecond)
	t.Logf("churn survived: %d reads, %d timeouts, final clock %v",
		len(values), errors, values[len(values)-1])
}

// parseSeeds reads a -churn-seeds list: comma-separated seeds or lo-hi
// ranges, e.g. "99" or "80-139,200".
func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(f, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		b := a
		if err == nil && isRange {
			b, err = strconv.ParseInt(hi, 10, 64)
		}
		if err != nil || b < a {
			return nil, fmt.Errorf("-churn-seeds: bad seed or range %q", f)
		}
		for v := a; v <= b; v++ {
			seeds = append(seeds, v)
		}
	}
	return seeds, nil
}
