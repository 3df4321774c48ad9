package experiment

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"cts/internal/replication"
	"cts/internal/rpc"
	"cts/internal/transport"
)

// TestChurnStress drives continuous clock reads through a five-replica
// active group while the fault injector repeatedly crashes and revives
// replicas and partitions and heals the network. Throughout, the paper's
// guarantees must hold at the clients and survivors:
//
//   - every returned group clock value is monotonically non-decreasing;
//   - replicas that completed the same round recorded the same value (the
//     cluster's round oracle);
//   - the service makes progress whenever a primary component exists.
//
// It runs each seed of -churn-seeds as a subtest; the committed seed is 99,
// and `make churn-sweep` runs seeds 80-139.
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
	// A sweep reads the oracle's first witness next to whichever check
	// failed first.
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if err := c.Agreement(); err != nil {
			t.Logf("seed %d: %v", seed, err)
		} else {
			t.Logf("seed %d: round oracle clean", seed)
		}
	})

	// Schedule the churn: every ~600ms one fault event. Replica 1 is left
	// alone so at least one replica holds the full history, and at most one
	// replica is down at a time so a quorum (3 of 6 nodes incl. client ≥
	// majority of ring) usually exists.
	rng := rand.New(rand.NewSource(seed))
	down := transport.NodeID(0)
	at := 500 * time.Millisecond
	revive := func(id transport.NodeID) {
		c.Inject.ReviveAt(at, id, nil)
		// The revived processor rejoins the ring automatically (its stack
		// was only isolated, not stopped: we use partitions for crashes so
		// protocol state survives — a full restart is exercised by the
		// recovery tests).
	}
	for at < duration-time.Second {
		switch rng.Intn(3) {
		case 0: // isolate a random replica (not node 1), later reconnect
			id := transport.NodeID(2 + rng.Intn(replicas-1))
			if down == 0 {
				down = id
				cur := at
				c.K.At(cur, func() { c.Net.Endpoint(id).SetDown(true) })
				at += 400 * time.Millisecond
				revive(id)
				down = 0
			}
		case 1: // partition client+majority vs the rest, then heal
			cur := at
			c.Inject.PartitionAt(cur, []transport.NodeID{0, 1, 2, 3},
				[]transport.NodeID{4, 5})
			at += 300 * time.Millisecond
			c.Inject.HealAt(at)
		case 2: // loss window
			c.Inject.LossWindow(at, at+200*time.Millisecond, 0.1)
			at += 200 * time.Millisecond
		}
		at += 600 * time.Millisecond
	}

	// Continuous sequential reads with a short think time.
	var values []time.Duration
	errors := 0
	stop := false
	var invoke func()
	invoke = func() {
		if stop {
			return
		}
		c.Client.Invoke(MethodCurrentTime, nil, func(r rpc.Reply) {
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

	if len(values) < 50 {
		t.Fatalf("only %d successful reads under churn (errors=%d)", len(values), errors)
	}
	for i := 1; i < len(values); i++ {
		if values[i] < values[i-1] {
			t.Fatalf("group clock rolled back under churn at %d: %v -> %v",
				i, values[i-1], values[i])
		}
	}
	if err := c.Agreement(); err != nil {
		t.Fatal(err)
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
