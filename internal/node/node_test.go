package node_test

import (
	"fmt"
	"testing"
	"time"

	"cts"
	"cts/internal/core"
	"cts/internal/hwclock"
	"cts/internal/node"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/testutil"
	"cts/internal/transport"
)

// TestMain fails the package if a test leaves goroutines running: every
// node started here must be stopped, listeners included.
func TestMain(m *testing.M) { testutil.Main(m) }

func memberIDs(n int) []transport.NodeID {
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(10 + 3*i) // sorted, not contiguous
	}
	return ids
}

// TestRefreshDuty pins the policy both the facade and the campaigns run:
// never more than three proposers per tick, every rank on duty at least once
// per ⌈n/3⌉ consecutive ticks, and a view of at most three members is the
// identity (everyone, always), so 3-replica deployments never rotate.
func TestRefreshDuty(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			period := (n + core.RefreshProposers - 1) / core.RefreshProposers
			lastOn := make([]int, n) // tick each rank was last on duty, -1 = never
			for i := range lastOn {
				lastOn[i] = -1
			}
			for tick := 0; tick < 3*period+5; tick++ {
				on := 0
				for rank := 0; rank < n; rank++ {
					if core.RefreshDuty(rank, n, uint64(tick)) {
						on++
						lastOn[rank] = tick
					}
				}
				switch {
				case n <= core.RefreshProposers && on != n:
					t.Fatalf("tick %d: %d of %d members on duty, want all", tick, on, n)
				case n > core.RefreshProposers && on != core.RefreshProposers:
					t.Fatalf("tick %d: %d members on duty, want %d", tick, on, core.RefreshProposers)
				}
				if tick >= period-1 {
					for rank, last := range lastOn {
						if last <= tick-period {
							t.Fatalf("tick %d: rank %d last on duty at tick %d, want within %d ticks",
								tick, rank, last, period)
						}
					}
				}
			}
		})
	}

	// A node outside a large view (rank -1) has no duty; before any view
	// installs (n = 0) and in any view of at most three it proposes.
	if core.RefreshDuty(-1, 7, 0) {
		t.Error("non-member on duty in a 7-member view")
	}
	if !core.RefreshDuty(-1, 0, 5) || !core.RefreshDuty(-1, 3, 5) {
		t.Error("views of at most three members must put everyone on duty")
	}
}

// TestSevenNodeGroupRotatesDuty builds a 7-replica group over the simulator
// through the PUBLIC options only, exactly as an embedder would, and watches
// the refresh policy the campaigns gate at 1000 nodes run inside the facade:
// per tick at most three replicas propose, and over time every replica does.
func TestSevenNodeGroupRotatesDuty(t *testing.T) {
	const every = 10 * time.Millisecond
	k := sim.NewKernel(5)
	net := simnet.NewNetwork(k, nil)
	ring := memberIDs(7)
	rec, err := cts.NewRecorder(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var svcs []*cts.Service
	defer func() {
		for _, svc := range svcs {
			svc.Stop()
		}
		k.RunFor(5 * time.Millisecond)
	}()
	for i, id := range ring {
		svc, err := cts.New(
			cts.WithRuntime(k),
			cts.WithTransport(net.Endpoint(id)),
			cts.WithMembers(ring),
			cts.WithClock(hwclock.NewSim(k.Now, hwclock.WithOffset(time.Hour+time.Duration(i)*time.Second))),
			cts.WithObservability(rec),
			cts.WithTimeServe(cts.TimeServeConfig{
				Addr:         "127.0.0.1:0",
				LeaseWindow:  time.Minute,
				RefreshEvery: every,
			}),
		)
		if err != nil {
			t.Fatalf("cts.New(%v): %v", id, err)
		}
		if err := svc.Start(); err != nil {
			t.Fatalf("Start(%v): %v", id, err)
		}
		svcs = append(svcs, svc)
	}

	refreshes := func() map[uint32]uint64 {
		out := make(map[uint32]uint64)
		for _, s := range rec.Samples() {
			if s.Name == "core.lease_refreshes" {
				out[s.Node] = s.Value
			}
		}
		return out
	}
	total := func(m map[uint32]uint64) (sum uint64) {
		for _, v := range m {
			sum += v
		}
		return sum
	}

	// Let the ring and the group view settle (the first ticks, before a view
	// exists, put everyone on duty), then step tick by tick: the kernel stops
	// half a period after each tick instant.
	k.RunFor(10*every + every/2)
	for i, svc := range svcs {
		if _, ok := svc.LeaseRead(); !ok {
			t.Fatalf("replica %d holds no lease after settling", i)
		}
	}
	settled := refreshes()
	prev := total(settled)
	for tick := 0; tick < 30; tick++ {
		k.RunFor(every)
		now := total(refreshes())
		if d := now - prev; d > core.RefreshProposers {
			t.Fatalf("tick %d: %d refresh proposals, want at most %d", tick, d, core.RefreshProposers)
		}
		prev = now
	}
	got := refreshes()
	for _, id := range ring {
		if got[uint32(id)] == settled[uint32(id)] {
			t.Errorf("replica %v proposed no refresh round in 30 ticks: its lag estimate goes cold", id)
		}
	}
}

// TestLeaseOnlyNode runs the harness shape the campaigns use: lease plane and
// refresher up, LeaseRead answering, no UDP listener bound.
func TestLeaseOnlyNode(t *testing.T) {
	k := sim.NewKernel(9)
	net := simnet.NewNetwork(k, nil)
	ring := []transport.NodeID{1, 2, 3}
	var nodes []*node.Node
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
		k.RunFor(5 * time.Millisecond)
	}()
	for _, id := range ring {
		n, err := node.New(node.Config{
			Runtime:   k,
			Transport: net.Endpoint(id),
			Members:   ring,
			Clock:     hwclock.NewSim(k.Now, hwclock.WithOffset(time.Hour)),
			TimeServe: &node.TimeServeConfig{LeaseWindow: time.Minute, RefreshEvery: 5 * time.Millisecond},
			LeaseOnly: true,
		})
		if err != nil {
			t.Fatalf("node.New(%v): %v", id, err)
		}
		if err := n.Start(); err != nil {
			t.Fatalf("Start(%v): %v", id, err)
		}
		nodes = append(nodes, n)
	}
	k.RunFor(100 * time.Millisecond)
	for i, n := range nodes {
		if n.TimeServe() != nil || n.TimeServeAddr() != "" {
			t.Fatalf("node %d bound a listener (%q) despite LeaseOnly", i, n.TimeServeAddr())
		}
		r, ok := n.LeaseRead()
		if !ok || r.Bound <= 0 {
			t.Fatalf("node %d LeaseRead = %+v, %v; want a served lease", i, r, ok)
		}
	}
}
