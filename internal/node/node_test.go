package node_test

import (
	"fmt"
	"testing"
	"time"

	"cts"
	"cts/internal/core"
	"cts/internal/hwclock"
	"cts/internal/node"
	"cts/internal/replication"
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

// leaseGroup is a 3-replica LeaseOnly group over simnet with the default
// lease window (1 s) and the given RefreshEvery. views[i] records every
// primary view replica i was live in.
type leaseGroup struct {
	k     *sim.Kernel
	net   *simnet.Network
	ring  []transport.NodeID
	nodes []*node.Node
	views [][]liveView
}

// liveView is one primary view a replica was live in: when, and how large.
type liveView struct {
	at   time.Duration
	size int
}

func newLeaseGroup(t *testing.T, seed int64, refreshEvery time.Duration) *leaseGroup {
	t.Helper()
	g := &leaseGroup{k: sim.NewKernel(seed), ring: []transport.NodeID{1, 2, 3}}
	g.net = simnet.NewNetwork(g.k, nil)
	g.views = make([][]liveView, len(g.ring))
	t.Cleanup(func() {
		for _, n := range g.nodes {
			n.Stop()
		}
		g.k.RunFor(5 * time.Millisecond)
	})
	for i, id := range g.ring {
		n, err := node.New(node.Config{
			Runtime:   g.k,
			Transport: g.net.Endpoint(id),
			Members:   g.ring,
			Clock:     hwclock.NewSim(g.k.Now, hwclock.WithOffset(time.Hour)),
			TimeServe: &node.TimeServeConfig{RefreshEvery: refreshEvery},
			LeaseOnly: true,
			OnStatus: func(st replication.Status) {
				if st.Live && st.InPrimary {
					g.views[i] = append(g.views[i], liveView{g.k.Now(), len(st.Members)})
				}
			},
		})
		if err != nil {
			t.Fatalf("node.New(%v): %v", id, err)
		}
		g.nodes = append(g.nodes, n)
	}
	for i, n := range g.nodes {
		if err := n.Start(); err != nil {
			t.Fatalf("Start(%v): %v", g.ring[i], err)
		}
	}
	return g
}

// counter reads one of replica i's core counters. Loop-only: call between
// kernel steps.
func (g *leaseGroup) counter(i int, name string) uint64 {
	for _, s := range g.nodes[i].Core().ObsSamples() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestReleaseOnViewInstall pins the refresher's second trigger. A view
// install invalidates every lease; with the default refresh period (250 ms)
// a replica that waited for its next tick would refuse reads for up to a
// quarter second after Start and after every membership change. Instead it
// proposes a refresh round as soon as it is live in a primary view, so it
// serves again one CCS round later.
func TestReleaseOnViewInstall(t *testing.T) {
	const within = 10 * time.Millisecond
	g := newLeaseGroup(t, 11, 0)
	g.k.RunFor(within)
	epochs := make([]uint64, len(g.nodes))
	for i, n := range g.nodes {
		r, ok := n.LeaseRead()
		if !ok {
			t.Fatalf("replica %d serves no lease %v after Start (views at %v)", i, within, g.views[i])
		}
		epochs[i] = r.Epoch
	}

	// Crash replica 3: the survivors install a 2-member primary view and
	// must serve under a new epoch within 10 ms of that install.
	crashed := len(g.nodes) - 1
	installs := make([]int, crashed)
	for i := range installs {
		installs[i] = len(g.views[i])
	}
	g.net.Endpoint(g.ring[crashed]).SetDown(true)
	g.nodes[crashed].Stop()
	survivors := g.nodes[:crashed]
	deadline := g.k.Now() + 2*time.Second
	var viewAt time.Duration
	for viewAt == 0 {
		if g.k.Now() > deadline {
			t.Fatal("survivors installed no 2-member primary view within 2s of the crash")
		}
		g.k.RunFor(100 * time.Microsecond)
		for i := range survivors {
			if v := g.views[i]; len(v) > installs[i] && v[len(v)-1].size == 2 {
				viewAt = max(viewAt, v[len(v)-1].at)
			} else {
				viewAt = 0
				break
			}
		}
	}
	g.k.RunFor(viewAt + within - g.k.Now())
	for i, n := range survivors {
		r, ok := n.LeaseRead()
		if !ok {
			t.Fatalf("replica %d serves no lease %v after the 2-member view installed at %v", i, within, viewAt)
		}
		if r.Epoch <= epochs[i] {
			t.Fatalf("replica %d serves epoch %d after the view change, want above %d", i, r.Epoch, epochs[i])
		}
		// The lease-gap gauge saw the same from inside core: no view left the
		// replica without a lease for 10 ms, let alone a refresh period.
		gaps, longest := g.counter(i, "core.lease_gaps"), g.counter(i, "core.lease_gap_max_us")
		if gaps == 0 || time.Duration(longest)*time.Microsecond >= within {
			t.Fatalf("replica %d: %d lease gaps, longest %dµs; want at least one, all under %v", i, gaps, longest, within)
		}
	}
}

// TestNoReleaseWithoutRefresher: a node whose caller drives refresh
// (RefreshEvery < 0) proposes nothing of its own, at view install included.
func TestNoReleaseWithoutRefresher(t *testing.T) {
	g := newLeaseGroup(t, 11, -1)
	g.k.RunFor(50 * time.Millisecond)
	for i, n := range g.nodes {
		if len(g.views[i]) == 0 {
			t.Fatalf("replica %d installed no primary view", i)
		}
		if got := g.counter(i, "core.lease_refreshes"); got != 0 {
			t.Fatalf("replica %d proposed %d refresh rounds with RefreshEvery < 0", i, got)
		}
		if _, ok := n.LeaseRead(); ok {
			t.Fatalf("replica %d serves a lease nobody refreshed", i)
		}
	}
}
