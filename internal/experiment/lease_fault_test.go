package experiment

import (
	"testing"
	"time"

	"cts/internal/core"
	"cts/internal/faultinject"
	"cts/internal/invariant"
	"cts/internal/replication"
	"cts/internal/transport"
)

// This file exercises the lease plane under the paper's fault model on the
// simulated testbed: a synchronizer crash and a membership change, both
// landing mid-lease, must invalidate every outstanding lease (epoch bump),
// and across the reconfiguration no sampled timestamp may fall outside its
// staleness bound or regress the group clock.

// leaseRead samples one replica's lease between kernel steps through chk:
// each sample happened-before the next, so chk's floors apply exactly.
func leaseRead(c *Cluster, chk *invariant.Checker, id transport.NodeID) (core.LeaseReading, bool) {
	var pre invariant.Snapshot
	chk.Snap(&pre)
	r, ok := c.Nodes[id].LeaseRead()
	if ok {
		chk.Observe(&pre, invariant.Key{Group: uint32(ServerGroup), Node: uint32(id)}, r.GroupClock, r.Bound)
	}
	return r, ok
}

// counter reads one per-node registry counter between kernel steps.
func clusterCounter(c *Cluster, id transport.NodeID, name string) uint64 {
	var v uint64
	for _, s := range c.Obs.Samples() {
		if s.Node == uint32(id) && s.Name == name {
			v += s.Value
		}
	}
	return v
}

// leaseCluster builds an observed ModeCTS cluster with the lease plane
// enabled and refreshed on every replica.
func leaseCluster(t *testing.T, seed int64, style replication.Style, specs []ClockSpec) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Seed:    seed,
		Clocks:  specs,
		Style:   style,
		Mode:    ModeCTS,
		Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		if err := n.Core().EnableLease(core.LeaseConfig{Window: 30 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	c.K.RunFor(time.Millisecond)
	for _, n := range c.Nodes {
		n.RefreshLease()
	}
	held := func() bool {
		for _, n := range c.Nodes {
			if _, ok := n.LeaseRead(); !ok {
				return false
			}
		}
		return true
	}
	if !c.RunUntil(5*time.Second, held) {
		t.Fatal("replicas never established leases")
	}
	return c
}

// TestLeaseSynchronizerCrashInvalidates crashes the synchronizer mid-lease.
// Under passive replication the primary is the only replica sending CCS
// proposals, i.e. the synchronizer of every round; its fail-stop (scripted
// through the fault injector) forces both a synchronizer failover and a
// membership change. Survivors must drop their leases, re-arm under a
// higher epoch once the new synchronizer runs a round, and never serve a
// timestamp outside its bound or behind the pre-crash group clock.
func TestLeaseSynchronizerCrashInvalidates(t *testing.T) {
	specs := []ClockSpec{{Offset: 0}, {Offset: 3 * time.Second}, {Offset: 9 * time.Second}}
	c := leaseCluster(t, 31, replication.Passive, specs)
	var chk invariant.Checker

	before := make(map[transport.NodeID]core.LeaseReading)
	for _, id := range []transport.NodeID{1, 2, 3} {
		r, ok := leaseRead(c, &chk, id)
		if !ok {
			t.Fatalf("replica %v holds no lease before the crash", id)
		}
		before[id] = r
	}

	// Script the synchronizer's fail-stop just ahead of now, mid-lease.
	c.Inject.Apply(faultinject.Event{Kind: faultinject.Crash, At: c.K.Now() + 10*time.Millisecond, Nodes: []transport.NodeID{1}})
	survivors := []transport.NodeID{2, 3}
	if !c.RunUntil(10*time.Second, func() bool {
		for _, id := range survivors {
			if clusterCounter(c, id, "core.lease_invalidations") == 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("synchronizer crash never invalidated the survivors' leases")
	}
	for _, id := range survivors {
		if _, ok := c.Nodes[id].LeaseRead(); ok {
			t.Fatalf("replica %v still serving a lease from the crashed synchronizer's view", id)
		}
	}

	// Failover: the next primary refreshes and serving resumes under a new
	// epoch. RefreshLease is posted on every survivor; only the new primary
	// competes, the rest adopt its round.
	if !c.RunUntil(10*time.Second, func() bool {
		for _, id := range survivors {
			c.Nodes[id].RefreshLease()
		}
		for _, id := range survivors {
			if _, ok := c.Nodes[id].LeaseRead(); !ok {
				return false
			}
		}
		return true
	}) {
		t.Fatal("survivors never re-established leases after failover")
	}
	for _, id := range survivors {
		r, ok := leaseRead(c, &chk, id)
		if !ok {
			t.Fatalf("replica %v lost its lease again", id)
		}
		if r.Epoch <= before[id].Epoch {
			t.Fatalf("replica %v epoch %d not past pre-crash epoch %d",
				id, r.Epoch, before[id].Epoch)
		}
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseMembershipChangeInvalidates grows the group mid-lease: a
// recovering replica joins via state transfer, which installs a new view.
// Incumbents must invalidate, the newcomer must integrate without ever
// causing a group clock regression, and post-join leases carry a higher
// epoch.
func TestLeaseMembershipChangeInvalidates(t *testing.T) {
	specs := []ClockSpec{{Offset: 0}, {Offset: 2 * time.Second}}
	c := leaseCluster(t, 32, replication.Active, specs)
	var chk invariant.Checker

	incumbents := []transport.NodeID{1, 2}
	before := make(map[transport.NodeID]core.LeaseReading)
	for _, id := range incumbents {
		r, ok := leaseRead(c, &chk, id)
		if !ok {
			t.Fatalf("replica %v holds no lease before the join", id)
		}
		before[id] = r
	}

	// A new replica with a wildly wrong clock joins mid-lease.
	joined, err := c.AddRecoveringReplica(ClockSpec{Offset: 100 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	live := false
	if !c.RunUntil(10*time.Second, func() bool {
		c.K.Post(func() { live = c.Nodes[joined].Manager().Live() })
		c.K.RunFor(50 * time.Microsecond)
		return live
	}) {
		t.Fatal("joining replica never went live")
	}
	for _, id := range incumbents {
		if clusterCounter(c, id, "core.lease_invalidations") == 0 {
			t.Fatalf("replica %v saw no lease invalidation on the join view", id)
		}
	}

	// Refresh under the grown group: everyone serves again, epoch advanced,
	// and the newcomer's 100s-fast clock never leaks into the group clock.
	if err := c.Nodes[joined].Core().EnableLease(core.LeaseConfig{Window: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	c.K.RunFor(time.Millisecond)
	all := append(incumbents, joined)
	if !c.RunUntil(10*time.Second, func() bool {
		for _, id := range all {
			c.Nodes[id].RefreshLease()
		}
		for _, id := range all {
			if _, ok := c.Nodes[id].LeaseRead(); !ok {
				return false
			}
		}
		return true
	}) {
		t.Fatal("group never re-established leases after the join")
	}
	for _, id := range all {
		r, ok := leaseRead(c, &chk, id)
		if !ok {
			t.Fatalf("replica %v lost its lease again", id)
		}
		if pre, had := before[id]; had && r.Epoch <= pre.Epoch {
			t.Fatalf("replica %v epoch %d not past pre-join epoch %d", id, r.Epoch, pre.Epoch)
		}
		// Far below the newcomer's raw +100s clock: integration, not leakage.
		if r.GroupClock > before[1].GroupClock+30*time.Second {
			t.Fatalf("replica %v group clock %v jumped toward the newcomer's clock", id, r.GroupClock)
		}
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}
