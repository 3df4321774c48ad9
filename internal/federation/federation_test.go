package federation

import (
	"strings"
	"testing"
	"time"

	"cts/internal/core"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/replication"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

// nopApp: federation tests drive the lease plane directly.
type nopApp struct{}

func (nopApp) Invoke(*replication.Ctx, string, []byte) []byte { return nil }
func (nopApp) Snapshot() []byte                               { return nil }
func (nopApp) Restore([]byte)                                 {}

type fedNode struct {
	id    transport.NodeID
	stack *gcs.Stack
	mgr   *replication.Manager
	svc   *core.TimeService
	agent *Agent
}

type fedGroup struct {
	id    wire.GroupID
	nodes []*fedNode
}

// fedHarness runs several CCS groups on one kernel: each group has its own
// intra-group simnet fabric; groups touch only through the SimFabric
// exchange plane. Node ids are disjoint across groups (group g uses
// 100g+1..100g+n) so the shared obs registry never conflates counters.
type fedHarness struct {
	t      *testing.T
	k      *sim.Kernel
	fabric *SimFabric
	rec    *obs.Recorder
	groups []*fedGroup
	tune   fedTuning
}

type fedTuning struct {
	exchangeEvery time.Duration
	maxStep       time.Duration
	precision     time.Duration
	initialSlack  time.Duration
	transit       time.Duration
	// groupOffset is each group's member clock offset; groupDrift the
	// members' drift ppm.
	groupOffset []time.Duration
	groupDrift  []float64
	// line topology: group i federates with i-1 and i+1.
}

func defaultTuning(groups int) fedTuning {
	return fedTuning{
		exchangeEvery: 50 * time.Millisecond,
		maxStep:       time.Millisecond,
		precision:     time.Millisecond,
		initialSlack:  20 * time.Millisecond,
		transit:       200 * time.Microsecond,
		groupOffset:   make([]time.Duration, groups),
		groupDrift:    make([]float64, groups),
	}
}

func newFedHarness(t *testing.T, seed int64, groups, nodesPer int, tune fedTuning) *fedHarness {
	t.Helper()
	k := sim.NewKernel(seed)
	rec, err := obs.New(obs.Config{Now: k.Now})
	if err != nil {
		t.Fatal(err)
	}
	h := &fedHarness{t: t, k: k, fabric: NewSimFabric(k, tune.transit), rec: rec, tune: tune}

	gid := func(i int) wire.GroupID { return wire.GroupID(i + 1) }
	for gi := 0; gi < groups; gi++ {
		g := &fedGroup{id: gid(gi)}
		net := simnet.NewNetwork(k, nil)
		base := transport.NodeID(100 * (gi + 1))
		members := make([]transport.NodeID, nodesPer)
		for i := range members {
			members[i] = base + transport.NodeID(i+1)
		}
		var neighbors []wire.GroupID
		if gi > 0 {
			neighbors = append(neighbors, gid(gi-1))
		}
		if gi < groups-1 {
			neighbors = append(neighbors, gid(gi+1))
		}
		for _, id := range members {
			stack, err := gcs.New(gcs.Config{
				Runtime:   k,
				Transport: net.Endpoint(id),
				Members:   members,
				Bootstrap: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			clock := hwclock.NewSim(k.Now,
				hwclock.WithOffset(tune.groupOffset[gi]),
				hwclock.WithDriftPPM(tune.groupDrift[gi]))
			mgr, err := replication.New(replication.Config{
				Runtime: k,
				Stack:   stack,
				Group:   g.id,
				Style:   replication.Active,
				App:     nopApp{},
				Obs:     rec.ForNode(uint32(id)),
			})
			if err != nil {
				t.Fatal(err)
			}
			svc, err := core.New(core.Config{Manager: mgr, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.EnableLease(core.LeaseConfig{Window: time.Minute}); err != nil {
				t.Fatal(err)
			}
			if err := mgr.Start(); err != nil {
				t.Fatal(err)
			}
			agent, err := New(Config{
				Runtime:       k,
				Service:       svc,
				Manager:       mgr,
				Clock:         clock,
				Link:          h.fabric.Link(g.id),
				Group:         g.id,
				Neighbors:     neighbors,
				ExchangeEvery: tune.exchangeEvery,
				MaxStep:       tune.maxStep,
				Precision:     tune.precision,
				InitialSlack:  tune.initialSlack,
				Obs:           rec.ForNode(uint32(id)),
			})
			if err != nil {
				t.Fatal(err)
			}
			h.fabric.Register(g.id, agent)
			agent.Start()
			g.nodes = append(g.nodes, &fedNode{id: id, stack: stack, mgr: mgr, svc: svc, agent: agent})
		}
		h.groups = append(h.groups, g)
	}
	for _, g := range h.groups {
		for _, n := range g.nodes {
			n.stack.Start()
		}
	}
	k.RunFor(5 * time.Millisecond)
	t.Cleanup(func() {
		h.k.RunFor(5 * time.Millisecond)
		for _, g := range h.groups {
			for _, n := range g.nodes {
				n.stack.Stop()
				n.mgr.Stop()
			}
		}
		h.k.RunFor(5 * time.Millisecond)
	})
	return h
}

// step drives one exchange interval: a refresh round per group (rotating
// proposer), then every agent's exchange tick, then the rest of the interval.
func (h *fedHarness) step(i int) {
	for _, g := range h.groups {
		g.nodes[i%len(g.nodes)].svc.RefreshLease()
	}
	h.k.RunFor(5 * time.Millisecond)
	for _, g := range h.groups {
		for _, n := range g.nodes {
			n.agent.ExchangeTick()
		}
	}
	rest := h.tune.exchangeEvery - 5*time.Millisecond
	if rest > 0 {
		h.k.RunFor(rest)
	}
}

// checkSeams asserts inter-group interval consistency at this instant: for
// every federated edge the two groups' served intervals must overlap — a
// client migrating across the seam sees no staleness violation. Returns the
// worst neighbor skew observed.
func (h *fedHarness) checkSeams() time.Duration {
	h.t.Helper()
	var worst time.Duration
	for gi := 1; gi < len(h.groups); gi++ {
		a, aok := h.groups[gi-1].nodes[0].svc.LeaseRead()
		b, bok := h.groups[gi].nodes[0].svc.LeaseRead()
		if !aok || !bok {
			continue
		}
		skew := a.GroupClock - b.GroupClock
		if skew < 0 {
			skew = -skew
		}
		if skew > worst {
			worst = skew
		}
		if a.GroupClock-a.Bound > b.GroupClock+b.Bound {
			h.t.Fatalf("seam %d-%d: group %d serves floor %v above group %d ceiling %v",
				gi-1, gi, gi-1, a.GroupClock-a.Bound, gi, b.GroupClock+b.Bound)
		}
		if b.GroupClock-b.Bound > a.GroupClock+a.Bound {
			h.t.Fatalf("seam %d-%d: group %d serves floor %v above group %d ceiling %v",
				gi-1, gi, gi, b.GroupClock-b.Bound, gi-1, a.GroupClock+a.Bound)
		}
	}
	return worst
}

// counter sums one metric name across the given node's sources.
func (h *fedHarness) counter(id transport.NodeID, name string) uint64 {
	var v uint64
	for _, s := range h.rec.Samples() {
		if s.Node == uint32(id) && s.Name == name {
			v += s.Value
		}
	}
	return v
}

// groupCounter sums a metric across one group's members.
func (h *fedHarness) groupCounter(g *fedGroup, name string) uint64 {
	var v uint64
	for _, n := range g.nodes {
		v += h.counter(n.id, name)
	}
	return v
}

func TestAgentConfigValidate(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := (Config{}).Validate(); err == nil {
		t.Fatal("empty config accepted")
	}
	// A structurally complete config gets defaults.
	net := simnet.NewNetwork(k, nil)
	stack, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(1),
		Members: []transport.NodeID{1}, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := replication.New(replication.Config{Runtime: k, Stack: stack,
		Group: 1, Style: replication.Active, App: nopApp{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		mgr.Stop()
		k.RunFor(5 * time.Millisecond)
	})
	clock := hwclock.NewSim(k.Now)
	svc, err := core.New(core.Config{Manager: mgr, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// A topology file without tuning keys hands the agent zero tuning, the
	// way ctsnode maps it, and the agent runs at the documented defaults.
	topo, err := ParseTopology([]byte(`{"groups": [{"name": "a", "id": 1, "peers": ["1=127.0.0.1:9001"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Runtime: k, Service: svc, Manager: mgr, Clock: clock,
		Link: NewSimFabric(k, 0).Link(1), Group: 1,
		ExchangeEvery: topo.ExchangeEvery, MaxStep: topo.MaxStep,
		Precision: topo.Precision, InitialSlack: topo.InitialSlack}
	got, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if got.ExchangeEvery != 50*time.Millisecond || got.MaxStep != 500*time.Microsecond ||
		got.Precision != time.Millisecond || got.InitialSlack != 10*time.Millisecond {
		t.Fatalf("defaults not applied: %+v", got)
	}
	// The derived aging covers the neighbors' nudge rate (500µs per 50ms =
	// 10000 ppm) plus 200 ppm of drift.
	if got.agingPPM != 10_200 {
		t.Fatalf("agingPPM = %v, want 10200", got.agingPPM)
	}
	cfg.MaxStep = -1
	if _, err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "MaxStep") {
		t.Fatalf("negative MaxStep: err = %v", err)
	}
	cfg.MaxStep = 0
	cfg.Neighbors = []wire.GroupID{1}
	if _, err := cfg.Validate(); err == nil {
		t.Fatal("self-neighbor accepted")
	}
}

// TestTwoGroupsConverge: two groups start 5ms apart; the lagging group walks
// forward in bounded MaxStep nudges until the seam skew falls under the
// merge rule's residual (neighbor bound + precision + one interval of
// advance), and inter-group interval consistency holds at every exchange.
func TestTwoGroupsConverge(t *testing.T) {
	tune := defaultTuning(2)
	tune.groupOffset[1] = 5 * time.Millisecond
	h := newFedHarness(t, 41, 2, 3, tune)

	var last time.Duration
	for i := 0; i < 40; i++ {
		h.step(i)
		last = h.checkSeams()
	}
	// Residual: bound (~sub-ms) + precision 1ms + up to one exchange interval
	// of nudge-rate advance (1ms). 3ms gives deterministic headroom.
	if last > 3*time.Millisecond {
		t.Fatalf("seam skew %v after 40 exchanges, want under 3ms", last)
	}
	if n := h.groupCounter(h.groups[0], "fed.nudges"); n == 0 {
		t.Fatal("lagging group never nudged forward")
	}
	for _, g := range h.groups {
		for _, n := range g.nodes {
			if f := h.counter(n.id, "core.monotonicity_fixes"); f != 0 {
				t.Fatalf("node %v needed %d monotonicity fixes", n.id, f)
			}
		}
	}
	// Convergence is by max: the ahead group must not have been dragged back.
	if n := h.groupCounter(h.groups[1], "fed.nudges"); n != 0 {
		t.Fatalf("ahead group nudged %d times; forward-only merge must leave it alone", n)
	}
}

// TestUnheardNeighborCoveredByInitialSlack: with the exchange link down from
// birth, groups 5ms apart stay mutually consistent because every bound
// carries the aged InitialSlack for the neighbor nobody has heard from.
func TestUnheardNeighborCoveredByInitialSlack(t *testing.T) {
	tune := defaultTuning(2)
	tune.groupOffset[1] = 5 * time.Millisecond
	h := newFedHarness(t, 42, 2, 2, tune)
	h.fabric.SetDown(1, 2, true)

	for i := 0; i < 20; i++ {
		h.step(i)
		h.checkSeams() // fails the test on any seam violation
	}
	if h.fabric.Delivered != 0 {
		t.Fatalf("severed fabric delivered %d frames", h.fabric.Delivered)
	}
	r, ok := h.groups[0].nodes[0].svc.LeaseRead()
	if !ok {
		t.Fatal("no lease")
	}
	if r.Bound < tune.initialSlack {
		t.Fatalf("bound %v under InitialSlack %v with the link dead from birth", r.Bound, tune.initialSlack)
	}
}

// TestPartitionGrowsBoundsAndHealReconverges: sever the seam mid-run while
// the ahead group drifts further ahead; bounds must grow honestly (no seam
// violation at any sample), and after heal the skew reconverges within a
// bounded number of exchanges.
func TestPartitionGrowsBoundsAndHealReconverges(t *testing.T) {
	tune := defaultTuning(2)
	tune.groupOffset[1] = 2 * time.Millisecond
	tune.groupDrift[1] = 300 // group 2 pulls ahead during the partition
	h := newFedHarness(t, 43, 2, 3, tune)

	for i := 0; i < 20; i++ {
		h.step(i)
		h.checkSeams()
	}
	preBound, ok := h.groups[0].nodes[0].svc.LeaseRead()
	if !ok {
		t.Fatal("no lease before partition")
	}

	h.fabric.SetDown(1, 2, true)
	for i := 20; i < 60; i++ {
		h.step(i)
		h.checkSeams() // honesty under partition: aged slack covers the drift
	}
	midBound, ok := h.groups[0].nodes[0].svc.LeaseRead()
	if !ok {
		t.Fatal("no lease during partition")
	}
	if midBound.Bound <= preBound.Bound {
		t.Fatalf("bound did not grow across a 2s partition: %v -> %v", preBound.Bound, midBound.Bound)
	}

	h.fabric.SetDown(1, 2, false)
	var last time.Duration
	for i := 60; i < 100; i++ {
		h.step(i)
		last = h.checkSeams()
	}
	if last > 3*time.Millisecond {
		t.Fatalf("seam skew %v after heal, want reconverged under 3ms", last)
	}
	postBound, ok := h.groups[0].nodes[0].svc.LeaseRead()
	if !ok {
		t.Fatal("no lease after heal")
	}
	if postBound.Bound >= midBound.Bound {
		t.Fatalf("bound did not re-tighten after heal: %v -> %v", midBound.Bound, postBound.Bound)
	}
}

// TestThreeGroupLineConverges: a line of three groups with the middle one
// ahead; both ends converge toward it and every seam stays consistent.
func TestThreeGroupLineConverges(t *testing.T) {
	tune := defaultTuning(3)
	tune.groupOffset[1] = 4 * time.Millisecond
	h := newFedHarness(t, 44, 3, 2, tune)

	var last time.Duration
	for i := 0; i < 40; i++ {
		h.step(i)
		last = h.checkSeams()
	}
	if last > 3*time.Millisecond {
		t.Fatalf("worst seam skew %v after 40 exchanges, want under 3ms", last)
	}
}

// TestDutyRotates: summary duty follows the view rotation, so over enough
// ticks more than one member of a group sends summaries.
func TestDutyRotates(t *testing.T) {
	tune := defaultTuning(2)
	h := newFedHarness(t, 45, 2, 3, tune)
	for i := 0; i < 12; i++ {
		h.step(i)
	}
	senders := 0
	for _, n := range h.groups[0].nodes {
		if h.counter(n.id, "fed.summaries_sent") > 0 {
			senders++
		}
	}
	if senders < 2 {
		t.Fatalf("%d members ever sent summaries, want rotation across at least 2", senders)
	}
}

// TestReplayAndForgeryRejected: a replayed frame and a frame signed with the
// wrong key are both dropped and counted.
func TestReplayAndForgeryRejected(t *testing.T) {
	tune := defaultTuning(2)
	h := newFedHarness(t, 46, 2, 2, tune)
	target := h.groups[0].nodes[0]

	frame := wire.MarshalGroupSummary(wire.GroupSummary{
		Group: 2, Sender: 201, Epoch: 1, Seq: 9,
		GroupClock: time.Second, Bound: time.Millisecond,
	}, []byte("cts-federation"))
	target.agent.Deliver(frame)
	target.agent.Deliver(frame) // replay: same (group, sender, seq)
	forged := wire.MarshalGroupSummary(wire.GroupSummary{
		Group: 2, Sender: 201, Epoch: 1, Seq: 10,
		GroupClock: time.Second, Bound: time.Millisecond,
	}, []byte("wrong-key"))
	target.agent.Deliver(forged)
	stranger := wire.MarshalGroupSummary(wire.GroupSummary{
		Group: 77, Sender: 1, Epoch: 1, Seq: 1,
		GroupClock: time.Second, Bound: time.Millisecond,
	}, []byte("cts-federation"))
	target.agent.Deliver(stranger) // authentic but not a configured neighbor
	h.k.RunFor(time.Millisecond)

	if got := h.counter(target.id, "fed.summaries_recv"); got != 1 {
		t.Fatalf("accepted %d summaries, want exactly the first", got)
	}
	if got := h.counter(target.id, "fed.rejected"); got != 3 {
		t.Fatalf("rejected %d frames, want 3 (replay, forgery, stranger)", got)
	}
}
