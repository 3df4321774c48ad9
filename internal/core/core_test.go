package core

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/invariant"
	"cts/internal/obs"
	"cts/internal/replication"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

const (
	serverGroup wire.GroupID = 100
	clientGroup wire.GroupID = 900
)

// clockApp performs clock reads through the consistent time service. Each
// "read" invocation does one Sleep followed by one Gettimeofday and records
// the value. "set-timer" arms a group-time timer the body's duration ahead
// of a reading and records the group clock it fires at; "set-cancelled-timer"
// arms one an hour ahead and cancels it.
type clockApp struct {
	svc      *TimeService
	delay    time.Duration
	readings []time.Duration
	firedAt  []time.Duration
}

func (a *clockApp) Invoke(ctx *replication.Ctx, method string, body []byte) []byte {
	switch method {
	case "read":
		if a.delay > 0 {
			ctx.Sleep(a.delay)
		}
		v := a.svc.Gettimeofday(ctx)
		a.readings = append(a.readings, v)
		out := make([]byte, 8)
		binary.BigEndian.PutUint64(out, uint64(v))
		return out
	case "read-ops":
		// One read per op type, to check granularities.
		g := a.svc.Clock(ctx)
		vals := []time.Duration{g.Gettimeofday(), g.Ftime(), g.Time()}
		out := make([]byte, 24)
		for i, v := range vals {
			binary.BigEndian.PutUint64(out[i*8:], uint64(v))
			a.readings = append(a.readings, v)
		}
		return out
	case "set-timer":
		now := a.svc.Gettimeofday(ctx)
		ahead := time.Duration(binary.BigEndian.Uint64(body))
		ctx.Call(func(complete func(any)) {
			a.svc.AtGroupTime(now+ahead, func(g time.Duration) { a.firedAt = append(a.firedAt, g) })
			complete(nil)
		})
	case "set-cancelled-timer":
		now := a.svc.Gettimeofday(ctx)
		ctx.Call(func(complete func(any)) {
			t := a.svc.AtGroupTime(now+time.Hour, func(time.Duration) { a.firedAt = append(a.firedAt, -1) })
			if !t.Cancel() {
				panic("cancel of pending timer failed")
			}
			if t.Cancel() {
				panic("second cancel succeeded")
			}
			complete(nil)
		})
	}
	return nil
}

func (a *clockApp) Snapshot() []byte {
	out := make([]byte, 8*len(a.readings))
	for i, v := range a.readings {
		binary.BigEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func (a *clockApp) Restore(state []byte) {
	a.readings = nil
	for off := 0; off+8 <= len(state); off += 8 {
		a.readings = append(a.readings, time.Duration(binary.BigEndian.Uint64(state[off:])))
	}
}

// coreHarness is a simulated deployment for core's tests: replica groups on
// one kernel and one ring, each replica's round reports through the round
// oracle, and each "read" a client invokes through h.read, which holds its
// reply to the client oracle of the client's server group. The cleanup fails
// the test at either oracle's first witness, or the lease Checker's.
type coreHarness struct {
	t       *testing.T
	k       *sim.Kernel
	net     *simnet.Network
	rec     *obs.Recorder
	stacks  map[transport.NodeID]*gcs.Stack
	mgrs    map[transport.NodeID]*replication.Manager
	apps    map[transport.NodeID]*clockApp
	svcs    map[transport.NodeID]*TimeService
	reports map[transport.NodeID][]RoundReport
	rounds  invariant.Rounds
	clients map[wire.GroupID]*invariant.Checker // per server group
	served  map[*rpc.Client]wire.GroupID        // each client's server group
	leases  invariant.Checker                   // what leaseRead samples
}

func newCoreHarness(t *testing.T, seed int64) *coreHarness {
	t.Helper()
	k := sim.NewKernel(seed)
	rec, err := obs.New(obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := &coreHarness{
		t:       t,
		k:       k,
		net:     simnet.NewNetwork(k, nil),
		rec:     rec,
		stacks:  make(map[transport.NodeID]*gcs.Stack),
		mgrs:    make(map[transport.NodeID]*replication.Manager),
		apps:    make(map[transport.NodeID]*clockApp),
		svcs:    make(map[transport.NodeID]*TimeService),
		reports: make(map[transport.NodeID][]RoundReport),
		clients: make(map[wire.GroupID]*invariant.Checker),
		served:  make(map[*rpc.Client]wire.GroupID),
	}
	t.Cleanup(func() {
		// Drain in-flight invocations so every manager is idle, then retire
		// the logical-thread goroutines; TestMain's leak check fails the
		// package if any survive.
		h.k.RunFor(5 * time.Millisecond)
		for _, s := range h.stacks {
			s.Stop()
		}
		for _, m := range h.mgrs {
			m.Stop()
		}
		h.k.RunFor(5 * time.Millisecond)
		if err := h.rounds.Err(); err != nil {
			t.Error(err)
		}
		for g, chk := range h.clients {
			if err := chk.Err(); err != nil {
				t.Errorf("server group %d: %v", g, err)
			}
		}
		if err := h.leases.Err(); err != nil {
			t.Errorf("leases: %v", err)
		}
	})
	return h
}

// start starts every stack in id order, so that a seed fixes the order of
// the time-0 sends.
func (h *coreHarness) start() {
	ids := make([]transport.NodeID, 0, len(h.stacks))
	for id := range h.stacks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		h.stacks[id].Start()
	}
}

// counter reads one per-node counter from the obs registry, the only stats
// surface. It must run between kernel steps (sources gather on the loop,
// which the kernel runs on this goroutine).
func (h *coreHarness) counter(id transport.NodeID, name string) uint64 {
	var v uint64
	for _, s := range h.rec.Samples() {
		if s.Node == uint32(id) && s.Name == name {
			v += s.Value
		}
	}
	return v
}

func (h *coreHarness) addStack(id transport.NodeID, ring []transport.NodeID, bootstrap bool) {
	h.t.Helper()
	s, err := gcs.New(gcs.Config{
		Runtime:   h.k,
		Transport: h.net.Endpoint(id),
		Members:   ring,
		Bootstrap: bootstrap,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.stacks[id] = s
}

// addReplica creates manager + time service + clock app on node id with the
// given physical clock, in serverGroup.
func (h *coreHarness) addReplica(id transport.NodeID, style replication.Style,
	recovering bool, clock hwclock.Clock, opts ...func(*Config)) {
	h.t.Helper()
	h.addGroupReplica(id, serverGroup, style, recovering, clock, opts...)
}

// addGroupReplica is addReplica in replica group g.
func (h *coreHarness) addGroupReplica(id transport.NodeID, g wire.GroupID, style replication.Style,
	recovering bool, clock hwclock.Clock, opts ...func(*Config)) {
	h.t.Helper()
	app := &clockApp{delay: 50 * time.Microsecond}
	m, err := replication.New(replication.Config{
		Runtime:         h.k,
		Stack:           h.stacks[id],
		Group:           g,
		Style:           style,
		App:             app,
		Recovering:      recovering,
		CheckpointEvery: 4,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	cfg := Config{
		Manager: m,
		Clock:   clock,
		Obs:     h.rec.ForNode(uint32(id)),
		OnRound: func(r RoundReport) {
			h.reports[id] = append(h.reports[id], r)
			h.rounds.Report(invariant.RoundReport{Group: uint32(g), Node: uint32(id), Thread: r.ThreadID,
				Round: r.Round, Value: r.GroupClock, Winner: uint32(r.Winner), Physical: r.Physical})
		},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	app.svc = svc
	if err := m.Start(); err != nil {
		h.t.Fatal(err)
	}
	h.mgrs[id] = m
	h.apps[id] = app
	h.svcs[id] = svc
}

// newClient creates a client of serverGroup on node id.
func (h *coreHarness) newClient(id transport.NodeID) *rpc.Client {
	h.t.Helper()
	return h.groupClient(id, clientGroup, serverGroup)
}

// groupClient creates a client on node id that replies reach through group
// cg and that invokes group sg.
func (h *coreHarness) groupClient(id transport.NodeID, cg, sg wire.GroupID) *rpc.Client {
	h.t.Helper()
	c, err := rpc.NewClient(rpc.ClientConfig{
		Runtime:     h.k,
		Stack:       h.stacks[id],
		ClientGroup: cg,
		ServerGroup: sg,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	if h.clients[sg] == nil {
		h.clients[sg] = new(invariant.Checker)
	}
	h.served[c] = sg
	return c
}

// read invokes "read" from c, stamped with ts (0: unstamped), and calls done
// with the reading and the reply. The reply goes through the client oracle
// of c's server group: Snap before the invocation, Observe on the reply
// keyed by the replica that served it, with bound 0 (a CCS read is exact).
func (h *coreHarness) read(c *rpc.Client, ts time.Duration, done func(time.Duration, rpc.Reply)) {
	g := h.served[c]
	chk := h.clients[g]
	pre := new(invariant.Snapshot)
	chk.Snap(pre)
	c.InvokeStamped("read", nil, ts, func(r rpc.Reply) {
		var v time.Duration
		if r.Err == nil {
			v = time.Duration(binary.BigEndian.Uint64(r.Body))
			chk.Observe(pre, invariant.Key{Group: uint32(g), Node: r.Replica}, v, 0)
		}
		done(v, r)
	})
}

// leaseRead samples replica id's lease between kernel steps through the
// harness's lease Checker: each sample happened-before the next, so its
// floors apply exactly.
func (h *coreHarness) leaseRead(id transport.NodeID) (LeaseReading, bool) {
	var pre invariant.Snapshot
	h.leases.Snap(&pre)
	r, ok := h.svcs[id].LeaseRead()
	if ok {
		if r.Bound <= 0 {
			h.t.Fatalf("replica %v: non-positive bound %v", id, r.Bound)
		}
		h.leases.Observe(&pre, invariant.Key{Group: uint32(serverGroup), Node: uint32(id)}, r.GroupClock, r.Bound)
	}
	return r, ok
}

func (h *coreHarness) runUntil(max time.Duration, cond func() bool) bool {
	deadline := h.k.Now() + max
	for h.k.Now() < deadline {
		if cond() {
			return true
		}
		h.k.RunFor(200 * time.Microsecond)
	}
	return cond()
}

// simClock builds a physical clock over the kernel with offset/drift.
func (h *coreHarness) simClock(offset time.Duration, driftPPM float64) hwclock.Clock {
	return hwclock.NewSim(h.k.Now, hwclock.WithOffset(offset), hwclock.WithDriftPPM(driftPPM))
}

// standardSetup: client on node 0, three replicas on 1,2,3 with the given
// physical clock offsets (mirroring the paper's Figure 4: clocks disagree).
func standardSetup(t *testing.T, seed int64, style replication.Style) (*coreHarness, *rpc.Client) {
	h := newCoreHarness(t, seed)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	offsets := []time.Duration{0, 5 * time.Second, 15 * time.Second}
	for i, id := range ring[1:] {
		h.addReplica(id, style, false, h.simClock(offsets[i], 0))
	}
	client := h.newClient(0)
	h.start()
	h.k.RunFor(3 * time.Millisecond)
	return h, client
}

// driveReads performs n sequential reads through h.read and returns them.
func driveReads(t *testing.T, h *coreHarness, client *rpc.Client, n int) []time.Duration {
	t.Helper()
	var replies []time.Duration
	var invoke func()
	invoke = func() {
		h.read(client, 0, func(v time.Duration, r rpc.Reply) {
			if r.Err != nil {
				t.Errorf("invoke: %v", r.Err)
				return
			}
			replies = append(replies, v)
			if len(replies) < n {
				invoke()
			}
		})
	}
	invoke()
	if !h.runUntil(time.Duration(n)*50*time.Millisecond+5*time.Second,
		func() bool { return len(replies) >= n }) {
		t.Fatalf("completed %d/%d reads", len(replies), n)
	}
	return replies
}

// Despite physical clocks 0s/5s/15s apart, every replica completes every
// read, and the harness's round oracle finds each decided alike everywhere.
func TestActiveReplicasReturnIdenticalClockValues(t *testing.T) {
	h, client := standardSetup(t, 1, replication.Active)
	driveReads(t, h, client, 20)
	for _, id := range serverIDs {
		k := invariant.Key{Group: uint32(serverGroup), Node: uint32(id)}
		if n := len(h.apps[id].readings); n != 20 || h.rounds.Shared(k) < 20 {
			t.Fatalf("replica %v: %d readings, %d checked against another replica; want 20",
				id, n, h.rounds.Shared(k))
		}
	}
}

// The harness's client oracle holds every reply to the ones before it; the
// replicas got there without the defensive clamp.
func TestGroupClockMonotonicallyIncreasing(t *testing.T) {
	h, client := standardSetup(t, 2, replication.Active)
	driveReads(t, h, client, 30)
	for _, id := range []transport.NodeID{1, 2, 3} {
		if n := h.counter(id, "core.monotonicity_fixes"); n != 0 {
			t.Fatalf("replica %v needed %d defensive monotonicity fixes", id, n)
		}
	}
}

func TestOffsetAlgebra(t *testing.T) {
	h, client := standardSetup(t, 3, replication.Active)
	driveReads(t, h, client, 10)
	for _, id := range []transport.NodeID{1, 2, 3} {
		for i, r := range h.reports[id] {
			if r.Offset != r.GroupClock-r.Physical {
				t.Fatalf("replica %v round %d: offset %v != group %v − physical %v",
					id, i, r.Offset, r.GroupClock, r.Physical)
			}
		}
	}
	// Whoever won the first round, the offsets must absorb the physical
	// clock disagreement: replica 3's clock runs 15s ahead of replica 1's,
	// so its offset must sit ≈15s below replica 1's.
	last1 := h.reports[1][len(h.reports[1])-1]
	last3 := h.reports[3][len(h.reports[3])-1]
	gap := last1.Offset - last3.Offset
	if gap < 15*time.Second-time.Millisecond || gap > 15*time.Second+time.Millisecond {
		t.Fatalf("offset gap = %v, want ≈ 15s (offsets %v vs %v)",
			gap, last1.Offset, last3.Offset)
	}
}

func TestCCSDuplicateSuppressionOnWire(t *testing.T) {
	h, client := standardSetup(t, 4, replication.Active)
	const n = 40
	driveReads(t, h, client, n)
	h.k.RunFor(10 * time.Millisecond)

	var sent, suppressed uint64
	for _, id := range []transport.NodeID{1, 2, 3} {
		sent += h.counter(id, "core.ccs_sent")
		suppressed += h.counter(id, "core.ccs_suppressed") + h.counter(id, "core.from_buffer")
	}
	// Every replica attempts one CCS per round (3n attempts); suppression
	// and buffering must eliminate the large majority of duplicates, as in
	// §4.3 (counts 1 / 9,977 / 22 for 10,000 rounds).
	if sent < n {
		t.Fatalf("sent %d CCS messages for %d rounds; at least one per round required", sent, n)
	}
	if sent > n+n/2 {
		t.Fatalf("%d CCS messages reached the wire for %d rounds; suppression ineffective (suppressed=%d)",
			sent, n, suppressed)
	}
}

func TestPassiveOnlyPrimarySendsCCS(t *testing.T) {
	h, client := standardSetup(t, 5, replication.Passive)
	driveReads(t, h, client, 10)
	h.k.RunFor(5 * time.Millisecond)

	sent1, specials1 := h.counter(1, "core.ccs_sent"), h.counter(1, "core.special_rounds")
	// 10 reads plus one special round per periodic checkpoint.
	if want := 10 + specials1; sent1 != want {
		t.Fatalf("primary sent %d CCS messages, want %d (10 reads + %d special rounds)",
			sent1, want, specials1)
	}
	for _, id := range []transport.NodeID{2, 3} {
		if got := h.counter(id, "core.ccs_sent"); got != 0 {
			t.Fatalf("backup %v sent %d CCS messages", id, got)
		}
		// Backups observed the rounds and keep a current offset.
		if h.counter(id, "core.rounds_observed") == 0 {
			t.Fatalf("backup %v observed no rounds", id)
		}
	}
}

// The client oracle holds the reads after the failover to the ones before.
func TestPassiveFailoverUsesBufferedCCS(t *testing.T) {
	h, client := standardSetup(t, 6, replication.Passive)
	driveReads(t, h, client, 6)

	// Kill the primary (node 1). Node 2 takes over and replays the log;
	// rounds the old primary already ran must be satisfied from the buffer
	// of delivered CCS messages (§3.3), not re-initiated.
	h.stacks[1].Stop()
	h.net.Endpoint(1).SetDown(true)
	driveReads(t, h, client, 6)

	if h.counter(2, "core.from_buffer") == 0 {
		t.Fatal("new primary did not consume buffered CCS messages during replay")
	}
}

func TestSemiActiveAllExecuteOnlyPrimarySends(t *testing.T) {
	h, client := standardSetup(t, 7, replication.SemiActive)
	driveReads(t, h, client, 12)
	h.k.RunFor(5 * time.Millisecond)

	// All replicas executed; the round oracle holds them to identical values.
	a, b, c := h.apps[1].readings, h.apps[2].readings, h.apps[3].readings
	if len(a) != 12 || len(b) != 12 || len(c) != 12 {
		t.Fatalf("readings: %d/%d/%d", len(a), len(b), len(c))
	}
	// Only the primary put CCS messages on the wire.
	if got := h.counter(1, "core.ccs_sent"); got == 0 {
		t.Fatal("primary sent no CCS messages")
	}
	for _, id := range []transport.NodeID{2, 3} {
		if got := h.counter(id, "core.ccs_sent"); got != 0 {
			t.Fatalf("semi-active backup %v sent %d CCS messages", id, got)
		}
	}
}

func TestClockOpGranularities(t *testing.T) {
	h, client := standardSetup(t, 8, replication.Active)
	var body []byte
	client.Invoke("read-ops", nil, func(r rpc.Reply) { body = r.Body })
	if !h.runUntil(5*time.Second, func() bool { return body != nil }) {
		t.Fatal("no reply")
	}
	gtod := time.Duration(binary.BigEndian.Uint64(body[0:]))
	ftime := time.Duration(binary.BigEndian.Uint64(body[8:]))
	sec := time.Duration(binary.BigEndian.Uint64(body[16:]))
	if gtod%time.Microsecond != 0 {
		t.Fatalf("gettimeofday %v not µs-quantized", gtod)
	}
	if ftime%time.Millisecond != 0 {
		t.Fatalf("ftime %v not ms-quantized", ftime)
	}
	if sec%time.Second != 0 {
		t.Fatalf("time %v not s-quantized", sec)
	}
	if !(ftime <= gtod+time.Millisecond && sec <= ftime+time.Second) {
		t.Fatalf("granularity ordering broken: %v %v %v", gtod, ftime, sec)
	}
}

func TestRecoveringReplicaIntegratesNewClock(t *testing.T) {
	h := newCoreHarness(t, 9)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.addReplica(1, replication.Active, false, h.simClock(0, 0))
	h.addReplica(2, replication.Active, false, h.simClock(3*time.Second, 0))
	client := h.newClient(0)
	h.start()
	h.k.RunFor(3 * time.Millisecond)
	driveReads(t, h, client, 8)

	// Node 3 joins with a wildly different physical clock (+100s): the
	// special round must initialize it so the group clock stays monotone.
	h.addReplica(3, replication.Active, true, h.simClock(100*time.Second, 0))
	ok := h.runUntil(10*time.Second, func() bool {
		live := false
		h.k.Post(func() { live = h.mgrs[3].Live() })
		h.k.RunFor(50 * time.Microsecond)
		return live
	})
	if !ok {
		t.Fatal("recovering replica never went live")
	}
	if h.counter(1, "core.special_rounds") == 0 &&
		h.counter(2, "core.special_rounds") == 0 {
		t.Fatal("no special round was taken for the state transfer")
	}

	// The client oracle holds these reads to the ones before the join; they
	// must also stay far below the newcomer's raw clock.
	after := driveReads(t, h, client, 8)
	if after[0] > 50*time.Second {
		t.Fatalf("group clock jumped toward the newcomer's clock: %v", after[0])
	}
	// The newcomer executed the new reads; the round oracle holds them to
	// the others' values.
	k := invariant.Key{Group: uint32(serverGroup), Node: 3}
	if n := len(h.apps[3].readings); n < 8 || h.rounds.Shared(k) < 8 {
		t.Fatalf("newcomer recorded %d readings, %d shared with the others", n, h.rounds.Shared(k))
	}
}

// TestSpecialRoundRespectsCausalFloor: the §3.2 special round proposes like
// every other round, so once the group has observed a foreign group clock
// (§5) the round taken for a joiner's state transfer decides above it.
func TestSpecialRoundRespectsCausalFloor(t *testing.T) {
	h := newCoreHarness(t, 9)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.addReplica(1, replication.Active, false, h.simClock(0, 0))
	h.addReplica(2, replication.Active, false, h.simClock(3*time.Second, 0))
	h.start()
	h.k.RunFor(3 * time.Millisecond)
	const foreign = time.Hour
	h.svcs[1].ObserveTimestamp(foreign)
	h.svcs[2].ObserveTimestamp(foreign)

	h.addReplica(3, replication.Active, true, h.simClock(100*time.Second, 0))
	if !h.runUntil(10*time.Second, func() bool { return h.counter(1, "core.special_rounds") > 0 }) {
		t.Fatal("no special round was taken for the state transfer")
	}
	h.k.RunFor(5 * time.Millisecond)
	specials := 0
	for _, id := range []transport.NodeID{1, 2} {
		for _, r := range h.reports[id] {
			if !r.Special {
				continue
			}
			specials++
			if r.GroupClock <= foreign {
				t.Errorf("replica %v: special round %d decided %v, not above the causal floor %v",
					id, r.Round, r.GroupClock, foreign)
			}
		}
	}
	if specials == 0 {
		t.Fatal("no replica reported the special round")
	}
}

// TestReservedRoundsReportTheirThread: lease-refresh and federated rounds
// are reported under their reserved thread ids, never the special round's
// 0, so (thread, round) names one round across every round kind.
func TestReservedRoundsReportTheirThread(t *testing.T) {
	h := newCoreHarness(t, 41)
	sink := obs.NewMemorySink(0)
	rec, err := obs.New(obs.Config{Now: h.k.Now, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	h.rec = rec
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range serverIDs {
		h.addReplica(id, replication.Active, false, h.simClock(0, 0))
	}
	h.start()
	h.k.RunFor(3 * time.Millisecond)
	enableLeases(h, LeaseConfig{Window: time.Second})
	enableFederation(h, FedConfig{InitialSlack: time.Millisecond, AgingPPM: 100}, serverIDs...)
	h.svcs[1].RefreshLease()
	h.k.RunFor(5 * time.Millisecond)
	h.svcs[1].ProposeFederated(time.Millisecond, time.Millisecond)
	h.k.RunFor(5 * time.Millisecond)

	for _, tid := range []uint64{RefreshThreadID, FedThreadID} {
		reported := false
		for _, r := range h.reports[1] {
			if r.Initiated && r.Round == 1 && r.ThreadID == tid {
				reported = true
			}
		}
		if !reported {
			t.Errorf("no initiated round 1 reported under thread %#x; reports: %+v", tid, h.reports[1])
		}
		adopted := false
		for _, ev := range sink.Events() {
			if ev.Node == 1 && ev.Scope == obs.ScopeCore && ev.Name == obs.EvAdopted &&
				ev.Thread == tid && ev.Round == 1 {
				adopted = true
			}
		}
		if !adopted {
			t.Errorf("no %s event for thread %#x round 1", obs.EvAdopted, tid)
		}
	}
	for _, r := range h.reports[1] {
		if r.ThreadID == specialThreadID {
			t.Errorf("round reported under the special round's thread: %+v", r)
		}
	}
}

func TestDriftWithoutCompensationRunsSlow(t *testing.T) {
	h, client := standardSetup(t, 10, replication.Active)
	realStart := h.k.Now()
	replies := driveReads(t, h, client, 30)
	realSpan := h.k.Now() - realStart
	groupSpan := replies[len(replies)-1] - replies[0]
	// Figure 6(c): the group clock advances more slowly than real time
	// because the winner's proposal is based on a physical reading taken
	// before the round's ordering delay.
	if groupSpan >= realSpan {
		t.Fatalf("group clock advanced %v over %v of real time; should run slow",
			groupSpan, realSpan)
	}
}

func TestMeanDelayCompensationReducesDrift(t *testing.T) {
	run := func(comp Compensation) time.Duration {
		h := newCoreHarness(t, 11)
		ring := []transport.NodeID{0, 1, 2, 3}
		for _, id := range ring {
			h.addStack(id, ring, true)
		}
		for _, id := range ring[1:] {
			h.addReplica(id, replication.Active, false, h.simClock(0, 0),
				func(c *Config) { c.Compensation = comp; c.MeanDelay = 150 * time.Microsecond })
		}
		client := h.newClient(0)
		h.start()
		h.k.RunFor(3 * time.Millisecond)
		replies := driveReads(t, h, client, 30)
		return h.k.Now() - replies[len(replies)-1] // lag behind real time
	}
	lagNone := run(CompNone)
	lagComp := run(CompMeanDelay)
	if lagComp >= lagNone {
		t.Fatalf("mean-delay compensation did not reduce drift: %v vs %v", lagComp, lagNone)
	}
}

func TestExternalCompensationBoundsDrift(t *testing.T) {
	h := newCoreHarness(t, 12)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	ref := hwclock.NewSim(h.k.Now) // perfect external reference
	for _, id := range ring[1:] {
		h.addReplica(id, replication.Active, false, h.simClock(0, 0),
			func(c *Config) {
				c.Compensation = CompExternal
				c.External = ref
				c.ExternalGain = 0.5
			})
	}
	client := h.newClient(0)
	h.start()
	h.k.RunFor(3 * time.Millisecond)
	replies := driveReads(t, h, client, 40)
	lag := h.k.Now() - replies[len(replies)-1]
	if lag > 2*time.Millisecond {
		t.Fatalf("externally nudged clock lags %v; should stay near real time", lag)
	}
}

func TestStateCodecRoundTrip(t *testing.T) {
	s := &TimeService{
		handlers:   map[uint64]*ccsHandler{1: {threadID: 1, round: 42}},
		pendingRnd: map[uint64]uint64{7: 9},
		special:    ccsHandler{round: 3},
		lastGroup:  8 * time.Hour,
	}
	st, err := decodeState(s.encodeState())
	if err != nil {
		t.Fatal(err)
	}
	if st.specialRound != 3 || st.groupClock != 8*time.Hour {
		t.Fatalf("state = %+v", st)
	}
	if st.threadRounds[1] != 42 || st.threadRounds[7] != 9 {
		t.Fatalf("thread rounds = %v", st.threadRounds)
	}
	if _, err := decodeState([]byte{1, 2}); err == nil {
		t.Fatal("short state accepted")
	}
	if _, err := decodeState(make([]byte, 21)); err == nil {
		t.Fatal("truncated state accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.NewNetwork(k, nil)
	s, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(0),
		Members: []transport.NodeID{0}, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := replication.New(replication.Config{Runtime: k, Stack: s,
		Group: 1, App: &clockApp{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		m.Stop() // retire the invocation thread the constructor spawned
		k.RunFor(time.Millisecond)
	}()
	clk := hwclock.NewManual(0)
	if _, err := New(Config{Clock: clk}); err == nil {
		t.Fatal("missing manager accepted")
	}
	if _, err := New(Config{Manager: m}); err == nil {
		t.Fatal("missing clock accepted")
	}
	if _, err := New(Config{Manager: m, Clock: clk, Compensation: CompExternal}); err == nil {
		t.Fatal("CompExternal without reference accepted")
	}
	svc, err := New(Config{Manager: m, Clock: clk, Compensation: CompMeanDelay})
	if err != nil {
		t.Fatal(err)
	}
	if svc.cfg.MeanDelay == 0 {
		t.Fatal("MeanDelay default not applied")
	}
}

func TestCompensationStrings(t *testing.T) {
	for _, tc := range []struct {
		c    Compensation
		want string
	}{{CompNone, "none"}, {CompMeanDelay, "mean-delay"}, {CompExternal, "external"},
		{Compensation(9), "Compensation(9)"}} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestDeterministicClockTraces(t *testing.T) {
	run := func() []time.Duration {
		h, client := standardSetup(t, 77, replication.Active)
		driveReads(t, h, client, 15)
		return h.apps[1].readings
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStatsRegistryParity asserts the obs registry — now the only stats
// surface — publishes every canonical core.* counter for every replica, and
// that the values are coherent after a burst of reads.
func TestStatsRegistryParity(t *testing.T) {
	h, client := standardSetup(t, 12, replication.Active)
	driveReads(t, h, client, 20)
	h.k.RunFor(10 * time.Millisecond)
	names := []string{
		"core.rounds_initiated",
		"core.rounds_observed",
		"core.ccs_sent",
		"core.ccs_suppressed",
		"core.from_buffer",
		"core.special_rounds",
		"core.monotonicity_fixes",
		"core.timers_fired",
	}
	for _, id := range []transport.NodeID{1, 2, 3} {
		present := make(map[string]bool)
		for _, s := range h.rec.Samples() {
			if s.Node == uint32(id) {
				present[s.Name] = true
			}
		}
		for _, name := range names {
			if !present[name] {
				t.Errorf("replica %v: registry does not publish %s", id, name)
			}
		}
		if h.counter(id, "core.rounds_initiated") == 0 {
			t.Errorf("replica %v: registry shows no initiated rounds after the reads", id)
		}
	}
	var sent uint64
	for _, id := range []transport.NodeID{1, 2, 3} {
		sent += h.counter(id, "core.ccs_sent")
	}
	if sent == 0 {
		t.Error("registry accounts no CCS sends across the whole group")
	}
}
