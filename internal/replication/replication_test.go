package replication

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"cts/internal/gcs"
	"cts/internal/obs"
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

// counterApp is a deterministic replicated counter.
type counterApp struct {
	count   int64
	invoked int
}

func (a *counterApp) Invoke(ctx *Ctx, method string, body []byte) []byte {
	a.invoked++
	switch method {
	case "add":
		a.count += int64(body[0])
	case "sleep-add":
		ctx.Sleep(100 * time.Microsecond)
		a.count++
	case "get":
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(a.count))
	return out
}

func (a *counterApp) Snapshot() []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(a.count))
	return out
}

func (a *counterApp) Restore(state []byte) {
	if len(state) == 8 {
		a.count = int64(binary.BigEndian.Uint64(state))
	}
}

type repHarness struct {
	t      *testing.T
	k      *sim.Kernel
	net    *simnet.Network
	rec    *obs.Recorder
	stacks map[transport.NodeID]*gcs.Stack
	mgrs   map[transport.NodeID]*Manager
	apps   map[transport.NodeID]*counterApp
}

func newRepHarness(t *testing.T, seed int64) *repHarness {
	t.Helper()
	k := sim.NewKernel(seed)
	rec, err := obs.New(obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := &repHarness{
		t:      t,
		k:      k,
		net:    simnet.NewNetwork(k, nil),
		rec:    rec,
		stacks: make(map[transport.NodeID]*gcs.Stack),
		mgrs:   make(map[transport.NodeID]*Manager),
		apps:   make(map[transport.NodeID]*counterApp),
	}
	t.Cleanup(func() {
		var mgrs []*Manager
		for _, m := range h.mgrs {
			mgrs = append(mgrs, m)
		}
		retire(k, h.stacks, mgrs...)
	})
	return h
}

// retire drains in-flight invocations so every manager is idle, then stops
// the stacks and retires the logical-thread goroutines; TestMain's leak check
// fails the package if any survive.
func retire(k *sim.Kernel, stacks map[transport.NodeID]*gcs.Stack, mgrs ...*Manager) {
	k.RunFor(5 * time.Millisecond)
	for _, s := range stacks {
		s.Stop()
	}
	for _, m := range mgrs {
		m.Stop()
	}
	k.RunFor(5 * time.Millisecond)
}

// counter reads one per-node counter from the obs registry, the only stats
// surface. Run it between kernel steps (sources gather on the loop).
func (h *repHarness) counter(id transport.NodeID, name string) uint64 {
	var v uint64
	for _, s := range h.rec.Samples() {
		if s.Node == uint32(id) && s.Name == name {
			v += s.Value
		}
	}
	return v
}

func (h *repHarness) addStack(id transport.NodeID, ring []transport.NodeID, bootstrap bool) *gcs.Stack {
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
	return s
}

func (h *repHarness) addReplica(id transport.NodeID, style Style, recovering bool) *Manager {
	h.t.Helper()
	app := &counterApp{}
	m, err := New(Config{
		Runtime:         h.k,
		Stack:           h.stacks[id],
		Group:           serverGroup,
		Style:           style,
		App:             app,
		Recovering:      recovering,
		CheckpointEvery: 3,
		Obs:             h.rec.ForNode(uint32(id)),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		h.t.Fatal(err)
	}
	h.mgrs[id] = m
	h.apps[id] = app
	return m
}

func (h *repHarness) newClient(id transport.NodeID, timeout time.Duration) *rpc.Client {
	h.t.Helper()
	c, err := rpc.NewClient(rpc.ClientConfig{
		Runtime:     h.k,
		Stack:       h.stacks[id],
		ClientGroup: clientGroup,
		ServerGroup: serverGroup,
		Timeout:     timeout,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	return c
}

func (h *repHarness) runUntil(max time.Duration, cond func() bool) bool {
	deadline := h.k.Now() + max
	for h.k.Now() < deadline {
		if cond() {
			return true
		}
		h.k.RunFor(200 * time.Microsecond)
	}
	return cond()
}

func u64(b []byte) uint64 {
	if len(b) != 8 {
		return ^uint64(0)
	}
	return binary.BigEndian.Uint64(b)
}

func TestActiveReplicationExecutesEverywhere(t *testing.T) {
	h := newRepHarness(t, 1)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:] {
		h.addReplica(id, Active, false)
	}
	client := h.newClient(0, 0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	var replies []uint64
	const n = 10
	for i := 0; i < n; i++ {
		client.Invoke("add", []byte{1}, func(r rpc.Reply) {
			if r.Err != nil {
				t.Errorf("invoke: %v", r.Err)
				return
			}
			replies = append(replies, u64(r.Body))
		})
	}
	ok := h.runUntil(2*time.Second, func() bool { return len(replies) == n })
	if !ok {
		t.Fatalf("got %d/%d replies", len(replies), n)
	}
	for i, v := range replies {
		if v != uint64(i+1) {
			t.Fatalf("reply %d = %d, want %d", i, v, i+1)
		}
	}
	// Every replica executed every request and the state converged.
	for _, id := range ring[1:] {
		if h.apps[id].count != n {
			t.Fatalf("replica %v count = %d, want %d", id, h.apps[id].count, n)
		}
		if h.apps[id].invoked != n {
			t.Fatalf("replica %v invoked = %d, want %d", id, h.apps[id].invoked, n)
		}
	}
}

func TestActiveReplyDuplicateSuppression(t *testing.T) {
	h := newRepHarness(t, 2)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:] {
		h.addReplica(id, Active, false)
	}
	client := h.newClient(0, 0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	// Sequential invocations, as in the paper's measurement loop: the
	// winner's reply is on the wire well before the laggards' token visits.
	done := 0
	const n = 50
	var invoke func()
	invoke = func() {
		client.Invoke("add", []byte{1}, func(r rpc.Reply) {
			done++
			if done < n {
				invoke()
			}
		})
	}
	invoke()
	if !h.runUntil(10*time.Second, func() bool { return done == n }) {
		t.Fatalf("got %d/%d replies", done, n)
	}
	h.k.RunFor(10 * time.Millisecond) // let stragglers settle

	var sent, suppressed uint64
	for _, id := range ring[1:] {
		sent += h.counter(id, "repl.replies_sent")
		suppressed += h.counter(id, "repl.replies_suppressed")
	}
	// 3 replicas × 50 invocations = 150 reply attempts. Suppression must
	// remove a substantial share of the redundant replies (the paper's
	// duplicate-suppression result: per round, every replica attempts one
	// send yet few duplicates reach the network).
	if sent+suppressed != 3*n {
		t.Fatalf("attempts = %d (sent %d + suppressed %d), want %d",
			sent+suppressed, sent, suppressed, 3*n)
	}
	if suppressed < n/2 {
		t.Fatalf("suppressed only %d of %d redundant replies", suppressed, 2*n)
	}
}

func TestPassiveOnlyPrimaryExecutes(t *testing.T) {
	h := newRepHarness(t, 3)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:] {
		h.addReplica(id, Passive, false)
	}
	client := h.newClient(0, 0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	done := 0
	const n = 7 // crosses the CheckpointEvery=3 boundary twice
	for i := 0; i < n; i++ {
		client.Invoke("add", []byte{2}, func(r rpc.Reply) {
			if r.Err == nil {
				done++
			}
		})
	}
	if !h.runUntil(2*time.Second, func() bool { return done == n }) {
		t.Fatalf("got %d/%d replies", done, n)
	}
	if h.apps[1].invoked != n {
		t.Fatalf("primary invoked %d, want %d", h.apps[1].invoked, n)
	}
	for _, id := range ring[2:] {
		if h.apps[id].invoked != 0 {
			t.Fatalf("backup %v invoked %d requests", id, h.apps[id].invoked)
		}
	}
	// Backups caught up through checkpoints (6 of 7 adds are covered by the
	// two checkpoints at invocations 3 and 6).
	ok := h.runUntil(time.Second, func() bool { return h.apps[2].count >= 12 })
	if !ok {
		t.Fatalf("backup state = %d, want ≥ 12 via checkpoints", h.apps[2].count)
	}
}

func TestPassiveFailoverReplaysLog(t *testing.T) {
	h := newRepHarness(t, 4)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:] {
		h.addReplica(id, Passive, false)
	}
	client := h.newClient(0, 0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	var replies []uint64
	invoke := func() {
		client.Invoke("add", []byte{1}, func(r rpc.Reply) {
			if r.Err == nil {
				replies = append(replies, u64(r.Body))
			}
		})
	}
	for i := 0; i < 5; i++ {
		invoke()
	}
	if !h.runUntil(2*time.Second, func() bool { return len(replies) == 5 }) {
		t.Fatalf("got %d/5 replies before failover", len(replies))
	}

	// Kill the primary (node 1).
	h.stacks[1].Stop()
	h.net.Endpoint(1).SetDown(true)

	for i := 0; i < 5; i++ {
		invoke()
	}
	if !h.runUntil(5*time.Second, func() bool { return len(replies) == 10 }) {
		t.Fatalf("got %d/10 replies after failover", len(replies))
	}
	// The new primary's state reflects every increment exactly once.
	if h.apps[2].count != 10 {
		t.Fatalf("new primary count = %d, want 10", h.apps[2].count)
	}
	// Replies seen by the client are monotonically increasing counter values
	// with no lost updates at the end.
	if replies[len(replies)-1] != 10 {
		t.Fatalf("final reply = %d, want 10", replies[len(replies)-1])
	}
}

func TestActiveRecoveryStateTransfer(t *testing.T) {
	h := newRepHarness(t, 5)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:3] { // replicas on 1, 2 only
		h.addReplica(id, Active, false)
	}
	client := h.newClient(0, 0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	done := 0
	for i := 0; i < 6; i++ {
		client.Invoke("add", []byte{3}, func(r rpc.Reply) { done++ })
	}
	if !h.runUntil(2*time.Second, func() bool { return done == 6 }) {
		t.Fatal("initial invocations incomplete")
	}

	// Node 3 hosts a recovering replica (state transfer via GET_STATE).
	h.addReplica(3, Active, true)
	ok := h.runUntil(5*time.Second, func() bool {
		live := false
		h.k.Post(func() { live = h.mgrs[3].Live() })
		h.k.RunFor(50 * time.Microsecond)
		return live && h.apps[3].count == 18
	})
	if !ok {
		t.Fatalf("recovered replica count = %d (live=%v), want 18",
			h.apps[3].count, h.mgrs[3].Live())
	}

	// It participates in subsequent invocations.
	before := h.apps[3].invoked
	client.Invoke("add", []byte{1}, func(r rpc.Reply) { done++ })
	if !h.runUntil(2*time.Second, func() bool { return h.apps[3].invoked > before }) {
		t.Fatal("recovered replica does not execute new requests")
	}
	if h.apps[3].count != 19 || h.apps[1].count != 19 {
		t.Fatalf("states diverged: recovered=%d existing=%d", h.apps[3].count, h.apps[1].count)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	h := newRepHarness(t, 6)
	ring := []transport.NodeID{0, 1}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.addReplica(1, Active, false)
	client := h.newClient(0, 0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	var doneAt time.Duration
	start := h.k.Now()
	client.Invoke("sleep-add", nil, func(r rpc.Reply) { doneAt = h.k.Now() })
	if !h.runUntil(time.Second, func() bool { return doneAt != 0 }) {
		t.Fatal("no reply")
	}
	if doneAt-start < 100*time.Microsecond {
		t.Fatalf("invocation finished after %v, want ≥ 100µs (Sleep must advance virtual time)", doneAt-start)
	}
}

func TestCtxCallAsyncCompletion(t *testing.T) {
	k := sim.NewKernel(7)
	net := simnet.NewNetwork(k, nil)
	s, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(0),
		Members: []transport.NodeID{0}, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	app := &callApp{k: k}
	m, err := New(Config{Runtime: k, Stack: s, Group: serverGroup, App: app})
	if err != nil {
		t.Fatal(err)
	}
	defer retire(k, map[transport.NodeID]*gcs.Stack{0: s}, m)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	client, err := rpc.NewClient(rpc.ClientConfig{Runtime: k, Stack: s,
		ClientGroup: clientGroup, ServerGroup: serverGroup})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	k.RunFor(3 * time.Millisecond)

	var got []byte
	client.Invoke("echo-later", []byte("ping"), func(r rpc.Reply) { got = r.Body })
	deadline := k.Now() + time.Second
	for k.Now() < deadline && got == nil {
		k.RunFor(200 * time.Microsecond)
	}
	if string(got) != "ping/delayed" {
		t.Fatalf("got %q, want %q", got, "ping/delayed")
	}
}

// callApp exercises Ctx.Call with an asynchronous completion.
type callApp struct{ k *sim.Kernel }

func (a *callApp) Invoke(ctx *Ctx, method string, body []byte) []byte {
	v := ctx.Call(func(complete func(any)) {
		a.k.After(250*time.Microsecond, func() {
			complete(string(body) + "/delayed")
		})
	})
	return []byte(v.(string))
}
func (a *callApp) Snapshot() []byte     { return nil }
func (a *callApp) Restore(state []byte) {}

func TestSpawnThreadDistinctIDs(t *testing.T) {
	k := sim.NewKernel(8)
	net := simnet.NewNetwork(k, nil)
	s, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(0),
		Members: []transport.NodeID{0}, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Runtime: k, Stack: s, Group: serverGroup, App: &counterApp{}})
	if err != nil {
		t.Fatal(err)
	}
	defer retire(k, map[transport.NodeID]*gcs.Stack{0: s}, m)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	s.Start()
	var ids []uint64
	for i := 0; i < 3; i++ {
		m.SpawnThread(func(ctx *Ctx) {
			ctx.Sleep(10 * time.Microsecond)
			ids = append(ids, ctx.ThreadID())
		})
	}
	k.RunFor(10 * time.Millisecond)
	if len(ids) != 3 {
		t.Fatalf("ran %d threads, want 3", len(ids))
	}
	want := map[uint64]bool{2: true, 3: true, 4: true}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected thread id %d in %v", id, ids)
		}
		delete(want, id)
	}
}

func TestRPCTimeout(t *testing.T) {
	h := newRepHarness(t, 9)
	ring := []transport.NodeID{0, 1}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	// No replica joins the server group: invocations time out.
	client := h.newClient(0, 5*time.Millisecond)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(2 * time.Millisecond)
	var gotErr error
	client.Invoke("add", []byte{1}, func(r rpc.Reply) { gotErr = r.Err })
	if !h.runUntil(time.Second, func() bool { return gotErr != nil }) {
		t.Fatal("no timeout")
	}
	if !errors.Is(gotErr, rpc.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
}

func TestClientCloseFailsOutstanding(t *testing.T) {
	h := newRepHarness(t, 10)
	ring := []transport.NodeID{0, 1}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	client := h.newClient(0, 0)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(2 * time.Millisecond)
	var gotErr error
	client.Invoke("add", []byte{1}, func(r rpc.Reply) { gotErr = r.Err })
	client.Close()
	h.k.RunFor(5 * time.Millisecond)
	if !errors.Is(gotErr, rpc.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", gotErr)
	}
	// Invocations after close fail immediately.
	var afterErr error
	client.Invoke("add", []byte{1}, func(r rpc.Reply) { afterErr = r.Err })
	h.k.RunFor(time.Millisecond)
	if !errors.Is(afterErr, rpc.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", afterErr)
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
	app := &counterApp{}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no runtime", Config{Stack: s, Group: 1, App: app}},
		{"no stack", Config{Runtime: k, Group: 1, App: app}},
		{"no group", Config{Runtime: k, Stack: s, App: app}},
		{"no app", Config{Runtime: k, Stack: s, Group: 1}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// RPC client validation.
	if _, err := rpc.NewClient(rpc.ClientConfig{Runtime: k, Stack: s}); err == nil {
		t.Error("rpc client without groups accepted")
	}
	if _, err := rpc.NewClient(rpc.ClientConfig{Stack: s, ClientGroup: 1, ServerGroup: 2}); err == nil {
		t.Error("rpc client without runtime accepted")
	}
}

func TestStyleStrings(t *testing.T) {
	for _, tc := range []struct {
		s    Style
		want string
	}{{Active, "active"}, {Passive, "passive"}, {SemiActive, "semi-active"},
		{Style(9), "Style(9)"}} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.s, got, tc.want)
		}
	}
}

func TestDeterministicReplicatedExecution(t *testing.T) {
	run := func() []int64 {
		h := newRepHarness(t, 42)
		ring := []transport.NodeID{0, 1, 2, 3}
		for _, id := range ring {
			h.addStack(id, ring, true)
		}
		for _, id := range ring[1:] {
			h.addReplica(id, Active, false)
		}
		client := h.newClient(0, 0)
		for _, s := range h.stacks {
			s.Start()
		}
		h.k.RunFor(3 * time.Millisecond)
		done := 0
		for i := 0; i < 20; i++ {
			client.Invoke("add", []byte{byte(i%5 + 1)}, func(r rpc.Reply) { done++ })
		}
		h.runUntil(5*time.Second, func() bool { return done == 20 })
		return []int64{h.apps[1].count, h.apps[2].count, h.apps[3].count}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic state at replica %d: %v vs %v", i+1, a, b)
		}
	}
	if a[0] != a[1] || a[1] != a[2] {
		t.Fatalf("replica states diverged: %v", a)
	}
}

func TestPackUnpackStates(t *testing.T) {
	app, extra := unpackStates(packStates([]byte("app"), []byte("extra")))
	if string(app) != "app" || string(extra) != "extra" {
		t.Fatalf("round trip: %q %q", app, extra)
	}
	app, extra = unpackStates(packStates(nil, nil))
	if len(app) != 0 || len(extra) != 0 {
		t.Fatalf("empty round trip: %v %v", app, extra)
	}
	if a, e := unpackStates([]byte{1, 2}); a != nil || e != nil {
		t.Fatal("short input should yield nils")
	}
	if a, e := unpackStates([]byte{0, 0, 0, 99, 1}); a != nil || e != nil {
		t.Fatal("oversize length should yield nils")
	}
}

func TestStatusCallback(t *testing.T) {
	k := sim.NewKernel(11)
	net := simnet.NewNetwork(k, nil)
	ring := []transport.NodeID{0, 1}
	stacks := make(map[transport.NodeID]*gcs.Stack)
	for _, id := range ring {
		s, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(id),
			Members: ring, Bootstrap: true})
		if err != nil {
			t.Fatal(err)
		}
		stacks[id] = s
	}
	var statuses []Status
	m, err := New(Config{Runtime: k, Stack: stacks[1], Group: serverGroup,
		Style: Passive, App: &counterApp{},
		OnStatus: func(st Status) { statuses = append(statuses, st) }})
	if err != nil {
		t.Fatal(err)
	}
	defer retire(k, stacks, m)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		s.Start()
	}
	k.RunFor(5 * time.Millisecond)
	if len(statuses) == 0 {
		t.Fatal("no status callbacks")
	}
	last := statuses[len(statuses)-1]
	if !last.Primary || !last.Live || last.Style != Passive {
		t.Fatalf("final status = %+v", last)
	}
	_ = fmt.Sprintf("%v", last)
}

func TestDuplicateRequestNotReExecuted(t *testing.T) {
	h := newRepHarness(t, 20)
	ring := []transport.NodeID{0, 1, 2}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.addReplica(1, Active, false)
	h.addReplica(2, Active, false)
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)

	// Send one request; then retransmit the identical message (same header
	// seq, same invocation id) directly through the stack, as the rpc
	// client's retry path does.
	payload, err := wire.MarshalRequest(wire.RequestPayload{
		InvocationID: 1, ClientNode: 0, Method: "add", Body: []byte{5}})
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.Message{
		Header: wire.Header{Type: wire.TypeRequest, SrcGroup: clientGroup,
			DstGroup: serverGroup, Conn: 1, Seq: 1},
		Payload: payload,
	}
	var replies int
	h.stacks[0].Join(clientGroup, func(m wire.Message, meta gcs.Meta) {
		if m.Type == wire.TypeReply {
			replies++
		}
	}, nil)
	s := h.stacks[0]
	h.k.Post(func() { s.Multicast(msg) })
	h.runUntil(time.Second, func() bool { return replies >= 1 })
	h.k.Post(func() { s.Multicast(msg) }) // retransmission
	h.runUntil(time.Second, func() bool { return replies >= 2 })
	h.k.RunFor(10 * time.Millisecond)

	// Executed exactly once; the duplicate was answered from the cache.
	for _, id := range ring[1:] {
		if h.apps[id].invoked != 1 {
			t.Fatalf("replica %v executed the request %d times", id, h.apps[id].invoked)
		}
		if h.apps[id].count != 5 {
			t.Fatalf("replica %v state = %d, want 5 (no double mutation)", id, h.apps[id].count)
		}
	}
	if replies < 2 {
		t.Fatalf("duplicate request was not answered (replies=%d)", replies)
	}
}

// TestRankFollowsViews: Rank is -1 before the first view installs, tracks
// the replica's index in each view's sorted members, and is -1 in a view
// that lacks the replica.
func TestRankFollowsViews(t *testing.T) {
	h := newRepHarness(t, 6)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	for _, id := range ring[1:] {
		h.addReplica(id, Active, false)
	}
	m := h.mgrs[3]
	if got := m.Rank(); got != -1 {
		t.Fatalf("rank before the first view = %d, want -1", got)
	}
	for _, s := range h.stacks {
		s.Start()
	}
	h.k.RunFor(3 * time.Millisecond)
	if got := m.Rank(); got != 2 {
		t.Fatalf("rank of node 3 in view %v = %d, want 2", m.Members(), got)
	}

	h.stacks[1].Stop()
	h.net.Endpoint(1).SetDown(true)
	if !h.runUntil(2*time.Second, func() bool { return len(m.Members()) == 2 }) {
		t.Fatalf("view never lost node 1: %v", m.Members())
	}
	if got := m.Rank(); got != 1 {
		t.Fatalf("rank of node 3 in view %v = %d, want 1", m.Members(), got)
	}

	m.rt.Post(func() { m.onView(gcs.GroupView{Group: serverGroup, Members: []transport.NodeID{2}, Primary: true}) })
	h.k.RunFor(0)
	if got := m.Rank(); got != -1 {
		t.Fatalf("rank in a view without node 3 = %d, want -1", got)
	}
}
