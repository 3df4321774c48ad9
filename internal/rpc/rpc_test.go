package rpc_test

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"cts/internal/core"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/replication"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/udptransport"
	"cts/internal/wire"
)

const (
	serverGroup wire.GroupID = 100
	clientGroup wire.GroupID = 900
)

// timeApp answers CurrentTime through the consistent time service.
type timeApp struct {
	mu  sync.Mutex
	svc *core.TimeService
}

func (a *timeApp) service() *core.TimeService {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.svc
}

func (a *timeApp) setService(s *core.TimeService) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.svc = s
}

func (a *timeApp) Invoke(ctx *replication.Ctx, method string, body []byte) []byte {
	v := a.service().Gettimeofday(ctx)
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(v))
	return out
}
func (a *timeApp) Snapshot() []byte     { return nil }
func (a *timeApp) Restore(state []byte) {}

// TestRealtimeUDPStack runs the full production path: real-time event loops,
// UDP transports on loopback, the Totem ring, the group layer, an actively
// replicated three-way server with the consistent time service, and a
// blocking client — the deployment cmd/ctsnode and cmd/ctsclient implement.
func TestRealtimeUDPStack(t *testing.T) {
	const n = 4 // client P0 + replicas P1..P3
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}

	// Transports first, to learn the bound addresses.
	trs := make([]*udptransport.Transport, n)
	for i := range trs {
		tr, err := udptransport.New(ids[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	for i, a := range trs {
		for j, b := range trs {
			if i != j {
				if err := a.SetPeer(ids[j], b.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	loops := make([]*sim.Loop, n)
	stacks := make([]*gcs.Stack, n)
	for i := range loops {
		loops[i] = sim.NewLoop()
		t.Cleanup(loops[i].Close)
		s, err := gcs.New(gcs.Config{
			Runtime:   loops[i],
			Transport: trs[i],
			Members:   ids,
			Bootstrap: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = s
	}
	var mgrs []*replication.Manager
	t.Cleanup(func() { retire(func() { time.Sleep(100 * time.Millisecond) }, stacks, mgrs) })

	apps := make([]*timeApp, n)
	for i := 1; i < n; i++ {
		app := &timeApp{}
		mgr, err := replication.New(replication.Config{
			Runtime: loops[i],
			Stack:   stacks[i],
			Group:   serverGroup,
			Style:   replication.Active,
			App:     app,
		})
		if err != nil {
			t.Fatal(err)
		}
		mgrs = append(mgrs, mgr)
		svc, err := core.New(core.Config{Manager: mgr, Clock: hwclock.SystemClock{}})
		if err != nil {
			t.Fatal(err)
		}
		app.setService(svc)
		if err := mgr.Start(); err != nil {
			t.Fatal(err)
		}
		apps[i] = app
	}

	client, err := rpc.NewClient(rpc.ClientConfig{
		Runtime:     loops[0],
		Stack:       stacks[0],
		ClientGroup: clientGroup,
		ServerGroup: serverGroup,
		Timeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range stacks {
		s.Start()
	}
	time.Sleep(200 * time.Millisecond) // ring + group views settle

	var prev uint64
	for i := 0; i < 5; i++ {
		body, err := client.InvokeSync("CurrentTime", nil)
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
		v := binary.BigEndian.Uint64(body)
		if v < prev {
			t.Fatalf("group clock rolled back over UDP: %d -> %d", prev, v)
		}
		prev = v
	}
	if prev == 0 {
		t.Fatal("no clock value returned")
	}
}

// TestClientRetransmission drives the retry path deterministically: requests
// are dropped (total datagram loss) until a heal; the client's
// retransmissions then deliver the invocation exactly once.
func TestClientRetransmission(t *testing.T) {
	k := sim.NewKernel(31)
	net := simnet.NewNetwork(k, nil)
	ids := []transport.NodeID{0, 1, 2}
	stacks := make([]*gcs.Stack, len(ids))
	for i, id := range ids {
		s, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(id),
			Members: ids, Bootstrap: true})
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = s
	}
	invoked := 0
	app := &countApp{onInvoke: func() { invoked++ }}
	mgr, err := replication.New(replication.Config{Runtime: k, Stack: stacks[1],
		Group: serverGroup, Style: replication.Active, App: app})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	mgr2, err := replication.New(replication.Config{Runtime: k, Stack: stacks[2],
		Group: serverGroup, Style: replication.Active, App: &countApp{}})
	if err != nil {
		t.Fatal(err)
	}
	defer retire(func() { k.RunFor(5 * time.Millisecond) }, stacks, []*replication.Manager{mgr, mgr2})
	if err := mgr2.Start(); err != nil {
		t.Fatal(err)
	}
	client, err := rpc.NewClient(rpc.ClientConfig{Runtime: k, Stack: stacks[0],
		ClientGroup: clientGroup, ServerGroup: serverGroup,
		Timeout: 5 * time.Second, Retry: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		s.Start()
	}
	k.RunFor(3 * time.Millisecond)

	// Cut the client off from the replicas; its first send dies there.
	net.Partition([]transport.NodeID{0}, []transport.NodeID{1, 2})
	var got rpc.Reply
	done := false
	client.Invoke("ping", nil, func(r rpc.Reply) { done = true; got = r })
	k.RunFor(200 * time.Millisecond)
	if done {
		t.Fatal("invocation completed while partitioned")
	}
	net.Heal()
	deadline := k.Now() + 5*time.Second
	for k.Now() < deadline && !done {
		k.RunFor(time.Millisecond)
	}
	if !done || got.Err != nil {
		t.Fatalf("invocation after heal: done=%v err=%v", done, got.Err)
	}
	k.RunFor(time.Second) // let any straggling retransmissions land
	if invoked != 1 {
		t.Fatalf("request executed %d times, want exactly 1", invoked)
	}
}

// retire drains in-flight invocations so every manager is idle, then stops
// the stacks and retires the logical-thread goroutines; TestMain's leak check
// fails the package if any survive. drain lets the runtime run on: virtual
// time for a kernel, wall time for real loops.
func retire(drain func(), stacks []*gcs.Stack, mgrs []*replication.Manager) {
	drain()
	for _, s := range stacks {
		s.Stop()
	}
	for _, m := range mgrs {
		m.Stop()
	}
	drain()
}

type countApp struct{ onInvoke func() }

func (a *countApp) Invoke(ctx *replication.Ctx, method string, body []byte) []byte {
	if a.onInvoke != nil {
		a.onInvoke()
	}
	return []byte("pong")
}
func (a *countApp) Snapshot() []byte { return nil }
func (a *countApp) Restore([]byte)   {}
