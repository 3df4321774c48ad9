package cts_test

import (
	"strings"
	"testing"
	"time"

	"cts"
	"cts/internal/hwclock"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
)

// TestFacadeTimeServe brings up a three-replica group with the external
// serving frontend enabled and exercises the whole plane end to end: the
// background refresher keeps leases alive over the simulated stack, the
// UDP frontends answer real-socket queries from those leases, and the
// public client extrapolates, caches, and never observes a regression.
func TestFacadeTimeServe(t *testing.T) {
	k := sim.NewKernel(11)
	net := simnet.NewNetwork(k, nil)
	ring := []transport.NodeID{1, 2, 3}
	offsets := map[transport.NodeID]time.Duration{1: 0, 2: 3 * time.Second, 3: 9 * time.Second}

	svcs := make([]*cts.Service, 0, 3)
	for _, id := range ring {
		svc, err := cts.New(
			cts.WithRuntime(k),
			cts.WithTransport(net.Endpoint(id)),
			cts.WithMembers(ring),
			cts.WithClock(hwclock.NewSim(k.Now, hwclock.WithOffset(offsets[id]))),
			cts.WithTimeServe(cts.TimeServeConfig{
				Addr:         "127.0.0.1:0",
				LeaseWindow:  time.Minute,
				RefreshEvery: 50 * time.Millisecond,
			}),
		)
		if err != nil {
			t.Fatalf("cts.New(P%d): %v", id, err)
		}
		if err := svc.Start(); err != nil {
			t.Fatalf("Start(P%d): %v", id, err)
		}
		svcs = append(svcs, svc)
	}
	defer func() {
		for _, svc := range svcs {
			svc.Stop()
		}
	}()

	// Let the ring form and the refresher run a few rounds of virtual time.
	k.RunFor(2 * time.Second)

	targets := make([]string, 0, len(svcs))
	for i, svc := range svcs {
		addr := svc.TimeServeAddr()
		if addr == "" {
			t.Fatalf("replica %d: no timeserve address", i)
		}
		targets = append(targets, addr)
		if r, ok := svc.LeaseRead(); !ok {
			t.Fatalf("replica %d holds no lease after refresh rounds", i)
		} else if r.Bound <= 0 {
			t.Fatalf("replica %d lease has non-positive bound %v", i, r.Bound)
		}
	}

	cli, err := cts.NewTimeServeClient(cts.TimeServeClientConfig{
		Targets:  targets,
		Timeout:  time.Second,
		CacheFor: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var prev cts.TimeServeReading
	for i := 0; i < 30; i++ {
		r, err := cli.Now()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if i > 0 && r.GroupClock < prev.GroupClock {
			t.Fatalf("query %d regressed: %v < %v", i, r.GroupClock, prev.GroupClock)
		}
		prev = r
		if i%10 == 0 {
			k.RunFor(100 * time.Millisecond) // advance group time mid-stream
		}
	}

	// The replicas' direct lease reads stay monotone per replica too.
	for i, svc := range svcs {
		a, ok1 := svc.LeaseRead()
		b, ok2 := svc.LeaseRead()
		if !ok1 || !ok2 {
			t.Fatalf("replica %d lease vanished", i)
		}
		if b.GroupClock < a.GroupClock {
			t.Fatalf("replica %d regressed: %v < %v", i, b.GroupClock, a.GroupClock)
		}
	}
}

// TestStartFailureThenStop pins the shutdown contract ctsnode relies on:
// when a late Start phase fails (here an invalid ServeIO), Start tears the
// stack down itself, and the caller's deferred Stop must be a harmless
// no-op — not a second teardown that double-closes the invocation thread.
func TestStartFailureThenStop(t *testing.T) {
	k := sim.NewKernel(7)
	net := simnet.NewNetwork(k, nil)
	ring := []transport.NodeID{1, 2}
	svc, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(1)),
		cts.WithMembers(ring),
		cts.WithClock(hwclock.NewSim(k.Now)),
		cts.WithTimeServe(cts.TimeServeConfig{
			Addr:    "127.0.0.1:0",
			ServeIO: "bogus",
		}),
	)
	if err != nil {
		t.Fatalf("cts.New: %v", err)
	}
	err = svc.Start()
	if err == nil {
		t.Fatal("Start with ServeIO=bogus succeeded, want error")
	}
	if !strings.Contains(err.Error(), `unknown I/O mode "bogus"`) {
		t.Fatalf("Start error = %v, want the ParseIOMode error", err)
	}
	svc.Stop() // the deferred Stop every caller holds
	svc.Stop() // and Stop is documented idempotent
	// Drain the posted teardown work; before Stop was idempotent this
	// panicked with "close of closed channel" on the loop.
	k.RunFor(time.Second)
}
