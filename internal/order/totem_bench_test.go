package order

import (
	"testing"
	"time"

	"cts/internal/sim"
	"cts/internal/simnet"
)

// BenchmarkTotemTokenVisit: one token rotation of a 3-member ring over
// simnet, carrying one keyed safe message, which is delivered everywhere a
// rotation or two later. An op is a rotation: three token visits, three
// forwards and their timers, one broadcast, three deliveries.
func BenchmarkTotemTokenVisit(b *testing.B) {
	k := sim.NewKernel(1)
	net := simnet.NewNetwork(k, nil)
	ids := nodeIDs(3)
	var rotations, delivered int
	nodes := make([]*totemNode, len(ids))
	for i, id := range ids {
		o, err := New(Env{
			Runtime:   k,
			Transport: net.Endpoint(id),
			Members:   ids,
			Bootstrap: true,
			Deliver:   func(Delivery) { delivered++ },
		}, Options{Kind: KindTotem})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = o.(*totemNode)
	}
	nodes[0].tokenHook = func(ringToken) { rotations++ }
	for _, n := range nodes {
		n.Start()
	}
	k.RunFor(time.Millisecond)
	payload := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes[0].BroadcastCancelable(payload, true, uint64(i+1))
		for next := rotations + 1; rotations < next; {
			k.Step()
		}
	}
	b.StopTimer()
	k.RunFor(time.Millisecond)
	if want := len(ids) * b.N; delivered != want {
		b.Fatalf("delivered %d messages, want %d", delivered, want)
	}
}
