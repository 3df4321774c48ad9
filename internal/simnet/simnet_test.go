package simnet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"cts/internal/sim"
	"cts/internal/testutil"
	"cts/internal/transport"
)

func newNet(t *testing.T, latency LatencyModel) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(7)
	return k, NewNetwork(k, latency)
}

type capture struct {
	from []transport.NodeID
	data [][]byte
	at   []time.Duration
}

func (c *capture) receiver(k *sim.Kernel) transport.Receiver {
	return func(from transport.NodeID, payload []byte) {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		c.from = append(c.from, from)
		c.data = append(c.data, cp)
		c.at = append(c.at, k.Now())
	}
}

func TestUnicastDeliveryWithFixedLatency(t *testing.T) {
	k, n := newNet(t, Fixed(100*time.Microsecond))
	a := n.Endpoint(0)
	b := n.Endpoint(1)
	var got capture
	b.SetReceiver(got.receiver(k))
	if err := a.Send(1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got.data) != 1 || string(got.data[0]) != "hi" || got.from[0] != 0 {
		t.Fatalf("capture = %+v", got)
	}
	if got.at[0] != 100*time.Microsecond {
		t.Fatalf("delivered at %v, want 100µs", got.at[0])
	}
}

func TestBroadcastExcludesSelf(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	caps := make([]*capture, 4)
	for i := 0; i < 4; i++ {
		caps[i] = &capture{}
		n.Endpoint(transport.NodeID(i)).SetReceiver(caps[i].receiver(k))
	}
	if err := n.Endpoint(0).Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(caps[0].data) != 0 {
		t.Fatal("sender received its own broadcast")
	}
	for i := 1; i < 4; i++ {
		if len(caps[i].data) != 1 {
			t.Fatalf("node %d received %d datagrams, want 1", i, len(caps[i].data))
		}
	}
}

func TestSenderBufferReuseIsSafe(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got capture
	b.SetReceiver(got.receiver(k))
	buf := []byte("AAAA")
	if err := a.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "BBBB") // mutate before delivery
	k.Run()
	if string(got.data[0]) != "AAAA" {
		t.Fatalf("delivered %q, want snapshot %q", got.data[0], "AAAA")
	}
}

func TestLossDropsEverythingAtOne(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got capture
	b.SetReceiver(got.receiver(k))
	n.SetLoss(1)
	for i := 0; i < 20; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if len(got.data) != 0 {
		t.Fatalf("delivered %d datagrams with loss=1", len(got.data))
	}
	_, _, dropped := n.Stats()
	if dropped != 20 {
		t.Fatalf("dropped = %d, want 20", dropped)
	}
}

func TestLossClamped(t *testing.T) {
	_, n := newNet(t, Fixed(0))
	n.SetLoss(-3)
	if n.loss != 0 {
		t.Fatalf("loss = %v, want clamp to 0", n.loss)
	}
	n.SetLoss(9)
	if n.loss != 1 {
		t.Fatalf("loss = %v, want clamp to 1", n.loss)
	}
}

func TestPartitionBlocksAcrossComponents(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	caps := make([]*capture, 4)
	for i := 0; i < 4; i++ {
		caps[i] = &capture{}
		n.Endpoint(transport.NodeID(i)).SetReceiver(caps[i].receiver(k))
	}
	n.Partition([]transport.NodeID{0, 1}, []transport.NodeID{2, 3})
	n.Endpoint(0).Broadcast([]byte("x"))
	k.Run()
	if len(caps[1].data) != 1 {
		t.Fatal("same-component delivery blocked")
	}
	if len(caps[2].data) != 0 || len(caps[3].data) != 0 {
		t.Fatal("cross-component delivery not blocked")
	}
	n.Heal()
	n.Endpoint(0).Send(2, []byte("y"))
	k.Run()
	if len(caps[2].data) != 1 {
		t.Fatal("delivery after Heal failed")
	}
}

func TestPartitionAppliedAtDeliveryTime(t *testing.T) {
	k, n := newNet(t, Fixed(time.Millisecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got capture
	b.SetReceiver(got.receiver(k))
	a.Send(1, []byte("x")) // in flight
	k.RunUntil(100 * time.Microsecond)
	n.Partition([]transport.NodeID{0}, []transport.NodeID{1})
	k.Run()
	if len(got.data) != 0 {
		t.Fatal("in-flight datagram crossed a partition formed before delivery")
	}
}

func TestDownEndpointDropsTraffic(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got capture
	b.SetReceiver(got.receiver(k))
	b.SetDown(true)
	a.Send(1, []byte("x"))
	k.Run()
	if len(got.data) != 0 {
		t.Fatal("down endpoint received a datagram")
	}
	if err := b.Send(0, []byte("y")); err == nil {
		t.Fatal("down endpoint Send should error")
	}
	if err := b.Broadcast([]byte("y")); err == nil {
		t.Fatal("down endpoint Broadcast should error")
	}
	b.SetDown(false)
	a.Send(1, []byte("z"))
	k.Run()
	if len(got.data) != 1 {
		t.Fatal("revived endpoint did not receive")
	}
}

func TestCloseBehavesAsDown(t *testing.T) {
	_, n := newNet(t, Fixed(0))
	a := n.Endpoint(0)
	n.Endpoint(1)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, nil); err == nil {
		t.Fatal("send after Close should error")
	}
}

func TestNoReceiverDatagramDropped(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	a := n.Endpoint(0)
	n.Endpoint(1) // no receiver installed
	a.Send(1, []byte("x"))
	k.Run() // must not panic
}

func TestEndpointIdempotent(t *testing.T) {
	_, n := newNet(t, Fixed(0))
	if n.Endpoint(3) != n.Endpoint(3) {
		t.Fatal("Endpoint should return the same instance per id")
	}
}

func TestStatsCountSentAndDelivered(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got capture
	b.SetReceiver(got.receiver(k))
	for i := 0; i < 5; i++ {
		a.Send(1, []byte{1})
	}
	k.Run()
	sent, delivered, dropped := n.Stats()
	if sent[0] != 5 || delivered[1] != 5 || dropped != 0 {
		t.Fatalf("sent=%v delivered=%v dropped=%d", sent, delivered, dropped)
	}
}

func TestEthernetModelShape(t *testing.T) {
	k, n := newNet(t, nil) // default Ethernet model
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got capture
	b.SetReceiver(got.receiver(k))
	const trials = 2000
	payload := make([]byte, 100) // token-sized
	var prev time.Duration
	for i := 0; i < trials; i++ {
		sendAt := prev + time.Millisecond
		k.At(sendAt, func() { a.Send(1, payload) })
		prev = sendAt
	}
	k.Run()
	if len(got.at) != trials {
		t.Fatalf("delivered %d, want %d", len(got.at), trials)
	}
	var under48, over48 int
	for i, at := range got.at {
		lat := at - time.Duration(i+1)*time.Millisecond
		if lat < 48*time.Microsecond {
			under48++
		} else {
			over48++
		}
	}
	// Fixed cost is 40µs stack + 8µs serialization: nothing may arrive faster.
	if under48 != 0 {
		t.Fatalf("%d datagrams faster than the 48µs floor", under48)
	}
	if over48 != trials {
		t.Fatalf("over48 = %d, want %d", over48, trials)
	}
}

func TestDeterministicDeliveryTimes(t *testing.T) {
	run := func() []time.Duration {
		k := sim.NewKernel(99)
		n := NewNetwork(k, nil)
		a, b := n.Endpoint(0), n.Endpoint(1)
		var got capture
		b.SetReceiver(got.receiver(k))
		for i := 0; i < 50; i++ {
			k.At(time.Duration(i)*time.Millisecond, func() { a.Send(1, []byte("x")) })
		}
		k.Run()
		return got.at
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestFIFOPerLink(t *testing.T) {
	// Even with wildly jittery latencies, back-to-back datagrams on one
	// link must arrive in send order.
	k := sim.NewKernel(17)
	n := NewNetwork(k, nil) // Ethernet model with jitter and spikes
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got []byte
	b.SetReceiver(func(_ transport.NodeID, p []byte) { got = append(got, p[0]) })
	for i := 0; i < 200; i++ {
		a.Send(1, []byte{byte(i)})
	}
	k.Run()
	if len(got) != 200 {
		t.Fatalf("delivered %d/200", len(got))
	}
	for i, v := range got {
		if v != byte(i) {
			t.Fatalf("reordered at %d: got %d", i, v)
		}
	}
}

// TestStatsMatchMapCounters: the per-endpoint counters report what the
// per-node maps they replaced reported over the shaped schedule (loss,
// shaping, blocked links, broadcasts). The expected values were recorded
// from the map-based network on the same seeds.
func TestStatsMatchMapCounters(t *testing.T) {
	for _, tc := range []struct {
		seed                int64
		sent, delivered     [6]uint64
		dropped, delivered0 uint64
	}{
		{seed: 42, sent: [6]uint64{14, 12, 23, 11, 24, 6}, delivered: [6]uint64{14, 18, 15, 14, 12, 17}, dropped: 6},
		{seed: 43, sent: [6]uint64{13, 14, 20, 26, 5, 40}, delivered: [6]uint64{19, 22, 21, 18, 23, 15}, dropped: 5},
	} {
		trace, n := deliveryRun(tc.seed)
		sent, delivered, dropped := n.Stats()
		var nDelivered uint64
		for i := range tc.sent {
			id := transport.NodeID(i)
			if sent[id] != tc.sent[i] || delivered[id] != tc.delivered[i] {
				t.Errorf("seed %d node %d: sent %d delivered %d, want %d %d",
					tc.seed, i, sent[id], delivered[id], tc.sent[i], tc.delivered[i])
			}
			nDelivered += delivered[id]
		}
		if dropped != tc.dropped {
			t.Errorf("seed %d: dropped %d, want %d", tc.seed, dropped, tc.dropped)
		}
		if nDelivered != uint64(len(trace)) {
			t.Errorf("seed %d: %d deliveries counted, %d traced", tc.seed, nDelivered, len(trace))
		}
	}
}

// TestStatsOmitIdleNodes: as with the maps, a node that never sent or
// received has no entry.
func TestStatsOmitIdleNodes(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	a := n.Endpoint(0)
	n.Endpoint(1)
	n.Endpoint(2)
	a.Send(1, []byte{1})
	k.Run()
	sent, delivered, _ := n.Stats()
	if len(sent) != 1 || len(delivered) != 1 || sent[0] != 1 || delivered[1] != 1 {
		t.Fatalf("sent=%v delivered=%v, want only node 0 sending and node 1 receiving", sent, delivered)
	}
}

// TestPartitionSetAndHealedInFlight: a partition formed and healed while
// datagrams are in flight drops exactly those that arrive while it stands.
func TestPartitionSetAndHealedInFlight(t *testing.T) {
	// A datagram of i bytes takes i ms.
	k, n := newNet(t, func(_ *rand.Rand, _, _ transport.NodeID, size int) time.Duration {
		return time.Duration(size) * time.Millisecond
	})
	a, b := n.Endpoint(0), n.Endpoint(1)
	var got []int
	b.SetReceiver(func(_ transport.NodeID, p []byte) { got = append(got, len(p)) })
	for i := 1; i <= 10; i++ {
		a.Send(1, make([]byte, i))
	}
	k.RunUntil(3*time.Millisecond + time.Microsecond)
	n.Partition([]transport.NodeID{0}, []transport.NodeID{1})
	k.RunUntil(6*time.Millisecond + time.Microsecond)
	n.Heal()
	k.Run()
	if want := []int{1, 2, 3, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v (4-6 arrive inside the partition)", got, want)
	}
	if _, _, dropped := n.Stats(); dropped != 3 {
		t.Fatalf("dropped %d, want 3", dropped)
	}
}

// TestSendDeliverAllocatesNothing: once the in-flight slab and the kernel's
// heap have grown, sending a datagram and delivering it allocate nothing.
func TestSendDeliverAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	k, n := newNet(t, Fixed(time.Microsecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	got := 0
	b.SetReceiver(func(_ transport.NodeID, p []byte) { got += len(p) })
	payload := make([]byte, 100)
	for i := 0; i < 64; i++ {
		a.Send(1, payload)
	}
	k.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		a.Send(1, payload)
		k.Step()
	}); allocs != 0 {
		t.Fatalf("Send+deliver allocates %.1f times per datagram, want 0", allocs)
	}
	if want := (64 + 1001) * len(payload); got != want {
		t.Fatalf("delivered %d bytes, want %d", got, want)
	}
}

// TestDeliveredSliceIsPoisonedInPoisonBuilds: with -tags simnetpoison, a
// payload slice kept past its receiver reads as poison, while the bytes the
// receiver saw during the call were the datagram's.
func TestDeliveredSliceIsPoisonedInPoisonBuilds(t *testing.T) {
	if !poisonDelivered {
		t.Skip("build with -tags simnetpoison")
	}
	k, n := newNet(t, Fixed(time.Microsecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	var kept []byte
	var during string
	b.SetReceiver(func(_ transport.NodeID, p []byte) { kept, during = p, string(p) })
	a.Send(1, []byte("abc"))
	k.Run()
	if during != "abc" || !slices.Equal(kept, []byte{poisonByte, poisonByte, poisonByte}) {
		t.Fatalf("receiver saw %q, retained slice reads %v afterwards; want \"abc\" then poison", during, kept)
	}
}

// BenchmarkSendDeliver: one datagram through simnet, from Send to the
// receiver, over a standing queue of 1024 later timers.
func BenchmarkSendDeliver(b *testing.B) {
	k := sim.NewKernel(1)
	n := NewNetwork(k, Fixed(10*time.Microsecond))
	src, dst := n.Endpoint(0), n.Endpoint(1)
	dst.SetReceiver(func(transport.NodeID, []byte) {})
	for i := 0; i < 1024; i++ {
		k.After(time.Hour+time.Duration(i), func() {})
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = src.Send(1, payload)
		k.Step()
	}
}

// TestEndpointAttachedAfterPartitionJoinsItsComponent: Partition names ids,
// not endpoints, so one attached later is already on its side of the cut.
func TestEndpointAttachedAfterPartitionJoinsItsComponent(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	a := n.Endpoint(0)
	n.Partition([]transport.NodeID{0, 2}, []transport.NodeID{1})
	var to1, to2 capture
	n.Endpoint(1).SetReceiver(to1.receiver(k))
	n.Endpoint(2).SetReceiver(to2.receiver(k))
	a.Broadcast([]byte("x"))
	k.Run()
	if len(to1.data) != 0 || len(to2.data) != 1 {
		t.Fatalf("delivered %d to node 1 (other side), %d to node 2 (same side); want 0 and 1",
			len(to1.data), len(to2.data))
	}
}
