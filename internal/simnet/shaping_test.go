package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"testing"

	"cts/internal/sim"
	"cts/internal/transport"
)

func TestShapeLinksLatencyOverride(t *testing.T) {
	k, n := newNet(t, Fixed(100*time.Microsecond))
	a, b := n.Endpoint(0), n.Endpoint(1)
	_ = a
	var got capture
	b.SetReceiver(got.receiver(k))

	remove := n.ShapeLinks([]transport.NodeID{0}, []transport.NodeID{1},
		LinkShape{Latency: Fixed(5 * time.Millisecond)})
	if err := n.Endpoint(0).Send(1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got.at) != 1 || got.at[0] != 5*time.Millisecond {
		t.Fatalf("shaped delivery at %v, want 5ms", got.at)
	}

	remove()
	if err := n.Endpoint(0).Send(1, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got.at) != 2 || got.at[1]-got.at[0] != 100*time.Microsecond {
		t.Fatalf("post-removal delivery times %v, want +100µs", got.at)
	}
}

func TestBlockLinksIsAsymmetric(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	var atA, atB capture
	n.Endpoint(0).SetReceiver(atA.receiver(k))
	n.Endpoint(1).SetReceiver(atB.receiver(k))

	heal := n.BlockLinks([]transport.NodeID{0}, []transport.NodeID{1})
	if err := n.Endpoint(0).Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.Endpoint(1).Send(0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(atB.data) != 0 {
		t.Fatalf("blocked direction delivered %d datagrams", len(atB.data))
	}
	if len(atA.data) != 1 || string(atA.data[0]) != "y" {
		t.Fatalf("reverse direction capture = %+v", atA)
	}

	heal()
	if err := n.Endpoint(0).Send(1, []byte("x2")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(atB.data) != 1 || string(atB.data[0]) != "x2" {
		t.Fatalf("healed direction capture = %+v", atB)
	}
}

func TestBlockedLinkDropsInFlight(t *testing.T) {
	k, n := newNet(t, Fixed(time.Millisecond))
	var got capture
	n.Endpoint(1).SetReceiver(got.receiver(k))
	if err := n.Endpoint(0).Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Block the link while the datagram is in flight: like a partition, the
	// cut drops it at delivery time.
	k.After(100*time.Microsecond, func() {
		n.BlockLinks([]transport.NodeID{0}, []transport.NodeID{1})
	})
	k.Run()
	if len(got.data) != 0 {
		t.Fatalf("in-flight datagram survived the cut: %+v", got)
	}
}

func TestPartialPartitionKeepsThirdParties(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	caps := make([]*capture, 3)
	for i := range caps {
		caps[i] = &capture{}
		n.Endpoint(transport.NodeID(i)).SetReceiver(caps[i].receiver(k))
	}

	heal := n.PartialPartition([]transport.NodeID{0}, []transport.NodeID{1})
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			msg := []byte{byte(src), byte(dst)}
			if err := n.Endpoint(transport.NodeID(src)).Send(transport.NodeID(dst), msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	k.Run()
	// 0↔1 cut both ways; every path through or to node 2 survives.
	if len(caps[0].data) != 1 || caps[0].from[0] != 2 {
		t.Fatalf("node 0 capture = %+v", caps[0])
	}
	if len(caps[1].data) != 1 || caps[1].from[0] != 2 {
		t.Fatalf("node 1 capture = %+v", caps[1])
	}
	if len(caps[2].data) != 2 {
		t.Fatalf("node 2 capture = %+v", caps[2])
	}

	heal()
	if err := n.Endpoint(0).Send(1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(caps[1].data) != 2 {
		t.Fatalf("healed 0→1 not delivered: %+v", caps[1])
	}
}

func TestRuleOrderFirstMatchWins(t *testing.T) {
	k, n := newNet(t, Fixed(time.Microsecond))
	var got capture
	n.Endpoint(1).SetReceiver(got.receiver(k))
	n.ShapeLinks([]transport.NodeID{0}, []transport.NodeID{1},
		LinkShape{Latency: Fixed(time.Millisecond)})
	n.ShapeLinks(nil, nil, LinkShape{Loss: 1}) // later, broader rule loses
	if err := n.Endpoint(0).Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(got.at) != 1 || got.at[0] != time.Millisecond {
		t.Fatalf("capture = %+v, want one delivery at 1ms", got)
	}
}

// deliveryTrace runs a fixed traffic pattern over a shaped network and
// records every delivery as "(time) src->dst len". Same seed must produce the
// identical trace.
func deliveryTrace(seed int64) []string {
	trace, _ := deliveryRun(seed)
	return trace
}

// deliveryRun is deliveryTrace, also returning the network it ran on.
func deliveryRun(seed int64) ([]string, *Network) {
	k := sim.NewKernel(seed)
	n := NewNetwork(k, Ethernet())
	var trace []string
	const nodes = 6
	for i := 0; i < nodes; i++ {
		id := transport.NodeID(i)
		dst := id
		n.Endpoint(id).SetReceiver(func(from transport.NodeID, payload []byte) {
			trace = append(trace, fmt.Sprintf("%d %d->%d %d", k.Now(), from, dst, len(payload)))
		})
	}
	// WAN tier between {0,1,2} and {3,4,5}, lossy link 1→4, asymmetric cut 5→0.
	n.ShapeLinks([]transport.NodeID{1}, []transport.NodeID{4}, LinkShape{Loss: 0.5})
	n.ShapeLinks([]transport.NodeID{0, 1, 2}, []transport.NodeID{3, 4, 5},
		LinkShape{Latency: WAN(10 * time.Millisecond)})
	n.ShapeLinks([]transport.NodeID{3, 4, 5}, []transport.NodeID{0, 1, 2},
		LinkShape{Latency: WAN(10 * time.Millisecond)})
	n.BlockLinks([]transport.NodeID{5}, []transport.NodeID{0})
	n.SetLoss(0.05)

	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < 40; step++ {
		src := transport.NodeID(rng.Intn(nodes))
		payload := make([]byte, 20+rng.Intn(200))
		at := time.Duration(step) * 250 * time.Microsecond
		k.At(at, func() {
			if rng.Float64() < 0.3 {
				_ = n.Endpoint(src).Broadcast(payload)
			} else {
				dst := transport.NodeID(rng.Intn(nodes))
				if dst != src {
					_ = n.Endpoint(src).Send(dst, payload)
				}
			}
		})
	}
	k.Run()
	return trace, n
}

func TestShapedDeliveryTraceDeterminism(t *testing.T) {
	a := deliveryTrace(42)
	b := deliveryTrace(42)
	if len(a) == 0 {
		t.Fatal("empty delivery trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	if c := deliveryTrace(43); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces; RNG not threaded")
		}
	}
}
