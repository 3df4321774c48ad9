package order

import (
	"sync"
	"testing"
	"time"

	"cts/internal/sim"
	"cts/internal/transport"
	"cts/internal/udptransport"
)

// TestSeqOverUDPTransport runs three sequencer nodes over loopback
// udptransport, each on its own real-time loop. udptransport calls the
// receiver on its read goroutine, not on the loop, so this is the test that
// catches the orderer touching loop-confined state from the receiver (the
// map race behind `ctsnode -orderer seq`): the -race CI step runs it.
func TestSeqOverUDPTransport(t *testing.T) {
	ids := []transport.NodeID{1, 2, 3}
	const perNode = 200

	trs := make([]*udptransport.Transport, len(ids))
	for i, id := range ids {
		tr, err := udptransport.New(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[i] = tr
	}
	for i, tr := range trs {
		for j, other := range trs {
			if i != j {
				if err := tr.SetPeer(ids[j], other.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Failure detection far above scheduler jitter (the defaults are tuned
	// for simulated LANs: a 10ms leader timeout elects spuriously under
	// -race), so the view stays put and every node must deliver everything.
	tuning := SeqTuning{
		HeartbeatInterval: 5 * time.Millisecond,
		ResendInterval:    20 * time.Millisecond,
		LeaderTimeout:     10 * time.Second,
		ElectionTimeout:   time.Second,
	}

	var mu sync.Mutex
	got := make([][]Delivery, len(ids))
	done := make(chan struct{})
	finished := 0
	nodes := make([]Orderer, len(ids))
	for i := range ids {
		i := i
		loop := sim.NewLoop()
		defer loop.Close()
		ord, err := New(Env{
			Runtime:   loop,
			Transport: trs[i],
			Members:   ids,
			Bootstrap: true,
			Deliver: func(d Delivery) {
				mu.Lock()
				defer mu.Unlock()
				got[i] = append(got[i], d)
				if len(got[i]) == perNode*len(ids) {
					if finished++; finished == len(ids) {
						close(done)
					}
				}
			},
		}, Options{Kind: KindSeq, Seq: tuning})
		if err != nil {
			t.Fatal(err)
		}
		defer ord.Stop()
		nodes[i] = ord
	}
	for _, ord := range nodes {
		ord.Start()
	}
	for n := 0; n < perNode; n++ {
		for i, ord := range nodes {
			if err := ord.Broadcast([]byte{byte(i), byte(n), byte(n >> 8)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d/%d/%d of %d within 20s", len(got[0]), len(got[1]), len(got[2]), perNode*len(ids))
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(ids); i++ {
		for j, d := range got[0] {
			if o := got[i][j]; o.Sender != d.Sender || string(o.Payload) != string(d.Payload) {
				t.Fatalf("node %d delivery %d = (%v, %x), node %d has (%v, %x): total order diverged",
					ids[i], j, o.Sender, o.Payload, ids[0], d.Sender, d.Payload)
			}
		}
	}
}
