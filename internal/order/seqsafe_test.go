package order

import (
	"math/rand"
	"testing"

	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
)

// newSeqLeader bootstraps node 0 of an n-member seq view on its own kernel
// and returns it operational, as the view's leader. Its datagrams go to
// endpoints nobody else holds, so the test drives it by calling its
// handlers directly.
func newSeqLeader(tb testing.TB, n int) *seqNode {
	tb.Helper()
	k := sim.NewKernel(1)
	net := simnet.NewNetwork(k, nil)
	ord, err := newSeqOrderer(Env{
		Runtime: k, Transport: net.Endpoint(0), Members: confIDs(n), Bootstrap: true,
		Deliver: func(Delivery) {},
	}, Options{Kind: KindSeq})
	if err != nil {
		tb.Fatal(err)
	}
	l := ord.(*seqNode)
	l.Start()
	k.RunFor(0)
	if l.state != seqOperational || l.leader != l.me {
		tb.Fatalf("node 0 is not the operational leader: state %v, leader %v", l.state, l.leader)
	}
	return l
}

// scanSafe is the safe point by definition: the least of the leader's aru
// and every follower's acked aru.
func scanSafe(l *seqNode) uint64 {
	sp := l.myAru
	for r, m := range l.view.Members {
		if m != l.me && l.arus[r] < sp {
			sp = l.arus[r]
		}
	}
	return sp
}

// TestSafePointMatchesScan drives a 100-member leader with random safe
// proposals and random, repeating, out-of-date and non-member acks, and
// requires the amortised safe point to equal the full scan after every
// event.
func TestSafePointMatchesScan(t *testing.T) {
	const n = 100
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newSeqLeader(t, n)
		next := make(map[transport.NodeID]uint64)
		advances := 0
		for ev := 0; ev < 20000; ev++ {
			before := l.safePoint
			if rng.Intn(8) == 0 {
				from := transport.NodeID(rng.Intn(n))
				next[from]++
				l.onPropose(&seqPropose{View: l.view.ID, Sender: from, Local: next[from], Safe: true,
					Payload: []byte{1}})
			} else {
				from := transport.NodeID(1 + rng.Intn(n+5)) // a few strangers too
				aru := l.highSeq
				if rng.Intn(2) == 0 && aru > 0 {
					aru = uint64(rng.Int63n(int64(aru) + 1))
				}
				l.onAck(&seqAck{View: l.view.ID, From: from, Aru: aru})
			}
			if want := scanSafe(l); l.safePoint != want {
				t.Fatalf("seed %d event %d: safe point %d, full scan %d", seed, ev, l.safePoint, want)
			}
			if l.safePoint > before {
				advances++
			}
		}
		if advances < 50 {
			t.Fatalf("seed %d: the safe point advanced only %d times", seed, advances)
		}
	}
}

// BenchmarkSeqLeaderAcks100 times what one ordered entry costs a 100-member
// view's leader: sequencing it and taking every follower's ack for it.
func BenchmarkSeqLeaderAcks100(b *testing.B) {
	const n = 100
	l := newSeqLeader(b, n)
	acks := make([]seqAck, n)
	for i := range acks {
		acks[i] = seqAck{View: l.view.ID, From: transport.NodeID(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.onPropose(&seqPropose{View: l.view.ID, Sender: 0, Local: uint64(i + 1), Safe: true, Payload: []byte{1}})
		for j := 1; j < n; j++ {
			acks[j].Aru = l.highSeq
			l.onAck(&acks[j])
		}
	}
}
