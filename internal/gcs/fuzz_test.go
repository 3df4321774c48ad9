package gcs

import (
	"bytes"
	"slices"
	"testing"

	"cts/internal/order"
	"cts/internal/testutil"
	"cts/internal/transport"
	"cts/internal/wire"
)

// fuzzView is the ordering view of the corpus's dump and of every stack the
// fuzzer delivers to.
var fuzzView = order.View{ID: order.ViewID{Epoch: 5, Rep: 1}, Members: []transport.NodeID{1, 2, 3, 4}, Primary: true}

var sampleMessage = wire.Message{Header: wire.Header{Type: wire.TypeCCS, SrcGroup: 100, DstGroup: 100, Seq: 42},
	Payload: wire.MarshalCCS(wire.CCSPayload{ThreadID: 7, Proposed: 123456789, Op: wire.OpGettimeofday})}

// sampleDump is rep 1's dump of fuzzView after members 1, 2 and 4 sent
// their groups; member 3 sent none, so the dump does not list it.
func sampleDump() []byte {
	rig := newTableRig(1)
	rig.s.groups[7] = &Group{}
	rig.s.groups[100] = &Group{}
	rig.s.onOrderView(fuzzView)
	rig.announce(1, 7, 100)
	rig.announce(2, 100)
	rig.announce(4, 7, 900, 901)
	rig.ord.sent = nil
	rig.s.broadcastDump()
	return rig.ord.sent[0]
}

// deliverRig is a stack in fuzzView that holds no member's list and records
// every application message delivered to it.
func deliverRig() (*tableRig, *[]wire.Message) {
	rig := newTableRig(1)
	var got []wire.Message
	rig.s.msgWatchers = append(rig.s.msgWatchers, func(m wire.Message, _ Meta) { got = append(got, m) })
	rig.s.onOrderView(fuzzView)
	rig.ord.sent = nil
	return rig, &got
}

// groupsOf returns the groups whose tables record p, ascending.
func groupsOf(s *Stack, p transport.NodeID) []wire.GroupID {
	var out []wire.GroupID
	for _, t := range s.tables {
		if slices.Contains(t.members, p) {
			out = append(out, t.id)
		}
	}
	return out
}

// TestWireMatchesCorpus pins the gcs envelopes and the message identity:
// the seed corpus entries hold the bytes these samples encoded to when the
// corpus was committed, and the malformed entries change what they changed
// then.
func TestWireMatchesCorpus(t *testing.T) {
	app, err := appEnvelope(sampleMessage)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"announce": encodeGroups(envAnnounce, []wire.GroupID{7, 100, 900}),
		"rejoin":   encodeGroups(envRejoin, []wire.GroupID{100}),
		"app":      app,
		"dump":     sampleDump(),
	} {
		if want := testutil.FuzzSeed(t, "FuzzDeliver", name); !bytes.Equal(b, want) {
			t.Errorf("%s encodes as %x, corpus holds %x", name, b, want)
		}
	}
	for h, want := range map[wire.Header]uint64{
		sampleMessage.Header: 0x7d6753b28d520bca,
		{Type: wire.TypeCCSBatch, SrcGroup: 0xdeadbeef, DstGroup: 1, Conn: 8, Seq: 1<<63 | 5}: 0xf889bd5768c7f253,
	} {
		if got := messageIdentity(h); got != want {
			t.Errorf("messageIdentity(%+v) = %#x, want %#x", h, got, want)
		}
	}

	rig, _ := deliverRig()
	rig.s.onDeliver(order.Delivery{Sender: 2, Payload: testutil.FuzzSeed(t, "FuzzDeliver", "truncated-announce")})
	if rig.s.stats.AnnounceDelivered != 0 || len(rig.s.tables) != 0 {
		t.Errorf("truncated announce was applied: %d delivered, %d tables", rig.s.stats.AnnounceDelivered, len(rig.s.tables))
	}
	// A dump cut inside its last entry applies the entries before it.
	rig, _ = deliverRig()
	rig.s.onDeliver(order.Delivery{Sender: 1, Payload: testutil.FuzzSeed(t, "FuzzDeliver", "truncated-dump")})
	for p, want := range map[transport.NodeID][]wire.GroupID{1: {7, 100}, 2: {100}, 4: nil} {
		if got := groupsOf(rig.s, p); !slices.Equal(got, want) {
			t.Errorf("after the truncated dump, processor %d hosts %v, want %v", p, got, want)
		}
	}
}

// FuzzDeliver feeds arbitrary totally-ordered deliveries to a stack's
// onDeliver, which decodes the application, announce, rejoin and dump
// envelopes. It must not panic; an application message it passes on must
// re-encode to the delivered bytes, and an announce or rejoin it applies
// must leave the sender recorded in exactly the groups the body lists. The
// seed corpus (testdata/fuzz) holds one envelope of each kind plus a
// truncated announce and a truncated dump.
func FuzzDeliver(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rig, got := deliverRig()
		rig.s.onDeliver(order.Delivery{Sender: 2, Payload: b})
		rig.flush()
		if len(b) == 0 {
			return
		}
		switch body := b[1:]; b[0] {
		case envApp:
			if len(*got) == 0 {
				if _, err := wire.Unmarshal(body); err == nil {
					t.Fatalf("envelope %x decodes but was not delivered", b)
				}
				return
			}
			if re, err := appEnvelope((*got)[0]); err != nil || !bytes.Equal(re, b) {
				t.Fatalf("delivered %+v from %x re-encodes as %x, %v", (*got)[0], b, re, err)
			}
		case envAnnounce, envRejoin:
			if len(body)%4 != 0 {
				return
			}
			r := wire.NewReader(body)
			listed := readGroups(&r, len(body)/4, nil)
			slices.Sort(listed)
			listed = slices.Compact(listed)
			if recorded := groupsOf(rig.s, 2); !slices.Equal(recorded, listed) {
				t.Fatalf("announce %x recorded processor 2 in %v, want %v", b, recorded, listed)
			}
		}
	})
}
