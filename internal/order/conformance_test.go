package order

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
)

// The conformance suite runs every orderer implementation through the same
// table of scenarios and asserts the contract properties the layers above
// rely on: total-order agreement, gap-freedom per sender, primary-component
// view agreement, duplicate suppression and determinism, under crash,
// partition and reorder faults. The sim-instant orderer has no network
// underneath, so the partition and loss scenarios skip it.

// confKinds are the implementations under test.
var confKinds = []Kind{KindTotem, KindSeq, KindInstant}

// confHarness drives one cluster of orderers of a single kind on a simulated
// network (totem, seq) or a shared hub (instant).
type confHarness struct {
	t    *testing.T
	kind Kind
	k    *sim.Kernel
	net  *simnet.Network
	hub  *InstantHub

	nodes      map[transport.NodeID]Orderer
	deliveries map[transport.NodeID][]Delivery
	views      map[transport.NodeID][]View
}

func newConfHarness(t *testing.T, kind Kind, seed int64, latency simnet.LatencyModel) *confHarness {
	t.Helper()
	k := sim.NewKernel(seed)
	h := &confHarness{
		t:          t,
		kind:       kind,
		k:          k,
		net:        simnet.NewNetwork(k, latency),
		nodes:      make(map[transport.NodeID]Orderer),
		deliveries: make(map[transport.NodeID][]Delivery),
		views:      make(map[transport.NodeID][]View),
	}
	if kind == KindInstant {
		h.hub = NewInstantHub()
	}
	return h
}

func (h *confHarness) addNode(id transport.NodeID, members []transport.NodeID, bootstrap bool) Orderer {
	h.t.Helper()
	opts := Options{Kind: h.kind}
	if h.kind == KindInstant {
		opts.Instant = InstantTuning{Hub: h.hub}
	}
	o, err := New(Env{
		Runtime:   h.k,
		Transport: h.net.Endpoint(id),
		Members:   members,
		Bootstrap: bootstrap,
		Deliver: func(d Delivery) {
			h.deliveries[id] = append(h.deliveries[id], d)
		},
		OnView: func(v View) {
			// Every view of every scenario (crash, partition, heal, join):
			// Members is sorted ascending without repeats, as View promises.
			for i := 1; i < len(v.Members); i++ {
				if v.Members[i-1] >= v.Members[i] {
					h.t.Errorf("%v node %v: view %v members %v not sorted and unique",
						h.kind, id, v.ID, v.Members)
				}
			}
			h.views[id] = append(h.views[id], v)
		},
	}, opts)
	if err != nil {
		h.t.Fatalf("New(%v, %v): %v", h.kind, id, err)
	}
	h.nodes[id] = o
	return o
}

// ids returns the node identities in sorted order, so that start/stop
// sequences are deterministic across runs (map iteration order is not).
func (h *confHarness) ids() []transport.NodeID {
	out := make([]transport.NodeID, 0, len(h.nodes))
	for id := range h.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (h *confHarness) startAll() {
	for _, id := range h.ids() {
		h.nodes[id].Start()
	}
	h.k.RunFor(0)
}

func (h *confHarness) stopAll() {
	for _, id := range h.ids() {
		h.nodes[id].Stop()
	}
	h.k.RunFor(time.Millisecond)
}

// crash takes a node off the air: its endpoint goes down and the node stops.
func (h *confHarness) crash(id transport.NodeID) {
	h.net.Endpoint(id).SetDown(true)
	h.nodes[id].Stop()
}

// runUntil advances simulation until cond holds or maxVirtual elapses.
func (h *confHarness) runUntil(maxVirtual time.Duration, cond func() bool) bool {
	h.t.Helper()
	deadline := h.k.Now() + maxVirtual
	for h.k.Now() < deadline {
		if cond() {
			return true
		}
		h.k.RunFor(200 * time.Microsecond)
	}
	return cond()
}

func (h *confHarness) payloads(id transport.NodeID) []string {
	out := make([]string, len(h.deliveries[id]))
	for i, d := range h.deliveries[id] {
		out[i] = string(d.Payload)
	}
	return out
}

// checkAgreement verifies pairwise prefix consistency of the delivery
// sequences (payload and sender) and per-node TotalOrder contiguity.
func (h *confHarness) checkAgreement(ids ...transport.NodeID) {
	h.t.Helper()
	for _, id := range ids {
		for i, d := range h.deliveries[id] {
			if want := uint64(i + 1); d.TotalOrder != want {
				h.t.Fatalf("%v node %v: delivery %d has TotalOrder %d, want %d",
					h.kind, id, i, d.TotalOrder, want)
			}
		}
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := h.deliveries[ids[i]], h.deliveries[ids[j]]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for x := 0; x < n; x++ {
				if string(a[x].Payload) != string(b[x].Payload) || a[x].Sender != b[x].Sender {
					h.t.Fatalf("%v: order diverges at %d: node %v got %q from %v, node %v got %q from %v",
						h.kind, x, ids[i], a[x].Payload, a[x].Sender, ids[j], b[x].Payload, b[x].Sender)
				}
			}
		}
	}
}

// checkSenderFIFO verifies gap-freedom per sender: each node delivers the
// messages of each sender in broadcast order with no gaps, against the known
// per-sender broadcast log.
func (h *confHarness) checkSenderFIFO(sent map[transport.NodeID][]string, ids ...transport.NodeID) {
	h.t.Helper()
	for _, id := range ids {
		got := make(map[transport.NodeID][]string)
		for _, d := range h.deliveries[id] {
			got[d.Sender] = append(got[d.Sender], string(d.Payload))
		}
		for sender, want := range sent {
			g := got[sender]
			if len(g) != len(want) {
				h.t.Fatalf("%v node %v: delivered %d of %d messages from %v",
					h.kind, id, len(g), len(want), sender)
			}
			for i := range want {
				if g[i] != want[i] {
					h.t.Fatalf("%v node %v: sender %v message %d is %q, want %q (gap or reorder)",
						h.kind, id, sender, i, g[i], want[i])
				}
			}
		}
	}
}

func (h *confHarness) lastView(id transport.NodeID) View {
	h.t.Helper()
	vs := h.views[id]
	if len(vs) == 0 {
		h.t.Fatalf("%v node %v: no view installed", h.kind, id)
	}
	return vs[len(vs)-1]
}

func confIDs(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(i)
	}
	return out
}

func sameMembers(a, b []transport.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConformanceTotalOrderAndFIFO: every node broadcasts a burst; all nodes
// deliver all messages in one agreed order with per-sender FIFO and
// contiguous TotalOrder.
func TestConformanceTotalOrderAndFIFO(t *testing.T) {
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 1, nil)
			ids := confIDs(4)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()

			const perNode = 10
			sent := make(map[transport.NodeID][]string)
			for round := 0; round < perNode; round++ {
				for _, id := range ids {
					p := fmt.Sprintf("n%d-m%d", id, round)
					sent[id] = append(sent[id], p)
					if err := h.nodes[id].Broadcast([]byte(p)); err != nil {
						t.Fatalf("Broadcast: %v", err)
					}
				}
				h.k.RunFor(500 * time.Microsecond)
			}

			total := perNode * len(ids)
			ok := h.runUntil(2*time.Second, func() bool {
				for _, id := range ids {
					if len(h.deliveries[id]) < total {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("not all messages delivered: %d/%d/%d/%d of %d",
					len(h.deliveries[0]), len(h.deliveries[1]),
					len(h.deliveries[2]), len(h.deliveries[3]), total)
			}
			h.checkAgreement(ids...)
			h.checkSenderFIFO(sent, ids...)
			h.stopAll()
		})
	}
}

// TestConformanceSafeDelivery: safe broadcasts (the CCS mode) are delivered
// at every node, in agreement.
func TestConformanceSafeDelivery(t *testing.T) {
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 2, nil)
			ids := confIDs(4)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()

			const rounds = 5
			for i := 0; i < rounds; i++ {
				p := fmt.Sprintf("safe-%d", i)
				h.k.Post(func() {
					h.nodes[ids[i%len(ids)]].BroadcastCancelable([]byte(p), true, 0)
				})
				h.k.RunFor(2 * time.Millisecond)
			}
			ok := h.runUntil(time.Second, func() bool {
				for _, id := range ids {
					if len(h.deliveries[id]) < rounds {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("safe deliveries incomplete: %d/%d/%d/%d of %d",
					len(h.deliveries[0]), len(h.deliveries[1]),
					len(h.deliveries[2]), len(h.deliveries[3]), rounds)
			}
			h.checkAgreement(ids...)
			h.stopAll()
		})
	}
}

// TestConformanceDupKeySuppression: once a message with a dupKey has been
// delivered, a later cancelable broadcast with the same key is suppressed —
// no second delivery — and counted as <kind>.suppressed at its sender, the
// only withdrawal for a seen key. A cancel inside the submission instant
// withdraws the message entirely and is not counted.
func TestConformanceDupKeySuppression(t *testing.T) {
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 3, nil)
			ids := confIDs(3)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()

			const key = 77
			h.k.Post(func() { h.nodes[0].BroadcastCancelable([]byte("first"), false, key) })
			if !h.runUntil(time.Second, func() bool {
				for _, id := range ids {
					if len(h.deliveries[id]) < 1 {
						return false
					}
				}
				return true
			}) {
				t.Fatalf("first broadcast not delivered")
			}

			// Same key from another node, after delivery: must be suppressed.
			h.k.Post(func() { h.nodes[1].BroadcastCancelable([]byte("dup"), false, key) })
			// Cancel within the submission instant: must never reach the wire.
			h.k.Post(func() {
				cancel := h.nodes[2].BroadcastCancelable([]byte("withdrawn"), false, 0)
				if !cancel() {
					t.Errorf("cancel in submission instant reported message already sent")
				}
			})
			h.k.RunFor(100 * time.Millisecond)

			for _, id := range ids {
				for _, p := range h.payloads(id) {
					if p == "dup" || p == "withdrawn" {
						t.Fatalf("%v node %v delivered %q", kind, id, p)
					}
				}
				want := uint64(0)
				if id == 1 {
					want = 1
				}
				if got := gauge(t, h.nodes[id].(obs.Source), string(kind)+".suppressed"); got != want {
					t.Errorf("node %v: %s.suppressed = %d, want %d", id, kind, got, want)
				}
			}
			h.stopAll()
		})
	}
	// A copy queued while its node elects: the original is ordered in the
	// old view and reaches that node only in the new view's install, which
	// must note its key, or the copy is ordered a second time. The instant
	// hub has no links to block.
	for _, kind := range []Kind{KindTotem, KindSeq} {
		t.Run(string(kind)+"/during-election", func(t *testing.T) {
			h := newConfHarness(t, kind, 3, nil)
			ids := confIDs(3)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()
			h.k.RunFor(5 * time.Millisecond)
			heal := h.net.BlockLinks(ids[:1], ids[1:2])

			const key = 77
			h.k.Post(func() { h.nodes[0].BroadcastCancelable([]byte("first"), false, key) })
			h.k.RunFor(12 * time.Millisecond)
			h.k.Post(func() { h.nodes[1].BroadcastCancelable([]byte("dup"), false, key) })
			h.k.RunFor(200 * time.Millisecond)
			heal()
			h.k.RunFor(200 * time.Millisecond)

			for _, id := range ids {
				for _, p := range h.payloads(id) {
					if p == "dup" {
						t.Errorf("%v node %v delivered %q", kind, id, p)
					}
				}
			}
			if got := gauge(t, h.nodes[1].(obs.Source), string(kind)+".suppressed"); got != 1 {
				t.Errorf("node 1: %s.suppressed = %d, want 1", kind, got)
			}
			h.stopAll()
		})
	}
}

// TestConformanceCancelAfterSend: cancel tells the truth. One node submits
// cancelable broadcasts and cancels each at a different delay, from within
// the submission step to long after the send. A cancel that reports true
// withdrew a message no member ever delivers; one that reports false came
// after the message reached the wire, and every member delivers it once.
func TestConformanceCancelAfterSend(t *testing.T) {
	delays := []time.Duration{-1, 0, 10 * time.Microsecond, 50 * time.Microsecond,
		100 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 8, nil)
			ids := confIDs(3)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()
			h.k.RunFor(10 * time.Millisecond)

			withdrawn := make([]bool, len(delays))
			for i, d := range delays {
				h.k.Post(func() {
					cancel := h.nodes[1].BroadcastCancelable([]byte(fmt.Sprintf("m%d", i)), false, 0)
					if d < 0 { // within the submission step
						withdrawn[i] = cancel()
						return
					}
					h.k.After(d, func() { withdrawn[i] = cancel() })
				})
				h.k.RunFor(10 * time.Millisecond)
			}
			h.k.RunFor(100 * time.Millisecond)

			var trues, falses int
			for i, d := range delays {
				p := fmt.Sprintf("m%d", i)
				for _, id := range ids {
					n := 0
					for _, got := range h.payloads(id) {
						if got == p {
							n++
						}
					}
					if withdrawn[i] && n != 0 {
						t.Errorf("cancel after %v reported true, yet node %v delivered %s %d times", d, id, p, n)
					}
					if !withdrawn[i] && n != 1 {
						t.Errorf("cancel after %v reported false, yet node %v delivered %s %d times", d, id, p, n)
					}
				}
				if withdrawn[i] {
					trues++
				} else {
					falses++
				}
			}
			if trues == 0 || falses == 0 {
				t.Errorf("cancel reported true %d and false %d times; the delays must cover both", trues, falses)
			}
			h.checkAgreement(ids...)
			h.stopAll()
		})
	}
}

// TestConformanceBroadcastAfterStop: neither Broadcast nor
// BroadcastCancelable submitted after a node's Stop took effect reaches any
// member, and cancel says so.
func TestConformanceBroadcastAfterStop(t *testing.T) {
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 13, nil)
			ids := confIDs(3)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()
			h.k.RunFor(10 * time.Millisecond)

			h.nodes[0].Stop()
			if err := h.nodes[0].Broadcast([]byte("late")); err != nil {
				t.Fatalf("Broadcast after Stop: %v", err)
			}
			var cancel func() bool
			h.k.Post(func() { cancel = h.nodes[0].BroadcastCancelable([]byte("late-cancelable"), false, 0) })
			h.k.RunFor(200 * time.Millisecond)
			h.k.Post(func() {
				if !cancel() {
					t.Errorf("cancel after Stop reported that the message may reach the wire")
				}
			})
			h.k.RunFor(time.Millisecond)
			for _, id := range ids {
				for _, p := range h.payloads(id) {
					if p == "late" || p == "late-cancelable" {
						t.Fatalf("node %v delivered %q, broadcast after Stop", id, p)
					}
				}
			}
			h.stopAll()
		})
	}
}

// TestConformanceCancelThenBroadcast: each member cancels a proposal inside
// its submission instant and then broadcasts another. The withdrawn one is
// never delivered and the next one is, in the same view: a proposal that
// never reached the wire must not stall its sender's later ones.
func TestConformanceCancelThenBroadcast(t *testing.T) {
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 6, nil)
			ids := confIDs(3)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()
			h.k.RunFor(10 * time.Millisecond)
			views := make(map[transport.NodeID]int)
			for _, id := range ids {
				views[id] = len(h.views[id])
			}

			sent := make(map[transport.NodeID][]string)
			for _, id := range ids {
				h.k.Post(func() {
					cancel := h.nodes[id].BroadcastCancelable([]byte(fmt.Sprintf("withdrawn-%d", id)), false, 0)
					if !cancel() {
						t.Errorf("node %v: cancel in submission instant reported message already sent", id)
					}
				})
				h.k.RunFor(time.Millisecond)
				p := fmt.Sprintf("after-%d", id)
				sent[id] = append(sent[id], p)
				h.k.Post(func() { h.nodes[id].BroadcastCancelable([]byte(p), false, 0) })
				h.k.RunFor(time.Millisecond)
			}
			if !h.runUntil(time.Second, func() bool {
				for _, id := range ids {
					if len(h.deliveries[id]) < len(ids) {
						return false
					}
				}
				return true
			}) {
				t.Fatalf("deliveries after a withdrawn proposal: %d/%d/%d of %d",
					len(h.deliveries[0]), len(h.deliveries[1]), len(h.deliveries[2]), len(ids))
			}
			for _, id := range ids {
				if len(h.views[id]) != views[id] {
					t.Fatalf("node %v installed %d views meanwhile; the deliveries must not need one",
						id, len(h.views[id])-views[id])
				}
			}
			h.checkAgreement(ids...)
			h.checkSenderFIFO(sent, ids...)
			h.stopAll()
		})
	}
}

// TestConformanceCrash: the lowest member (ring representative / sequencer
// leader) crashes; the survivors agree on a primary view without it and keep
// delivering in total order.
func TestConformanceCrash(t *testing.T) {
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 4, nil)
			ids := confIDs(4)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()

			if err := h.nodes[1].Broadcast([]byte("before")); err != nil {
				t.Fatalf("Broadcast: %v", err)
			}
			h.runUntil(time.Second, func() bool {
				for _, id := range ids {
					if len(h.deliveries[id]) < 1 {
						return false
					}
				}
				return true
			})

			h.crash(0)
			survivors := ids[1:]
			ok := h.runUntil(2*time.Second, func() bool {
				for _, id := range survivors {
					v := h.views[id]
					if len(v) == 0 {
						return false
					}
					last := v[len(v)-1]
					if !sameMembers(last.Members, survivors) || !last.Primary {
						return false
					}
				}
				return true
			})
			if !ok {
				for _, id := range survivors {
					t.Logf("node %v views: %+v", id, h.views[id])
				}
				t.Fatalf("survivors did not agree on a primary view without node 0")
			}
			want := h.lastView(survivors[0]).ID
			for _, id := range survivors[1:] {
				if got := h.lastView(id).ID; got != want {
					t.Fatalf("view disagreement: node %v has %v, node %v has %v",
						survivors[0], want, id, got)
				}
			}

			base := len(h.deliveries[1])
			for i, id := range survivors {
				if err := h.nodes[id].Broadcast([]byte(fmt.Sprintf("after-%d", i))); err != nil {
					t.Fatalf("Broadcast: %v", err)
				}
			}
			ok = h.runUntil(2*time.Second, func() bool {
				for _, id := range survivors {
					if len(h.deliveries[id]) < base+len(survivors) {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("post-crash broadcasts not delivered")
			}
			h.checkAgreement(survivors...)
			h.stopAll()
		})
	}
}

// TestConformanceJoinKeepsMembersSorted: members configured in scrambled
// order, then a crash, then a joiner whose id falls in the middle of the
// survivors'. Every view handed up along the way lists its members sorted
// (the harness asserts that on each OnView); here only the end state is
// checked.
func TestConformanceJoinKeepsMembersSorted(t *testing.T) {
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 11, nil)
			scrambled := []transport.NodeID{7, 2, 9, 4}
			for _, id := range scrambled {
				h.addNode(id, scrambled, true)
			}
			h.startAll()
			settled := func(want []transport.NodeID) func() bool {
				return func() bool {
					for _, id := range want {
						if len(h.views[id]) == 0 || !sameMembers(h.lastView(id).Members, want) {
							return false
						}
					}
					return true
				}
			}
			if !h.runUntil(time.Second, settled([]transport.NodeID{2, 4, 7, 9})) {
				t.Fatalf("initial view did not settle")
			}
			h.crash(4)
			if !h.runUntil(2*time.Second, settled([]transport.NodeID{2, 7, 9})) {
				t.Fatalf("survivors did not settle after the crash")
			}
			h.addNode(5, []transport.NodeID{9, 5, 2, 7}, false).Start()
			if !h.runUntil(5*time.Second, settled([]transport.NodeID{2, 5, 7, 9})) {
				for _, id := range []transport.NodeID{2, 5, 7, 9} {
					t.Logf("node %v views: %+v", id, h.views[id])
				}
				t.Fatalf("joiner was not merged into one sorted view")
			}
			h.stopAll()
		})
	}
}

// TestConformancePartition: a 3/2 split of five nodes. The majority side
// installs a primary view and keeps ordering; the minority goes non-primary
// and orders nothing; after the heal, all five converge on one primary view
// and agree on subsequent deliveries. The instant orderer has no network to
// partition, so it is excluded.
func TestConformancePartition(t *testing.T) {
	for _, kind := range []Kind{KindTotem, KindSeq} {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 5, nil)
			ids := confIDs(5)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()
			h.runUntil(time.Second, func() bool {
				for _, id := range ids {
					if len(h.views[id]) == 0 {
						return false
					}
				}
				return true
			})

			maj, min := ids[:3], ids[3:]
			h.net.Partition(maj, min)

			ok := h.runUntil(3*time.Second, func() bool {
				for _, id := range maj {
					last := h.lastView(id)
					if !sameMembers(last.Members, maj) || !last.Primary {
						return false
					}
				}
				for _, id := range min {
					if h.lastView(id).Primary {
						return false
					}
				}
				return true
			})
			if !ok {
				for _, id := range ids {
					t.Logf("node %v last view: %+v", id, h.lastView(id))
				}
				t.Fatalf("partitioned components did not settle (majority primary, minority not)")
			}

			// The primary component keeps ordering through the partition. (A
			// non-primary component may still deliver locally — totem does,
			// seq holds proposals — the contract only requires the Primary
			// flag to be false there so the app gates decisions on it.)
			if err := h.nodes[0].Broadcast([]byte("majority-only")); err != nil {
				t.Fatalf("Broadcast: %v", err)
			}
			ok = h.runUntil(2*time.Second, func() bool {
				for _, id := range maj {
					found := false
					for _, p := range h.payloads(id) {
						if p == "majority-only" {
							found = true
						}
					}
					if !found {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("majority did not deliver during the partition")
			}

			h.net.Heal()
			ok = h.runUntil(5*time.Second, func() bool {
				want := h.lastView(0)
				if !sameMembers(want.Members, ids) || !want.Primary {
					return false
				}
				for _, id := range ids {
					last := h.lastView(id)
					if last.ID != want.ID || !sameMembers(last.Members, ids) || !last.Primary {
						return false
					}
				}
				return true
			})
			if !ok {
				for _, id := range ids {
					t.Logf("node %v last view: %+v", id, h.lastView(id))
				}
				t.Fatalf("cluster did not remerge into one primary view of all five")
			}

			// Post-heal broadcasts reach everyone, in one order.
			marks := make(map[transport.NodeID]int)
			for _, id := range ids {
				marks[id] = len(h.deliveries[id])
			}
			const healed = 5
			for i := 0; i < healed; i++ {
				if err := h.nodes[ids[i]].Broadcast([]byte(fmt.Sprintf("healed-%d", i))); err != nil {
					t.Fatalf("Broadcast: %v", err)
				}
			}
			ok = h.runUntil(3*time.Second, func() bool {
				for _, id := range ids {
					n := 0
					for _, p := range h.payloads(id)[marks[id]:] {
						if len(p) > 6 && p[:6] == "healed" {
							n++
						}
					}
					if n < healed {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("post-heal broadcasts not delivered everywhere")
			}
			var want []string
			for _, p := range h.payloads(0)[marks[0]:] {
				if len(p) > 6 && p[:6] == "healed" {
					want = append(want, p)
				}
			}
			for _, id := range ids[1:] {
				var got []string
				for _, p := range h.payloads(id)[marks[id]:] {
					if len(p) > 6 && p[:6] == "healed" {
						got = append(got, p)
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("post-heal order diverges at %d: node %v got %q, node 0 got %q",
							i, id, got[i], want[i])
					}
				}
			}
			h.stopAll()
		})
	}
}

// TestConformanceLossReorder: 5% datagram loss under the jittery Ethernet
// model (which reorders across links); the protocols recover every message
// and keep total order. Instant has no network, so it is excluded.
func TestConformanceLossReorder(t *testing.T) {
	for _, kind := range []Kind{KindTotem, KindSeq} {
		t.Run(string(kind), func(t *testing.T) {
			h := newConfHarness(t, kind, 6, simnet.Ethernet())
			ids := confIDs(4)
			for _, id := range ids {
				h.addNode(id, ids, true)
			}
			h.startAll()
			h.net.SetLoss(0.05)

			const perNode = 8
			sent := make(map[transport.NodeID][]string)
			for round := 0; round < perNode; round++ {
				for _, id := range ids {
					p := fmt.Sprintf("n%d-m%d", id, round)
					sent[id] = append(sent[id], p)
					if err := h.nodes[id].Broadcast([]byte(p)); err != nil {
						t.Fatalf("Broadcast: %v", err)
					}
				}
				h.k.RunFor(time.Millisecond)
			}
			h.net.SetLoss(0)

			total := perNode * len(ids)
			ok := h.runUntil(5*time.Second, func() bool {
				for _, id := range ids {
					if len(h.deliveries[id]) < total {
						return false
					}
				}
				return true
			})
			if !ok {
				t.Fatalf("lossy run incomplete: %d/%d/%d/%d of %d",
					len(h.deliveries[0]), len(h.deliveries[1]),
					len(h.deliveries[2]), len(h.deliveries[3]), total)
			}
			h.checkAgreement(ids...)
			h.checkSenderFIFO(sent, ids...)
			h.stopAll()
		})
	}
}

// TestConformanceDeterminism: the same seed replays the same scenario —
// including a mid-run crash — to byte-identical delivery and view sequences.
func TestConformanceDeterminism(t *testing.T) {
	type trace struct {
		deliveries map[transport.NodeID][]Delivery
		views      map[transport.NodeID][]View
	}
	scenario := func(t *testing.T, kind Kind) trace {
		h := newConfHarness(t, kind, 7, nil)
		ids := confIDs(4)
		for _, id := range ids {
			h.addNode(id, ids, true)
		}
		h.startAll()
		for round := 0; round < 6; round++ {
			for _, id := range ids {
				_ = h.nodes[id].Broadcast([]byte(fmt.Sprintf("n%d-m%d", id, round)))
			}
			h.k.RunFor(2 * time.Millisecond)
			if round == 3 {
				h.crash(0)
			}
		}
		h.k.RunFor(200 * time.Millisecond)
		h.stopAll()
		return trace{deliveries: h.deliveries, views: h.views}
	}
	for _, kind := range confKinds {
		t.Run(string(kind), func(t *testing.T) {
			a := scenario(t, kind)
			b := scenario(t, kind)
			for _, id := range confIDs(4) {
				da, db := a.deliveries[id], b.deliveries[id]
				if len(da) != len(db) {
					t.Fatalf("node %v: run A delivered %d, run B %d", id, len(da), len(db))
				}
				for i := range da {
					x, y := da[i], db[i]
					if x.TotalOrder != y.TotalOrder || x.ViewID != y.ViewID ||
						x.Seq != y.Seq || x.Sender != y.Sender ||
						string(x.Payload) != string(y.Payload) {
						t.Fatalf("node %v delivery %d differs: %+v vs %+v", id, i, x, y)
					}
				}
				va, vb := a.views[id], b.views[id]
				if len(va) != len(vb) {
					t.Fatalf("node %v: run A installed %d views, run B %d", id, len(va), len(vb))
				}
				for i := range va {
					if va[i].ID != vb[i].ID || va[i].Primary != vb[i].Primary ||
						!sameMembers(va[i].Members, vb[i].Members) {
						t.Fatalf("node %v view %d differs: %+v vs %+v", id, i, va[i], vb[i])
					}
				}
			}
		})
	}
}
