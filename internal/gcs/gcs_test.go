package gcs

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

const (
	grpServer wire.GroupID = 100
	grpClient wire.GroupID = 200
)

type gcsHarness struct {
	t      *testing.T
	k      *sim.Kernel
	net    *simnet.Network
	stacks map[transport.NodeID]*Stack
	// msgs[node] = payload strings delivered to that node's handlers.
	msgs  map[transport.NodeID][]string
	views map[transport.NodeID][]GroupView
}

func newGCSHarness(t *testing.T, seed int64) *gcsHarness {
	t.Helper()
	k := sim.NewKernel(seed)
	return &gcsHarness{
		t:      t,
		k:      k,
		net:    simnet.NewNetwork(k, nil),
		stacks: make(map[transport.NodeID]*Stack),
		msgs:   make(map[transport.NodeID][]string),
		views:  make(map[transport.NodeID][]GroupView),
	}
}

func (h *gcsHarness) addStack(id transport.NodeID, ring []transport.NodeID, bootstrap bool) *Stack {
	h.t.Helper()
	s, err := New(Config{
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

// start starts every stack in id order, so that a seed fixes the order of
// the time-0 sends.
func (h *gcsHarness) start() {
	ids := make([]transport.NodeID, 0, len(h.stacks))
	for id := range h.stacks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		h.stacks[id].Start()
	}
}

func (h *gcsHarness) joinGroup(id transport.NodeID, gid wire.GroupID) *Group {
	h.t.Helper()
	g, err := h.stacks[id].Join(gid,
		func(m wire.Message, meta Meta) {
			h.msgs[id] = append(h.msgs[id], string(m.Payload))
		},
		func(v GroupView) {
			h.views[id] = append(h.views[id], v)
		})
	if err != nil {
		h.t.Fatal(err)
	}
	return g
}

func (h *gcsHarness) runUntil(max time.Duration, cond func() bool) bool {
	deadline := h.k.Now() + max
	for h.k.Now() < deadline {
		if cond() {
			return true
		}
		h.k.RunFor(200 * time.Microsecond)
	}
	return cond()
}

func appMsg(dst wire.GroupID, seq uint64, payload string) wire.Message {
	return wire.Message{
		Header: wire.Header{Type: wire.TypeRequest, SrcGroup: grpClient,
			DstGroup: dst, Conn: 1, Seq: seq},
		Payload: []byte(payload),
	}
}

func TestGroupMulticastDeliversToMembersOnly(t *testing.T) {
	h := newGCSHarness(t, 1)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	// Server group on 1,2,3; node 0 is a non-member client.
	for _, id := range ring[1:] {
		h.joinGroup(id, grpServer)
	}
	h.start()
	h.k.RunFor(2 * time.Millisecond)

	client := h.stacks[0]
	h.k.Post(func() { client.Multicast(appMsg(grpServer, 1, "req-1")) })

	ok := h.runUntil(time.Second, func() bool {
		return len(h.msgs[1]) == 1 && len(h.msgs[2]) == 1 && len(h.msgs[3]) == 1
	})
	if !ok {
		t.Fatalf("members got %d/%d/%d messages",
			len(h.msgs[1]), len(h.msgs[2]), len(h.msgs[3]))
	}
	if len(h.msgs[0]) != 0 {
		t.Fatal("non-member delivered a group message")
	}
	if h.msgs[1][0] != "req-1" {
		t.Fatalf("payload = %q", h.msgs[1][0])
	}
}

func TestGroupViewsConverge(t *testing.T) {
	h := newGCSHarness(t, 2)
	ring := []transport.NodeID{0, 1, 2}
	for _, id := range ring {
		h.addStack(id, ring, true)
		h.joinGroup(id, grpServer)
	}
	h.start()
	ok := h.runUntil(time.Second, func() bool {
		for _, id := range ring {
			vs := h.views[id]
			if len(vs) == 0 || len(vs[len(vs)-1].Members) != 3 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("group views did not converge to 3 members")
	}
	for _, id := range ring {
		v := h.views[id][len(h.views[id])-1]
		if !v.Primary {
			t.Fatalf("%v final view not primary: %+v", id, v)
		}
		for i, m := range v.Members {
			if m != transport.NodeID(i) {
				t.Fatalf("%v members = %v", id, v.Members)
			}
		}
	}
}

func TestTotalOrderAcrossSenders(t *testing.T) {
	h := newGCSHarness(t, 3)
	ring := []transport.NodeID{0, 1, 2}
	for _, id := range ring {
		h.addStack(id, ring, true)
		h.joinGroup(id, grpServer)
	}
	h.start()
	h.k.RunFor(2 * time.Millisecond)
	for i, id := range ring {
		s := h.stacks[id]
		for m := 0; m < 10; m++ {
			payload := fmt.Sprintf("n%d-m%d", i, m)
			seq := uint64(i*100 + m)
			h.k.At(h.k.Now()+time.Duration(m*100+i*7)*time.Microsecond, func() {
				s.Multicast(appMsg(grpServer, seq, payload))
			})
		}
	}
	ok := h.runUntil(2*time.Second, func() bool {
		return len(h.msgs[0]) >= 30 && len(h.msgs[1]) >= 30 && len(h.msgs[2]) >= 30
	})
	if !ok {
		t.Fatal("not all messages delivered")
	}
	for i := range h.msgs[0] {
		if h.msgs[0][i] != h.msgs[1][i] || h.msgs[1][i] != h.msgs[2][i] {
			t.Fatalf("order diverges at %d: %q %q %q",
				i, h.msgs[0][i], h.msgs[1][i], h.msgs[2][i])
		}
	}
}

func TestLeaveRemovesFromViews(t *testing.T) {
	h := newGCSHarness(t, 4)
	ring := []transport.NodeID{0, 1, 2}
	var groups []*Group
	for _, id := range ring {
		h.addStack(id, ring, true)
		groups = append(groups, h.joinGroup(id, grpServer))
	}
	h.start()
	h.runUntil(time.Second, func() bool {
		vs := h.views[0]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 3
	})
	groups[2].Leave()
	ok := h.runUntil(time.Second, func() bool {
		vs := h.views[0]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 2
	})
	if !ok {
		t.Fatal("leave not reflected in group view")
	}
	// Messages no longer reach the departed member.
	before := len(h.msgs[2])
	s := h.stacks[0]
	h.k.Post(func() { s.Multicast(appMsg(grpServer, 999, "post-leave")) })
	h.runUntil(time.Second, func() bool { return len(h.msgs[0]) > 0 })
	h.k.RunFor(5 * time.Millisecond)
	if len(h.msgs[2]) != before {
		t.Fatal("departed member still receives group messages")
	}
}

func TestCrashShrinksGroupView(t *testing.T) {
	h := newGCSHarness(t, 5)
	ring := []transport.NodeID{0, 1, 2, 3}
	for _, id := range ring {
		h.addStack(id, ring, true)
		h.joinGroup(id, grpServer)
	}
	h.start()
	h.runUntil(time.Second, func() bool {
		vs := h.views[0]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 4
	})
	h.stacks[3].Stop()
	h.net.Endpoint(3).SetDown(true)
	ok := h.runUntil(2*time.Second, func() bool {
		for _, id := range ring[:3] {
			vs := h.views[id]
			if len(vs) == 0 || len(vs[len(vs)-1].Members) != 3 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("group view did not shrink after crash")
	}
	v := h.views[0][len(h.views[0])-1]
	if !v.Primary {
		t.Fatal("3-of-4 component should be primary")
	}
}

func TestJoinerLearnsExistingGroups(t *testing.T) {
	h := newGCSHarness(t, 6)
	ring := []transport.NodeID{0, 1, 2}
	for _, id := range ring {
		h.addStack(id, ring, true)
		h.joinGroup(id, grpServer)
	}
	h.start()
	h.k.RunFor(3 * time.Millisecond)

	// Node 3 joins the ring and the group.
	joiner := h.addStack(3, []transport.NodeID{0, 1, 2, 3}, false)
	h.joinGroup(3, grpServer)
	joiner.Start()

	ok := h.runUntil(2*time.Second, func() bool {
		vs := h.views[3]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 4
	})
	if !ok {
		t.Fatal("joiner never saw the 4-member group view")
	}
	// And existing members see the joiner.
	ok = h.runUntil(time.Second, func() bool {
		vs := h.views[0]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 4
	})
	if !ok {
		t.Fatal("existing members never saw the joiner")
	}
	// New messages reach all four.
	s := h.stacks[1]
	h.k.Post(func() { s.Multicast(appMsg(grpServer, 50, "to-all")) })
	ok = h.runUntil(time.Second, func() bool {
		for _, id := range []transport.NodeID{0, 1, 2, 3} {
			found := false
			for _, p := range h.msgs[id] {
				if p == "to-all" {
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
		t.Fatal("post-join multicast did not reach all members")
	}
}

func TestWatchViewsSeesForeignGroup(t *testing.T) {
	h := newGCSHarness(t, 7)
	ring := []transport.NodeID{0, 1}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.joinGroup(1, grpServer) // only node 1 is a member
	var watched []GroupView
	h.stacks[0].WatchViews(func(v GroupView) {
		if v.Group == grpServer {
			watched = append(watched, v)
		}
	})
	h.start()
	ok := h.runUntil(time.Second, func() bool {
		return len(watched) > 0 && len(watched[len(watched)-1].Members) == 1
	})
	if !ok {
		t.Fatal("watcher never saw the foreign group's view")
	}
}

func TestMulticastToUnknownGroupIsDropped(t *testing.T) {
	h := newGCSHarness(t, 8)
	ring := []transport.NodeID{0, 1}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.start()
	h.k.RunFor(2 * time.Millisecond)
	s := h.stacks[0]
	h.k.Post(func() { s.Multicast(appMsg(777, 1, "nobody-home")) })
	h.k.RunFor(5 * time.Millisecond) // must not panic, nothing delivered
	if len(h.msgs[0])+len(h.msgs[1]) != 0 {
		t.Fatal("message delivered to a group with no members")
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.NewNetwork(k, nil)
	if _, err := New(Config{Runtime: k}); err == nil {
		t.Fatal("missing transport accepted")
	}
	if _, err := New(Config{Transport: net.Endpoint(0)}); err == nil {
		t.Fatal("missing runtime accepted")
	}
	s, err := New(Config{Runtime: k, Transport: net.Endpoint(0),
		Members: []transport.NodeID{0}, Bootstrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(1, nil, nil); err == nil {
		t.Fatal("nil message handler accepted")
	}
}

func TestGroupIDCodec(t *testing.T) {
	buf := make([]byte, 4)
	for _, id := range []wire.GroupID{0, 1, 255, 1 << 16, ^wire.GroupID(0)} {
		putGroupID(buf, id)
		if got := getGroupID(buf); got != id {
			t.Fatalf("group id %d round-tripped to %d", id, got)
		}
	}
}

func TestMulticastCancelableSuppression(t *testing.T) {
	h := newGCSHarness(t, 9)
	ring := []transport.NodeID{0, 1}
	for _, id := range ring {
		h.addStack(id, ring, true)
		h.joinGroup(id, grpServer)
	}
	h.start()
	h.k.RunFor(2 * time.Millisecond)
	s := h.stacks[0]
	h.k.Post(func() {
		cancel, err := s.MulticastCancelable(appMsg(grpServer, 7, "withdrawn"), false)
		if err != nil {
			t.Error(err)
			return
		}
		if !cancel() {
			t.Error("cancel before token visit should succeed")
		}
		if !cancel() {
			t.Error("cancel is idempotent: still guaranteed unsent")
		}
	})
	h.k.RunFor(5 * time.Millisecond)
	for _, id := range ring {
		for _, p := range h.msgs[id] {
			if p == "withdrawn" {
				t.Fatal("cancelled multicast was delivered")
			}
		}
	}
	// A non-cancelled one goes through, and cancel-after-send reports false.
	h.k.Post(func() {
		cancel, err := s.MulticastCancelable(appMsg(grpServer, 8, "kept"), false)
		if err != nil {
			t.Error(err)
			return
		}
		h.k.After(5*time.Millisecond, func() {
			if cancel() {
				t.Error("cancel after send should report false")
			}
		})
	})
	ok := h.runUntil(time.Second, func() bool {
		return len(h.msgs[0]) > 0 && h.msgs[0][len(h.msgs[0])-1] == "kept"
	})
	if !ok {
		t.Fatal("kept multicast not delivered")
	}
}

func TestWatchMessagesSeesAllTraffic(t *testing.T) {
	h := newGCSHarness(t, 10)
	ring := []transport.NodeID{0, 1}
	for _, id := range ring {
		h.addStack(id, ring, true)
	}
	h.joinGroup(1, grpServer) // node 0 is not a member
	var sniffed []string
	h.stacks[0].WatchMessages(func(m wire.Message, meta Meta) {
		sniffed = append(sniffed, string(m.Payload))
	})
	h.start()
	h.k.RunFor(2 * time.Millisecond)
	s := h.stacks[1]
	h.k.Post(func() { s.Multicast(appMsg(grpServer, 1, "observed")) })
	ok := h.runUntil(time.Second, func() bool {
		for _, p := range sniffed {
			if p == "observed" {
				return true
			}
		}
		return false
	})
	if !ok {
		t.Fatal("watcher did not observe foreign-group traffic")
	}
	if len(h.msgs[0]) != 0 {
		t.Fatal("non-member received group delivery")
	}
}
