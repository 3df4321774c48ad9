package faultinject

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
)

// proc logs the Stop and Start calls the injector makes on one node.
type proc struct {
	id  transport.NodeID
	log *[]string
}

func (p proc) Stop()  { *p.log = append(*p.log, fmt.Sprintf("%d stop", p.id)) }
func (p proc) Start() { *p.log = append(*p.log, fmt.Sprintf("%d start", p.id)) }

// TestApply applies each kind on a three-node network, with a window of
// [1ms, 10ms) where the kind has one. Every node sends to every other node
// before the window (0.5ms), inside it (5ms) and after it (12ms). Each row
// names the links that deliver and the process calls made by the inside
// and after probes; before the window every link delivers at the base
// latency and no process has been touched.
func TestApply(t *testing.T) {
	const (
		all  = "01 02 10 12 20 21"
		base = time.Microsecond
	)
	ids := []transport.NodeID{0, 1, 2}
	window := func(e Event) Event {
		e.At, e.For = time.Millisecond, 9*time.Millisecond
		return e
	}
	tests := []struct {
		name                string
		events              []Event
		in, after           string        // links that deliver
		inLatency           time.Duration // every inside delivery's latency
		inProcs, afterProcs string        // process calls so far
	}{
		{name: "crash", events: []Event{{Kind: Crash, At: time.Millisecond, Nodes: []transport.NodeID{1, 2}}},
			in: "", after: "", inProcs: "1 stop, 2 stop", afterProcs: "1 stop, 2 stop"},
		{name: "isolate", events: []Event{window(Event{Kind: Isolate, Nodes: []transport.NodeID{1}})},
			in: "02 20", after: all},
		{name: "restart", events: []Event{window(Event{Kind: Restart, Nodes: []transport.NodeID{1}})},
			in: all, after: all, inProcs: "1 stop", afterProcs: "1 stop, 1 start"},
		{name: "partition", events: []Event{window(Event{Kind: Partition, Nodes: []transport.NodeID{2}, Peers: []transport.NodeID{0, 1}})},
			in: "01 10", after: all},
		{name: "block", events: []Event{window(Event{Kind: Block, Nodes: []transport.NodeID{2}, Peers: []transport.NodeID{0, 1}})},
			in: "01 10 20 21", after: all},
		{name: "cut", events: []Event{window(Event{Kind: Cut, Nodes: []transport.NodeID{1}, Peers: []transport.NodeID{2}})},
			in: "01 02 10 20", after: all},
		{name: "loss", events: []Event{window(Event{Kind: Loss, Loss: 1})},
			in: "", after: all},
		// Back to back: the first window's clear and the second's start
		// fall at 4ms, and Apply's order decides between them.
		{name: "loss-back-to-back", events: []Event{
			{Kind: Loss, At: time.Millisecond, For: 3 * time.Millisecond, Loss: 1},
			{Kind: Loss, At: 4 * time.Millisecond, For: 6 * time.Millisecond, Loss: 1}},
			in: "", after: all},
		{name: "shape", events: []Event{window(Event{Kind: Shape, Latency: 2 * time.Millisecond})},
			in: all, inLatency: 2 * time.Millisecond, after: all},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			net := simnet.NewNetwork(k, simnet.Fixed(base))
			inj := New(k, net)
			var calls []string
			delivered := map[byte][]string{}
			latency := map[byte][]time.Duration{}
			sentAt := map[byte]time.Duration{}
			for _, id := range ids {
				id := id
				inj.Register(id, proc{id: id, log: &calls})
				net.Endpoint(id).SetReceiver(func(src transport.NodeID, b []byte) {
					delivered[b[0]] = append(delivered[b[0]], fmt.Sprintf("%d%d", src, id))
					latency[b[0]] = append(latency[b[0]], k.Now()-sentAt[b[0]])
				})
			}
			procs := map[byte]string{}
			probe := func(phase byte, at time.Duration) {
				k.At(at, func() {
					sentAt[phase] = at
					procs[phase] = strings.Join(calls, ", ")
					for _, src := range ids {
						for _, dst := range ids {
							if src != dst {
								net.Endpoint(src).Send(dst, []byte{phase})
							}
						}
					}
				})
			}
			inj.Apply(tc.events...)
			probe('b', 500*time.Microsecond)
			probe('i', 5*time.Millisecond)
			probe('a', 12*time.Millisecond)
			k.RunUntil(20 * time.Millisecond)

			inLatency := tc.inLatency
			if inLatency == 0 {
				inLatency = base
			}
			for _, p := range []struct {
				phase   byte
				links   string
				latency time.Duration
				procs   string
			}{
				{'b', all, base, ""},
				{'i', tc.in, inLatency, tc.inProcs},
				{'a', tc.after, base, tc.afterProcs},
			} {
				// Deliveries arrive in the order the probe sends them.
				if got := strings.Join(delivered[p.phase], " "); got != p.links {
					t.Errorf("probe %c delivered %q, want %q", p.phase, got, p.links)
				}
				for _, l := range latency[p.phase] {
					if l != p.latency {
						t.Errorf("probe %c delivered after %v, want %v", p.phase, l, p.latency)
					}
				}
				if procs[p.phase] != p.procs {
					t.Errorf("probe %c saw process calls %q, want %q", p.phase, procs[p.phase], p.procs)
				}
			}
		})
	}
}

// pair is a two-node network with a process registered on node 1 and a
// probe that sends 0→1 at a given time; got counts what node 1 receives.
type pair struct {
	k     *sim.Kernel
	inj   *Injector
	calls []string
	got   int
}

func newPair(seed int64) *pair {
	p := &pair{k: sim.NewKernel(seed)}
	net := simnet.NewNetwork(p.k, simnet.Fixed(time.Microsecond))
	p.inj = New(p.k, net)
	p.inj.Register(1, proc{id: 1, log: &p.calls})
	net.Endpoint(1).SetReceiver(func(transport.NodeID, []byte) { p.got++ })
	return p
}

// sendAt sends one datagram 0→1 at t.
func (p *pair) sendAt(t time.Duration) {
	p.k.At(t, func() { p.inj.net.Endpoint(0).Send(1, []byte("x")) })
}

func TestCrashAtStopsEntitiesAndEndpoint(t *testing.T) {
	p := newPair(1)
	p.inj.Apply(Event{Kind: Crash, At: 10 * time.Millisecond, Nodes: []transport.NodeID{1}})
	p.sendAt(5 * time.Millisecond)  // before the crash: delivered
	p.sendAt(15 * time.Millisecond) // after it: dropped
	p.k.RunUntil(20 * time.Millisecond)

	if p.got != 1 {
		t.Fatalf("delivered %d datagrams, want 1 (pre-crash only)", p.got)
	}
	if got := strings.Join(p.calls, ", "); got != "1 stop" {
		t.Fatalf("process calls %q, want %q", got, "1 stop")
	}
}

func TestIsolateWindowKeepsEntitiesRunning(t *testing.T) {
	p := newPair(2)
	p.inj.Apply(Event{Kind: Isolate, At: time.Millisecond, For: 9 * time.Millisecond, Nodes: []transport.NodeID{1}})
	p.sendAt(5 * time.Millisecond)  // inside the window: dropped
	p.sendAt(12 * time.Millisecond) // after it: delivered
	p.k.RunUntil(20 * time.Millisecond)

	if p.got != 1 {
		t.Fatalf("delivered %d datagrams, want 1 (after the window only)", p.got)
	}
	if len(p.calls) != 0 {
		t.Fatalf("isolation touched the process: %q", p.calls)
	}
}

// An Isolate and a Restart over the same window make a crash that
// recovers: the endpoint comes back up and the process is started again.
func TestReviveAtRestoresDeliveryAndRunsStart(t *testing.T) {
	p := newPair(3)
	down := []transport.NodeID{1}
	p.inj.Apply(
		Event{Kind: Isolate, At: time.Millisecond, For: 4 * time.Millisecond, Nodes: down},
		Event{Kind: Restart, At: time.Millisecond, For: 4 * time.Millisecond, Nodes: down})
	p.sendAt(3 * time.Millisecond) // while down: dropped
	p.sendAt(7 * time.Millisecond) // after revival: delivered
	p.k.RunUntil(10 * time.Millisecond)

	if p.got != 1 {
		t.Fatalf("delivered %d datagrams, want 1 (after revival only)", p.got)
	}
	if got := strings.Join(p.calls, ", "); got != "1 stop, 1 start" {
		t.Fatalf("process calls %q, want %q", got, "1 stop, 1 start")
	}
}

// One Crash over several nodes stops every registered process, and a
// crashed node with no registered process is skipped.
func TestRegisterMultipleEntities(t *testing.T) {
	k := sim.NewKernel(5)
	net := simnet.NewNetwork(k, nil)
	inj := New(k, net)
	var calls []string
	for _, id := range []transport.NodeID{0, 1, 2} {
		inj.Register(id, proc{id: id, log: &calls})
	}
	inj.Apply(Event{Kind: Crash, At: time.Millisecond, Nodes: []transport.NodeID{0, 2, 3}})
	k.RunUntil(2 * time.Millisecond)
	if got := strings.Join(calls, ", "); got != "0 stop, 2 stop" {
		t.Fatalf("process calls %q, want %q", got, "0 stop, 2 stop")
	}
}
