package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"cts"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/transport"
	"cts/internal/udptransport"
)

const (
	serverGroup cts.GroupID = cts.DefaultGroup
	clientGroup cts.GroupID = 900

	replicaCount = 3
	clientNodeID = transport.NodeID(4)

	// keptEventsPerNode caps the core-scope trace events a traced node
	// retains (≈90 bytes each); the stage percentiles come from the rounds
	// that fit.
	keptEventsPerNode = 150_000
)

// benchTotem sizes Totem's failure detector for a shared box. The package
// defaults (10ms token loss) are calibrated for the simulated testbed; on a
// time-shared 2-CPU machine a scheduler hiccup then reads as token loss →
// view change → lease invalidation → FlagStale refusals (see README, "Known
// defects at the baseline").
var benchTotem = order.TotemTuning{
	TokenLossTimeout:    250 * time.Millisecond,
	TokenRetransTimeout: 50 * time.Millisecond,
	JoinTimeout:         125 * time.Millisecond,
	CommitTimeout:       250 * time.Millisecond,
}

func benchOrderer() order.Options {
	return order.Options{Kind: order.KindTotem, Totem: benchTotem}
}

// countingTransport wraps a node's transport.Transport: the udptransport
// layer measured from its boundary. It counts datagrams and bytes both ways
// and the time spent inside Send/Broadcast; with a span log it also records
// one span per call.
type countingTransport struct {
	inner transport.Transport
	peers uint64 // datagrams one Broadcast puts on the wire

	sends  atomic.Uint64
	bytes  atomic.Uint64
	recvs  atomic.Uint64
	busyNs atomic.Int64
	calls  atomic.Uint64
	spans  *spanLog
}

func (t *countingTransport) LocalID() transport.NodeID { return t.inner.LocalID() }
func (t *countingTransport) Close() error              { return t.inner.Close() }

func (t *countingTransport) SetReceiver(r transport.Receiver) {
	t.inner.SetReceiver(func(from transport.NodeID, payload []byte) {
		t.recvs.Add(1)
		r(from, payload)
	})
}

func (t *countingTransport) Send(to transport.NodeID, payload []byte) error {
	t0 := mono()
	err := t.inner.Send(to, payload)
	t.sent(t0, 1, len(payload))
	return err
}

func (t *countingTransport) Broadcast(payload []byte) error {
	t0 := mono()
	err := t.inner.Broadcast(payload)
	t.sent(t0, t.peers, len(payload))
	return err
}

func (t *countingTransport) sent(t0 time.Duration, dgrams uint64, size int) {
	t1 := mono()
	t.sends.Add(dgrams)
	t.bytes.Add(dgrams * uint64(size))
	t.busyNs.Add(int64(t1 - t0))
	seq := t.calls.Add(1)
	if t.spans != nil {
		node := uint32(t.inner.LocalID())
		t.spans.add(span{Name: spanUDPSend, ID: spanID(spanUDPSend, node, seq), Node: node, Start: t0, End: t1})
	}
}

// countingClock wraps the system clock at the hwclock.Clock boundary and
// counts physical clock reads. Read stays allocation-free: core.LeaseRead
// dispatches to it on the serve path.
type countingClock struct {
	inner hwclock.SystemClock
	reads atomic.Uint64
}

func (c *countingClock) Read() time.Duration {
	c.reads.Add(1)
	return c.inner.Read()
}

func (c *countingClock) Granularity() time.Duration { return c.inner.Granularity() }

// eventSink is a traced node's obs sink: it counts every event the stack
// emits and retains the core-scope round events (the first
// keptEventsPerNode of them) in a MemorySink. Totem's token_recv events,
// ≈30k/s per node, are counted and dropped.
type eventSink struct {
	total atomic.Uint64
	kept  atomic.Uint64
	keep  *obs.MemorySink
}

func (s *eventSink) Emit(ev obs.Event) {
	s.total.Add(1)
	if ev.Scope != obs.ScopeCore {
		return
	}
	// MemorySink's own limit shifts the whole buffer per event once full,
	// so the cap is applied here and the sink stays unbounded.
	if s.kept.Add(1) <= keptEventsPerNode {
		s.keep.Emit(ev)
	}
}

// node is one ring member: a replica built through the cts facade, or the
// unreplicated rpc client on its own gcs stack.
type node struct {
	id    transport.NodeID
	udp   *udptransport.Transport
	wire  *countingTransport
	loop  *sim.Loop
	clock *countingClock
	rec   *obs.Recorder
	sink  *eventSink // nil unless traced
	spans *spanLog   // nil unless traced

	svc *cts.Service // replicas

	stack  *gcs.Stack // client node
	client *rpc.Client
}

// groupConfig selects what a group is assembled with.
type groupConfig struct {
	traced bool
	// client adds a 4th ring member running gcs + rpc.Client.
	client bool
	// timeserve enables the facade's serving frontend (lease window 1s,
	// ServeIO auto) on every replica.
	timeserve bool
	// app builds a replica's application; nil selects the facade default.
	app func(n *node) cts.Application
}

// group is a 3-replica deployment over loopback UDP, assembled the way a
// real one is: through cts.New over udptransport, Totem underneath.
type group struct {
	replicas []*node
	client   *node
}

func (g *group) nodes() []*node {
	if g.client == nil {
		return g.replicas
	}
	return append(append([]*node(nil), g.replicas...), g.client)
}

// startGroup binds the ring, starts every member and returns once the
// replicas have been constructed and started; readiness (leases, liveness)
// is the workload's to wait for.
func startGroup(cfg groupConfig) (g *group, err error) {
	ring := make([]transport.NodeID, 0, replicaCount+1)
	for i := 1; i <= replicaCount; i++ {
		ring = append(ring, transport.NodeID(i))
	}
	if cfg.client {
		ring = append(ring, clientNodeID)
	}
	g = &group{}
	defer func() {
		if err != nil {
			g.stop()
			g = nil
		}
	}()
	members := make([]*node, 0, len(ring))
	for _, id := range ring {
		n := &node{id: id, clock: &countingClock{}}
		if cfg.traced {
			n.spans = newSpanLog()
			n.sink = &eventSink{keep: obs.NewMemorySink(0)}
		}
		if id == clientNodeID {
			g.client = n
		} else {
			g.replicas = append(g.replicas, n)
		}
		members = append(members, n)
		if n.udp, err = udptransport.New(id, "127.0.0.1:0"); err != nil {
			return g, err
		}
		n.wire = &countingTransport{inner: n.udp, peers: uint64(len(ring) - 1), spans: n.spans}
	}
	for _, a := range members {
		for _, b := range members {
			if a != b {
				if err = a.udp.SetPeer(b.id, b.udp.LocalAddr()); err != nil {
					return g, err
				}
			}
		}
	}
	for _, n := range members {
		n.loop = sim.NewLoop()
		oc := obs.Config{Node: uint32(n.id), Now: mono}
		if n.sink != nil {
			oc.Sink = n.sink
		}
		if n.rec, err = obs.New(oc); err != nil {
			return g, err
		}
		if n == g.client {
			err = n.startClient(ring)
		} else {
			err = n.startReplica(ring, cfg)
		}
		if err != nil {
			return g, err
		}
	}
	return g, nil
}

func (n *node) startReplica(ring []transport.NodeID, cfg groupConfig) error {
	opts := []cts.Option{
		cts.WithRuntime(n.loop),
		cts.WithTransport(n.wire),
		cts.WithMembers(ring),
		cts.WithOrderer(benchOrderer()),
		cts.WithGroup(serverGroup),
		cts.WithClock(n.clock),
		cts.WithObservability(n.rec),
	}
	if cfg.app != nil {
		opts = append(opts, cts.WithApplication(cfg.app(n)))
	}
	if cfg.timeserve {
		opts = append(opts, cts.WithTimeServe(cts.TimeServeConfig{
			Addr:        "127.0.0.1:0",
			LeaseWindow: time.Second,
			ServeIO:     "auto",
		}))
	}
	svc, err := cts.New(opts...)
	if err != nil {
		return err
	}
	n.svc = svc
	return svc.Start()
}

func (n *node) startClient(ring []transport.NodeID) error {
	stack, err := gcs.New(gcs.Config{
		Runtime:   n.loop,
		Transport: n.wire,
		Members:   ring,
		Bootstrap: true,
		Order:     benchOrderer(),
		Obs:       n.rec,
	})
	if err != nil {
		return err
	}
	n.stack = stack
	n.client, err = rpc.NewClient(rpc.ClientConfig{
		Runtime:     n.loop,
		Stack:       stack,
		ClientGroup: clientGroup,
		ServerGroup: serverGroup,
		Timeout:     2 * time.Second,
		Obs:         n.rec,
	})
	if err != nil {
		return err
	}
	stack.Start()
	return nil
}

// stop tears the group down; safe on a partly started group.
func (g *group) stop() {
	for _, n := range g.nodes() {
		if n.client != nil {
			n.client.Close()
		}
		if n.svc != nil {
			n.svc.Stop()
		}
		if n.stack != nil {
			n.stack.Stop()
		}
		if n.loop != nil {
			n.loop.Close()
		}
		if n.udp != nil {
			_ = n.udp.Close() // teardown: the socket is going away either way
		}
	}
}

// onLoop runs fn on the node's loop and waits for it; the stack's counters
// and liveness flags are loop-confined.
func (n *node) onLoop(fn func()) {
	done := make(chan struct{})
	n.loop.Post(func() {
		fn()
		close(done)
	})
	<-done
}

// live reports whether every replica's manager holds current state in the
// primary component.
func (g *group) live() bool {
	for _, n := range g.replicas {
		ok := false
		n.onLoop(func() { ok = n.svc.Manager().Live() && n.svc.Manager().InPrimaryComponent() })
		if !ok {
			return false
		}
	}
	return true
}

// leased reports whether every replica serves from a valid lease.
func (g *group) leased() bool {
	for _, n := range g.replicas {
		if _, ok := n.svc.LeaseRead(); !ok {
			return false
		}
	}
	return true
}

// counters sums every member's obs-registry counters (the stack's own
// canonical names) and adds the bench-side boundary counters under "bench.".
func (g *group) counters() map[string]uint64 {
	sum := map[string]uint64{}
	for _, n := range g.nodes() {
		var samples []obs.Sample
		n.onLoop(func() { samples = n.rec.Samples() })
		samples = append(samples, n.udp.ObsSamples()...)
		for _, s := range samples {
			sum[s.Name] += s.Value
		}
		sum["bench.udp_sends"] += n.wire.sends.Load()
		sum["bench.udp_bytes"] += n.wire.bytes.Load()
		sum["bench.udp_recvs"] += n.wire.recvs.Load()
		sum["bench.udp_busy_ns"] += uint64(n.wire.busyNs.Load())
		sum["bench.clock_reads"] += n.clock.reads.Load()
		if n.sink != nil {
			sum["bench.obs_events"] += n.sink.total.Load()
		}
	}
	return sum
}

// delta subtracts before from after, name by name.
func delta(after, before map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanLogs lists every member's span log (nil entries when untraced).
func (g *group) spanLogs() []*spanLog {
	var logs []*spanLog
	for _, n := range g.nodes() {
		logs = append(logs, n.spans)
	}
	return logs
}

// waitReady polls cond until the group is ready or 15s pass.
func waitReady(what string, cond func() bool) error {
	if !waitFor(15*time.Second, 5*time.Millisecond, cond) {
		return fmt.Errorf("group not ready within 15s: %s", what)
	}
	return nil
}
