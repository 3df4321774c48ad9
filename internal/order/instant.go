package order

import (
	"sort"

	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/transport"
)

// InstantHub is the shared ordering point of the sim-instant orderer: an
// in-process total-order oracle for large simulation campaigns. Every node
// of the simulated component registers against one hub (and therefore one
// runtime); a broadcast is sequenced and delivered to every active node in
// a single simulated step, with zero protocol traffic. This trades fault
// realism for scale — crash and recovery are modelled (Stop/Start change
// the membership and advance the view epoch), but partitions and message
// loss are not, since there is no network underneath.
//
// All hub state is confined to the shared runtime loop.
type InstantHub struct {
	rt     sim.Runtime
	quorum int
	epoch  uint64
	seq    uint64
	nodes  map[transport.NodeID]*instantNode // registered (Start/Stop toggle active)
	out    outbox                            // every node's broadcasts, and the dupKeys ordered
	// active caches the active nodes in id order, so a delivery walks a
	// slice instead of looking every receiver up in nodes. Rebuilding it on
	// every delivery is O(N log N) per message, which dominates
	// thousand-node campaigns; instead the cache is invalidated only when
	// Start/Stop change membership. The slice is replaced, never mutated in
	// place, so a delivery or view loop in progress keeps its snapshot.
	active      []*instantNode
	activeDirty bool
	// emitQueued coalesces view emission: a batch of Start/Stop calls
	// landing in one instant (a campaign booting hundreds of nodes, a churn
	// wave) produces one membership view instead of one per call. The
	// activation itself is immediate — deliveries already include (or
	// exclude) the toggled node — only the view callback is deferred to the
	// end of the instant.
	emitQueued bool
}

// NewInstantHub creates an empty hub. Nodes attach via New with
// Options{Kind: KindInstant, Instant: InstantTuning{Hub: hub}}.
func NewInstantHub() *InstantHub {
	h := &InstantHub{nodes: make(map[transport.NodeID]*instantNode)}
	h.out.flush = h.flush
	return h
}

// instantNode is one processor's endpoint of the hub.
type instantNode struct {
	endpoint
	hub    *InstantHub
	active bool
	stats  struct {
		Broadcasts uint64
		Suppressed uint64
	}
}

func newInstantOrderer(env Env, opts Options) (Orderer, error) {
	hub := opts.Instant.Hub
	me := env.Transport.LocalID()
	n := &instantNode{endpoint: endpoint{env: env, me: me}, hub: hub}
	if hub.rt == nil {
		hub.rt = env.Runtime
		hub.quorum = majority(len(env.Members))
	}
	hub.nodes[me] = n
	env.Obs.Register(n)
	return n, nil
}

// Start activates the node: the hub advances its view epoch and emits the
// new membership to every active node.
func (n *instantNode) Start() {
	n.hub.rt.Post(func() {
		if n.active {
			return
		}
		n.active = true
		n.hub.activeDirty = true
		n.hub.scheduleEmit()
	})
}

// Stop deactivates the node; no further callbacks run after the posted stop
// takes effect.
func (n *instantNode) Stop() {
	n.hub.rt.Post(func() {
		if !n.active {
			return
		}
		n.active = false
		n.hub.activeDirty = true
		n.hub.scheduleEmit()
	})
}

// Broadcast implements Orderer. The message is ordered and delivered to
// every active node in one simulated step.
func (n *instantNode) Broadcast(payload []byte) error {
	p := newPending(n.me, payload, false, 0)
	n.hub.rt.Post(func() {
		n.submit(p)
		n.hub.flush()
	})
	return nil
}

// BroadcastCancelable implements Orderer. The hub's flush runs as a
// separate posted step, so a cancel within the submitting instant withdraws
// the message before ordering, mirroring the wire orderers' suppression
// window.
func (n *instantNode) BroadcastCancelable(payload []byte, safe bool, dupKey uint64) func() bool {
	p := newPending(n.me, payload, safe, dupKey)
	n.submit(p)
	n.hub.out.flushSoon(n.hub.rt)
	return p.cancel
}

// submit queues p on the hub and counts it as this node's broadcast.
func (n *instantNode) submit(p *pending) {
	n.hub.out.add(p)
	n.stats.Broadcasts++
}

// flush orders every queued broadcast. Loop-only.
func (h *InstantHub) flush() {
	pend := h.out.q
	h.out.q = nil
	for _, p := range pend {
		sender := h.nodes[p.sender]
		if sender == nil || !sender.active {
			continue // sender stopped between queue and flush
		}
		if h.out.withdrawn(p, &sender.stats.Suppressed) {
			continue
		}
		p.sent = true
		h.out.see(p.dupKey, len(h.activeNodes()))
		h.seq++
		view := h.viewID()
		for _, n := range h.activeNodes() {
			n.deliver(view, h.seq, p.sender, p.payload)
		}
	}
}

// scheduleEmit posts one deferred emitViews for the current instant.
func (h *InstantHub) scheduleEmit() {
	if h.emitQueued {
		return
	}
	h.emitQueued = true
	h.rt.Post(func() {
		h.emitQueued = false
		h.emitViews()
	})
}

// emitViews advances the epoch and delivers the new view to every active
// node. Any queued-but-unflushed broadcasts are flushed first, under the
// old view, preserving view synchrony.
func (h *InstantHub) emitViews() {
	h.flush()
	h.epoch++
	active := h.activeNodes()
	if len(active) == 0 {
		return
	}
	// One member list shared by every receiver: downstream layers retain
	// the view but never mutate Members, so a single snapshot is safe and
	// turns view emission from O(N²) into O(N).
	members := make([]transport.NodeID, len(active))
	for i, n := range active {
		members[i] = n.me
	}
	view := View{
		ID:      h.viewID(),
		Members: members,
		Primary: len(members) >= h.quorum,
	}
	for _, n := range active {
		n.emitView(view)
	}
}

// activeNodes returns the active nodes in id order.
func (h *InstantHub) activeNodes() []*instantNode {
	if h.activeDirty {
		active := make([]*instantNode, 0, len(h.nodes))
		for _, n := range h.nodes {
			if n.active {
				active = append(active, n)
			}
		}
		sort.Slice(active, func(i, j int) bool { return active[i].me < active[j].me })
		h.active = active
		h.activeDirty = false
	}
	return h.active
}

func (h *InstantHub) viewID() ViewID {
	rep := transport.NodeID(0)
	if active := h.activeNodes(); len(active) > 0 {
		rep = active[0].me
	}
	return ViewID{Epoch: h.epoch, Rep: rep}
}

// ObsSamples implements obs.Source under the canonical instant.* names.
// Loop-only.
func (n *instantNode) ObsSamples() []obs.Sample {
	id := uint32(n.me)
	return []obs.Sample{
		{Node: id, Name: "instant.broadcasts", Value: n.stats.Broadcasts},
		{Node: id, Name: "instant.delivered", Value: n.totalOrder},
		{Node: id, Name: "instant.suppressed", Value: n.stats.Suppressed},
	}
}
