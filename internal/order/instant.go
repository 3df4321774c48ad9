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
	rt          sim.Runtime
	quorum      int
	epoch       uint64
	seq         uint64
	nodes       map[transport.NodeID]*instantNode // registered (Start/Stop toggle active)
	pending     []*instantPending
	flushQueued bool
	seen        keyWindow // dupKeys ordered, for suppression
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
	return &InstantHub{
		nodes: make(map[transport.NodeID]*instantNode),
	}
}

// instantPending is one queued broadcast awaiting the hub's flush step.
type instantPending struct {
	sender    transport.NodeID
	payload   []byte
	safe      bool
	dupKey    uint64
	sent      bool
	cancelled bool
}

// instantNode is one processor's endpoint of the hub.
type instantNode struct {
	hub        *InstantHub
	env        Env
	me         transport.NodeID
	active     bool
	totalOrder uint64
	stats      struct {
		Broadcasts uint64
		Delivered  uint64
		Suppressed uint64
	}
}

func newInstantOrderer(env Env, opts Options) (Orderer, error) {
	hub := opts.Instant.Hub
	me := env.Transport.LocalID()
	n := &instantNode{hub: hub, env: env, me: me}
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

// LocalID implements Orderer.
func (n *instantNode) LocalID() transport.NodeID { return n.me }

// Broadcast implements Orderer. The message is ordered and delivered to
// every active node in one simulated step.
func (n *instantNode) Broadcast(payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	n.hub.rt.Post(func() {
		n.hub.enqueue(&instantPending{sender: n.me, payload: cp})
		n.hub.flush()
	})
	return nil
}

// BroadcastCancelable implements Orderer. Loop-only; the hub's flush runs as
// a separate posted step, so a cancel within the same instant withdraws the
// message before ordering, mirroring the wire orderers' suppression window.
func (n *instantNode) BroadcastCancelable(payload []byte, safe bool, dupKey uint64) func() bool {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	p := &instantPending{sender: n.me, payload: cp, safe: safe, dupKey: dupKey}
	n.hub.enqueue(p)
	hub := n.hub
	if !hub.flushQueued {
		hub.flushQueued = true
		hub.rt.Post(func() {
			hub.flushQueued = false
			hub.flush()
		})
	}
	return func() bool {
		if p.sent {
			return false
		}
		p.cancelled = true
		return true
	}
}

func (h *InstantHub) enqueue(p *instantPending) {
	h.pending = append(h.pending, p)
	if n := h.nodes[p.sender]; n != nil {
		n.stats.Broadcasts++
	}
}

// flush orders every queued broadcast. Loop-only.
func (h *InstantHub) flush() {
	pend := h.pending
	h.pending = nil
	for _, p := range pend {
		if p.cancelled {
			continue
		}
		sender := h.nodes[p.sender]
		if sender == nil || !sender.active {
			continue // sender stopped between queue and flush
		}
		if h.seen.Seen(p.dupKey) {
			p.cancelled = true
			sender.stats.Suppressed++
			continue
		}
		p.sent = true
		h.seen.Note(p.dupKey, keyGeneration(len(h.activeNodes())))
		h.seq++
		h.deliverAll(p)
	}
}

// deliverAll hands one ordered message to every active node, in id order.
func (h *InstantHub) deliverAll(p *instantPending) {
	view := h.viewID()
	for _, n := range h.activeNodes() {
		n.totalOrder++
		n.stats.Delivered++
		n.env.Deliver(Delivery{
			TotalOrder: n.totalOrder,
			ViewID:     view,
			Seq:        h.seq,
			Sender:     p.sender,
			Payload:    p.payload,
		})
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
		if n.env.OnView != nil {
			n.env.OnView(view)
		}
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
		{Node: id, Name: "instant.delivered", Value: n.stats.Delivered},
		{Node: id, Name: "instant.suppressed", Value: n.stats.Suppressed},
	}
}
