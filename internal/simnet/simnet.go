// Package simnet is a discrete-event simulated network calibrated to the
// paper's testbed: four PCs on switched 100 Mb/s Ethernet whose measured
// token-passing time peaks near 51 µs. Latency, loss, partitions and node
// crashes are all injectable, and every run is deterministic given the
// kernel's seed.
package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"cts/internal/sim"
	"cts/internal/transport"
)

// LatencyModel computes the one-way delay of a datagram. Implementations may
// draw from rng (the kernel's deterministic source).
type LatencyModel func(rng *rand.Rand, from, to transport.NodeID, size int) time.Duration

// Ethernet returns the default latency model, calibrated so that a
// token-sized datagram (~100 bytes) takes ≈48–60 µs one way: a fixed
// protocol-stack cost plus a per-byte serialization cost at 100 Mb/s
// (0.08 µs/byte) plus an exponential jitter tail, reproducing the shape of
// the paper's measured token-passing distribution (peak ≈51 µs with rare
// long-latency outliers).
func Ethernet() LatencyModel {
	const (
		stackCost   = 40 * time.Microsecond
		perByte     = 80 * time.Nanosecond // 100 Mb/s = 12.5 B/µs
		jitterMean  = 5 * time.Microsecond
		spikeProb   = 0.002 // rare scheduling spikes (paper: "data points with long latency, albeit with very low probability")
		spikeExtra  = 400 * time.Microsecond
		spikeJitter = 200 * time.Microsecond
	)
	return func(rng *rand.Rand, _, _ transport.NodeID, size int) time.Duration {
		d := stackCost + time.Duration(size)*perByte +
			time.Duration(rng.ExpFloat64()*float64(jitterMean))
		if rng.Float64() < spikeProb {
			d += spikeExtra + time.Duration(rng.Float64()*float64(spikeJitter))
		}
		return d
	}
}

// Fixed returns a latency model with constant delay d, useful in unit tests.
func Fixed(d time.Duration) LatencyModel {
	return func(*rand.Rand, transport.NodeID, transport.NodeID, int) time.Duration { return d }
}

// WAN returns a latency model shaped like an inter-region link: a fixed
// propagation base, the same 100 Mb/s per-byte cost as Ethernet, an
// exponential jitter tail of mean base/10, and occasional congestion spikes
// adding up to 4× base. Campaign WAN profiles use it with bases of tens of
// milliseconds.
func WAN(base time.Duration) LatencyModel {
	const perByte = 80 * time.Nanosecond
	if base <= 0 {
		base = 30 * time.Millisecond
	}
	return func(rng *rand.Rand, _, _ transport.NodeID, size int) time.Duration {
		d := base + time.Duration(size)*perByte +
			time.Duration(rng.ExpFloat64()*float64(base)/10)
		if rng.Float64() < 0.01 {
			d += time.Duration(rng.Float64() * 4 * float64(base))
		}
		return d
	}
}

// Network is the simulated fabric connecting endpoints.
// All methods are intended to be called from kernel event callbacks or
// before the simulation starts.
type Network struct {
	k       *sim.Kernel
	latency LatencyModel
	sink    uint32 // this network's id among the kernel's sinks

	mu sync.Mutex
	// inFlight holds the datagrams sent and not yet delivered or dropped;
	// a kernel delivery names its datagram by index. The indices of the
	// unused records are in freeSlots. A record keeps its payload buffer
	// when freed, so steady-state traffic allocates nothing.
	inFlight  []datagram
	freeSlots []uint32

	endpoints map[transport.NodeID]*Endpoint
	sorted    []*Endpoint // endpoints by id, the Broadcast fan-out order
	loss      float64
	// partition is the component of each node named by the last Partition,
	// kept so an endpoint attached later joins its component. The hot path
	// reads Endpoint.comp instead.
	partition map[transport.NodeID]int

	// rules are the installed link-shaping rules, consulted in order
	// (see shaping.go).
	rules   []*linkRule
	ruleSeq uint64

	dropped uint64
}

// datagram is one in-flight datagram.
type datagram struct {
	src, dst *Endpoint
	data     []byte
}

// poisonByte is what a delivered datagram's bytes become in a
// simnetpoison build (see poison.go).
const poisonByte = 0xA5

// NewNetwork creates a network driven by kernel k. If latency is nil the
// Ethernet model is used.
func NewNetwork(k *sim.Kernel, latency LatencyModel) *Network {
	if latency == nil {
		latency = Ethernet()
	}
	n := &Network{
		k:         k,
		latency:   latency,
		endpoints: make(map[transport.NodeID]*Endpoint),
	}
	n.sink = k.RegisterSink(n)
	return n
}

// ErrClosed is returned by sends on a closed or crashed endpoint.
var ErrClosed = errors.New("simnet: endpoint closed")

// Endpoint attaches (or returns the existing) endpoint for id.
func (n *Network) Endpoint(id transport.NodeID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &Endpoint{net: n, id: id, idx: len(n.endpoints), comp: n.partition[id]}
	n.endpoints[id] = ep
	i, _ := slices.BinarySearchFunc(n.sorted, id, func(e *Endpoint, id transport.NodeID) int {
		return cmp.Compare(e.id, id)
	})
	n.sorted = slices.Insert(n.sorted, i, ep)
	return ep
}

// SetLoss sets the independent per-datagram loss probability.
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case p < 0:
		n.loss = 0
	case p > 1:
		n.loss = 1
	default:
		n.loss = p
	}
}

// Partition splits the network into components; datagrams flow only within a
// component. Nodes not named in any component form one extra implicit
// component together.
func (n *Network) Partition(components ...[]transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[transport.NodeID]int)
	for i, comp := range components {
		for _, id := range comp {
			n.partition[id] = i + 1
		}
	}
	for _, ep := range n.sorted {
		ep.comp = n.partition[ep.id]
	}
}

// Heal removes any partition.
func (n *Network) Heal() {
	n.Partition()
}

// Stats reports per-node sent/delivered datagram counts and the total
// dropped count (loss + partition + down endpoints). A node that has sent
// (delivered) nothing has no entry in sent (delivered).
func (n *Network) Stats() (sent, delivered map[transport.NodeID]uint64, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sent = make(map[transport.NodeID]uint64)
	delivered = make(map[transport.NodeID]uint64)
	for _, ep := range n.sorted {
		if ep.sent > 0 {
			sent[ep.id] = ep.sent
		}
		if ep.delivered > 0 {
			delivered[ep.id] = ep.delivered
		}
	}
	return sent, delivered, n.dropped
}

// sendLocked queues delivery of payload from src to dst, applying loss,
// partition and latency. Caller holds n.mu.
func (n *Network) sendLocked(src, dst *Endpoint, payload []byte) {
	if dst.down || src.comp != dst.comp {
		n.dropped++
		return
	}
	model := n.latency
	if r := n.matchRule(src.id, dst.id); r != nil {
		if r.shape.Loss >= 1 ||
			(r.shape.Loss > 0 && n.k.RNG().Float64() < r.shape.Loss) {
			n.dropped++
			return
		}
		if r.shape.Latency != nil {
			model = r.shape.Latency
		}
	}
	if n.loss > 0 && n.k.RNG().Float64() < n.loss {
		n.dropped++
		return
	}
	src.sent++
	now := n.k.Now()
	delay := model(n.k.RNG(), src.id, dst.id, len(payload))
	// FIFO per link: a datagram never overtakes an earlier one on the same
	// (src,dst) path.
	if dst.idx >= len(src.lastArrival) {
		src.lastArrival = append(src.lastArrival, make([]time.Duration, dst.idx+1-len(src.lastArrival))...)
	}
	arrival := now + delay
	if last := src.lastArrival[dst.idx]; arrival <= last {
		arrival = last + time.Nanosecond
		delay = arrival - now
	}
	src.lastArrival[dst.idx] = arrival
	var i uint32
	if last := len(n.freeSlots) - 1; last >= 0 {
		i = n.freeSlots[last]
		n.freeSlots = n.freeSlots[:last]
	} else {
		i = uint32(len(n.inFlight))
		n.inFlight = append(n.inFlight, datagram{})
	}
	d := &n.inFlight[i]
	// Copy: the sender may reuse its buffer immediately.
	d.src, d.dst, d.data = src, dst, append(d.data[:0], payload...)
	n.k.Deliver(delay, n.sink, i)
}

// Fire implements sim.Sink: the kernel calls it when in-flight datagram i
// arrives. The datagram is dropped if its destination is down or cut off
// from the source by now; otherwise it is handed to the receiver. Its
// record, payload bytes included, is reused once the receiver returns.
func (n *Network) Fire(i uint32) {
	n.mu.Lock()
	d := n.inFlight[i]
	if d.dst.down || d.src.comp != d.dst.comp || n.blocked(d.src.id, d.dst.id) {
		n.dropped++
		n.freeSlots = append(n.freeSlots, i)
		n.mu.Unlock()
		return
	}
	recv := d.dst.recv
	d.dst.delivered++
	n.mu.Unlock()
	if recv != nil {
		recv(d.src.id, d.data)
		if poisonDelivered {
			for j := range d.data {
				d.data[j] = poisonByte
			}
		}
	}
	n.mu.Lock()
	n.freeSlots = append(n.freeSlots, i)
	n.mu.Unlock()
}

// Endpoint is one node's attachment to the network; it implements
// transport.Transport. Its fields other than net, id and idx are guarded by
// net.mu.
type Endpoint struct {
	net  *Network
	id   transport.NodeID
	idx  int // attach order: this endpoint's slot in every lastArrival
	recv transport.Receiver
	down bool
	comp int // partition component; 0 = not named by the last Partition

	// lastArrival[d.idx] is when the latest datagram sent from here to d
	// arrives, so back-to-back datagrams on one link do not reorder, as on
	// a switched LAN.
	lastArrival []time.Duration

	sent, delivered uint64
}

var _ transport.Transport = (*Endpoint)(nil)

// LocalID implements transport.Transport.
func (e *Endpoint) LocalID() transport.NodeID { return e.id }

// SetReceiver implements transport.Transport.
func (e *Endpoint) SetReceiver(r transport.Receiver) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.recv = r
}

// Send implements transport.Transport. A datagram to an id with no endpoint
// is dropped.
func (e *Endpoint) Send(to transport.NodeID, payload []byte) error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.down {
		return fmt.Errorf("%w: %v", ErrClosed, e.id)
	}
	if dst := n.endpoints[to]; dst != nil {
		n.sendLocked(e, dst, payload)
	} else {
		n.dropped++
	}
	return nil
}

// Broadcast implements transport.Transport.
func (e *Endpoint) Broadcast(payload []byte) error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.down {
		return fmt.Errorf("%w: %v", ErrClosed, e.id)
	}
	for _, dst := range n.sorted {
		if dst != e {
			n.sendLocked(e, dst, payload)
		}
	}
	return nil
}

// SetDown crashes (true) or revives (false) the endpoint. A down endpoint
// neither sends nor receives; in-flight datagrams addressed to it are
// dropped at delivery time.
func (e *Endpoint) SetDown(down bool) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.down = down
}

// Close implements transport.Transport; a closed endpoint behaves as down.
func (e *Endpoint) Close() error {
	e.SetDown(true)
	return nil
}
