// Package faultinject applies failures to a simulated deployment: crashes,
// isolation and restarts of processors, partitions, one-way and partial
// cuts, loss windows and link shaping — the scenarios behind the paper's
// fault-tolerance claims ("the consistent time service guarantees the
// consistency of the group clock even when faults occur, when new replicas
// are added into the group and when failed replicas recover").
//
// A fault is an Event value: a schedule is a []Event that can be printed,
// edited and replayed, and Injector.Apply is the one way to arm it.
package faultinject

import (
	"time"

	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
)

// Kind names one fault family.
type Kind string

// Fault families. A window kind starts at Event.At and ends at At+For.
const (
	// Crash fail-stops each of Nodes at At, for good: its registered
	// process stops and its endpoint goes down. For is ignored.
	Crash Kind = "crash"
	// Isolate takes each of Nodes off the air for the window by downing
	// its endpoint only: the process keeps running and keeps its volatile
	// state. On wire orderers the membership protocol expels the silent
	// node and re-admits it after the window.
	Isolate Kind = "isolate"
	// Restart stops each of Nodes' registered process at At and starts it
	// again at the end of the window, leaving the endpoint up. The instant
	// orderer's hub has no network, so this is its crash and recovery.
	Restart Kind = "restart"
	// Partition splits the network into two components, Nodes and Peers,
	// and heals it at the end of the window.
	Partition Kind = "partition"
	// Block silences the directed links Peers→Nodes for the window;
	// Nodes still reach Peers (an asymmetric partition).
	Block Kind = "block"
	// Cut blocks Nodes↔Peers in both directions for the window while
	// third parties stay connected to both sides (a partial partition).
	Cut Kind = "cut"
	// Loss drops every datagram with probability Loss for the window.
	Loss Kind = "loss"
	// Shape adds Loss and a fixed Latency to every link for the window.
	Shape Kind = "shape"
)

// Event is one scheduled fault. Nodes and Peers are explicit node ids;
// kinds that do not need a field ignore it.
type Event struct {
	Kind    Kind
	At      time.Duration
	For     time.Duration
	Nodes   []transport.NodeID
	Peers   []transport.NodeID
	Loss    float64
	Latency time.Duration
}

// Injector applies events to a simulated network and the processes
// registered on it.
type Injector struct {
	k     *sim.Kernel
	net   *simnet.Network
	procs map[transport.NodeID]process
}

// process is what runs on one node: a gcs stack, or whatever else the
// deployment starts and stops as a unit.
type process interface {
	Start()
	Stop()
}

// New creates an injector.
func New(k *sim.Kernel, net *simnet.Network) *Injector {
	return &Injector{k: k, net: net, procs: make(map[transport.NodeID]process)}
}

// Register names the process on node id that Crash stops and Restart
// stops and starts again.
func (i *Injector) Register(id transport.NodeID, p process) {
	i.procs[id] = p
}

// Apply schedules each event on the kernel, in order.
func (i *Injector) Apply(events ...Event) {
	for _, e := range events {
		i.apply(e)
	}
}

func (i *Injector) apply(e Event) {
	from, to := e.At, e.At+e.For
	switch e.Kind {
	case Crash:
		i.k.At(from, func() {
			i.each(e.Nodes, process.Stop)
			i.setDown(e.Nodes, true)
		})
	case Isolate:
		i.k.At(from, func() { i.setDown(e.Nodes, true) })
		i.k.At(to, func() { i.setDown(e.Nodes, false) })
	case Restart:
		i.k.At(from, func() { i.each(e.Nodes, process.Stop) })
		i.k.At(to, func() { i.each(e.Nodes, process.Start) })
	case Partition:
		i.k.At(from, func() { i.net.Partition(e.Peers, e.Nodes) })
		i.k.At(to, i.net.Heal)
	case Block:
		i.window(from, to, func() func() { return i.net.BlockLinks(e.Peers, e.Nodes) })
	case Cut:
		i.window(from, to, func() func() { return i.net.PartialPartition(e.Nodes, e.Peers) })
	case Loss:
		i.k.At(from, func() { i.net.SetLoss(e.Loss) })
		i.k.At(to, func() { i.net.SetLoss(0) })
	case Shape:
		shape := simnet.LinkShape{Loss: e.Loss}
		if e.Latency > 0 {
			shape.Latency = simnet.Fixed(e.Latency)
		}
		i.window(from, to, func() func() { return i.net.ShapeLinks(nil, nil, shape) })
	default:
		panic("faultinject: unknown event kind " + string(e.Kind))
	}
}

// window installs a network rule at from and arms its removal at to from
// inside the install, so the removal is scheduled only once the rule exists.
func (i *Injector) window(from, to time.Duration, install func() (remove func())) {
	i.k.At(from, func() { i.k.At(to, install()) })
}

func (i *Injector) each(ids []transport.NodeID, f func(process)) {
	for _, id := range ids {
		if p := i.procs[id]; p != nil {
			f(p)
		}
	}
}

func (i *Injector) setDown(ids []transport.NodeID, down bool) {
	for _, id := range ids {
		i.net.Endpoint(id).SetDown(down)
	}
}
