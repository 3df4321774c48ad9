package campaign

import (
	"fmt"
	"time"

	"cts/internal/faultinject"
	"cts/internal/hwclock"
	"cts/internal/node"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

// clockEpoch is what every campaign hardware clock reads at virtual time
// zero, before its planned offset. Real clocks count from an epoch; without
// one a replica with a negative planned offset would read a negative time
// when the refreshers fire their first round at start, the proposal would be
// clamped to the causal floor, and the plan's offset would vanish from the
// group clock.
const clockEpoch = time.Hour

// replica is one deployed node of a cell, assembled through internal/node —
// the same wiring cts.New deploys, lease plane and duty-rotating refresher
// included, minus the UDP listener.
type replica struct {
	*node.Node
	id transport.NodeID
	// up tracks the fault schedule's intent: false while the node is
	// crashed or isolated, so the monitor knows not to demand service
	// from it.
	up bool
}

// placement is where a deployment sits in its cell: a single-group cell has
// one deployment at the zero placement (plus its group id); a federated cell
// has one per group. idBase keeps node ids (and thus obs streams) disjoint
// across groups, and skew shifts the whole group's hardware clocks,
// modelling federated sites whose clock planes start apart.
type placement struct {
	group  wire.GroupID
	idBase transport.NodeID
	skew   time.Duration
	fed    *node.FederationConfig // nil outside federated cells
}

// deployment is one running group: n replicas on nodes idBase+1..idBase+n.
type deployment struct {
	k       *sim.Kernel
	net     *simnet.Network
	inj     *faultinject.Injector
	rec     *obs.Recorder
	sc      Scenario
	group   wire.GroupID
	nodes   []*replica
	orderer order.Kind
}

// build constructs and starts a cell's deployment on a fresh kernel and
// waits for the group to settle into a primary component.
func build(sc Scenario, nodes int, seed int64) (*deployment, error) {
	k := sim.NewKernel(seed)
	rec, err := obs.New(obs.Config{Now: k.Now})
	if err != nil {
		return nil, err
	}
	d, err := deploy(k, rec, sc, nodes, seed, placement{group: node.DefaultGroup})
	if err != nil {
		return nil, err
	}
	return d, d.settle()
}

// deploy constructs a deployment on an existing kernel and recorder — the
// substrate of federated cells, where several groups share one simulation —
// and starts every replica. Each group gets its own intra-group network.
// Nothing has run yet when it returns: the caller advances the kernel.
func deploy(k *sim.Kernel, rec *obs.Recorder, sc Scenario, nodes int, seed int64, at placement) (*deployment, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if nodes < 2 {
		return nil, fmt.Errorf("campaign: cell needs at least 2 nodes, got %d", nodes)
	}
	if len(sc.Clocks.Explicit) > 0 && len(sc.Clocks.Explicit) != nodes {
		return nil, fmt.Errorf("campaign: scenario %q pins %d explicit clocks, cell has %d nodes",
			sc.Name, len(sc.Clocks.Explicit), nodes)
	}
	model, err := sc.Links.Model()
	if err != nil {
		return nil, err
	}
	d := &deployment{
		k:       k,
		net:     simnet.NewNetwork(k, model),
		rec:     rec,
		sc:      sc,
		group:   at.group,
		orderer: sc.orderer(),
	}
	d.inj = faultinject.New(k, d.net)
	opts := sc.orderOptions()
	if l := sc.Links.Loss; l > 0 {
		d.net.SetLoss(l)
	}

	members := make([]transport.NodeID, nodes)
	for i := range members {
		members[i] = at.idBase + transport.NodeID(i+1)
	}
	for i, id := range members {
		spec := sc.Clocks.Spec(seed, i, nodes)
		n, err := node.New(node.Config{
			Runtime:   k,
			Transport: d.net.Endpoint(id),
			Members:   members,
			Order:     opts,
			Group:     at.group,
			Clock: hwclock.NewSim(k.Now,
				hwclock.WithOffset(clockEpoch+spec.Offset+at.skew), hwclock.WithDriftPPM(spec.DriftPPM)),
			MeanDelay: sc.MeanDelay,
			TimeServe: &node.TimeServeConfig{
				// Leases stay valid for the whole cell: expiry is not under
				// test, honest bound growth and epoch invalidation are.
				LeaseWindow:  sc.Duration + 10*time.Second,
				RefreshEvery: sc.refreshEvery(),
			},
			LeaseOnly:  true,
			Federation: at.fed,
			Obs:        rec,
		})
		if err != nil {
			return nil, err
		}
		d.inj.Register(id, n.Stack())
		d.nodes = append(d.nodes, &replica{Node: n, id: id, up: true})
	}
	for _, nd := range d.nodes {
		if err := nd.Start(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// settle advances the simulation until every node reports a primary
// component, with a budget scaled to the fabric.
func (d *deployment) settle() error {
	budget := 500 * time.Millisecond
	if d.sc.Links.Profile == ProfileWAN {
		base := d.sc.Links.WANBase
		if base <= 0 {
			base = 30 * time.Millisecond
		}
		budget += 100 * base
	}
	if !await(d.k, budget, time.Millisecond, d.allPrimary) {
		return fmt.Errorf("campaign: %q/%d did not settle within %v", d.sc.Name, len(d.nodes), budget)
	}
	return nil
}

// await advances the simulation step by step until done reports true or the
// budget runs out, and reports which.
func await(k *sim.Kernel, budget, step time.Duration, done func() bool) bool {
	for deadline := k.Now() + budget; k.Now() < deadline && !done(); {
		k.RunFor(step)
	}
	return done()
}

func (d *deployment) allPrimary() bool {
	for _, nd := range d.nodes {
		if !nd.Manager().InPrimaryComponent() {
			return false
		}
	}
	return true
}

// installSchedule applies the scenario's fault schedule, compiled relative
// to start, and records each victim's down window for the monitor.
func (d *deployment) installSchedule(start time.Duration) {
	events := d.compile(start)
	d.inj.Apply(events...)
	byID := make(map[transport.NodeID]*replica, len(d.nodes))
	for _, nd := range d.nodes {
		byID[nd.id] = nd
	}
	for _, e := range events {
		switch e.Kind {
		case faultinject.Partition, faultinject.Isolate, faultinject.Restart:
			for _, id := range e.Nodes {
				nd := byID[id]
				d.k.At(e.At, func() { nd.up = false })
				d.k.At(e.At+e.For, func() { nd.up = true })
			}
		}
	}
}

// compile resolves the scenario's fault events, relative to start, into
// injector events on explicit node ids. Victims come off the top of the id
// range, so the low ids (the refresh drivers) stay undisturbed; a partition
// kind's victims are the top ⌊Fraction·n⌋ ids (at least one).
func (d *deployment) compile(start time.Duration) []faultinject.Event {
	n := len(d.nodes)
	ids := make([]transport.NodeID, n)
	for i, nd := range d.nodes {
		ids[i] = nd.id
	}
	var out []faultinject.Event
	for _, ev := range d.sc.Faults {
		e := faultinject.Event{At: start + ev.At, For: ev.For}
		k := max(1, int(ev.Fraction*float64(n)))
		switch ev.Kind {
		case FaultChurn:
			out = append(out, d.churn(e, ev.Count, ids)...)
			continue
		case FaultPartition:
			e.Kind, e.Nodes, e.Peers = faultinject.Partition, ids[n-k:], ids[:n-k]
		case FaultAsymmetric:
			e.Kind, e.Nodes, e.Peers = faultinject.Block, ids[n-k:], ids[:n-k]
		case FaultPartial:
			e.Kind, e.Nodes, e.Peers = faultinject.Cut, ids[n-k:], ids[n-2*k:n-k]
		case FaultLossBursts:
			for i := 0; i < ev.Count; i++ {
				out = append(out, faultinject.Event{Kind: faultinject.Loss,
					At: e.At + time.Duration(i)*(ev.For+ev.Gap), For: ev.For, Loss: ev.Loss})
			}
			continue
		case FaultShape:
			e.Kind, e.Loss, e.Latency = faultinject.Shape, ev.Loss, ev.Latency
		}
		out = append(out, e)
	}
	return out
}

// churn expands one churn event, whose window starts at e.At, into count
// crash/recovery waves. Each victim stays down for 1.5 inter-crash steps,
// so at most two victims are down at once and quorum survives. Under the
// instant orderer a victim's stack stops and restarts (the hub's crash
// model); under wire orderers the victim is isolated at the endpoint, and
// the membership protocol expels and re-admits it.
func (d *deployment) churn(e faultinject.Event, count int, ids []transport.NodeID) []faultinject.Event {
	n := len(ids)
	vmax := max(1, min(n/3, count))
	step := e.For / time.Duration(count)
	kind := faultinject.Isolate
	if d.orderer == order.KindInstant {
		kind = faultinject.Restart
	}
	out := make([]faultinject.Event, count)
	for i := range out {
		out[i] = faultinject.Event{Kind: kind, At: e.At + time.Duration(i)*step, For: step * 3 / 2,
			Nodes: ids[n-1-i%vmax : n-i%vmax]}
	}
	return out
}

// close stops every replica and drains the loop, so campaign tests hold the
// goroutine-leak gate.
func (d *deployment) close() {
	for _, nd := range d.nodes {
		nd.Stop()
	}
	d.k.RunFor(5 * time.Millisecond)
}
