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
	opts := order.Options{Kind: d.orderer}
	switch d.orderer {
	case order.KindInstant:
		opts.Instant = order.InstantTuning{Hub: order.NewInstantHub()}
	case order.KindSeq:
		opts.Seq = sc.Seq
	}
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

// installSchedule arms the scenario's fault events relative to start.
func (d *deployment) installSchedule(start time.Duration) {
	n := len(d.nodes)
	for _, ev := range d.sc.Faults {
		from, to := start+ev.At, start+ev.end()
		switch ev.Kind {
		case FaultChurn:
			d.installChurn(start, ev)
		case FaultPartition:
			far := d.topIDs(ev.Fraction)
			near := d.lowIDs(n - len(far))
			d.inj.PartitionAt(from, near, far)
			d.inj.HealAt(to)
			d.markDownWindow(far, from, to)
		case FaultAsymmetric:
			far := d.topIDs(ev.Fraction)
			near := d.lowIDs(n - len(far))
			d.inj.AsymmetricPartitionAt(from, to, near, far)
		case FaultPartial:
			k := len(d.topIDs(ev.Fraction))
			ids := d.ids()
			a := ids[n-k:]
			b := ids[n-2*k : n-k]
			d.inj.PartialPartitionAt(from, to, a, b)
		case FaultLossBursts:
			d.inj.LossBursts(from, ev.Count, ev.For, ev.Gap, ev.Loss)
		case FaultShape:
			shape := simnet.LinkShape{Loss: ev.Loss}
			if ev.Latency > 0 {
				shape.Latency = simnet.Fixed(ev.Latency)
			}
			d.inj.ShapeWindow(from, to, nil, nil, shape)
		}
	}
}

// installChurn schedules the crash/recovery waves of one churn event.
// Victims come off the top of the id range and each stays down for 1.5
// inter-crash steps, so at most two victims are down at once and quorum
// survives. Under the instant orderer a victim's stack stops and restarts
// (the hub's crash model); under wire orderers the victim is isolated at
// the endpoint, and the membership protocol expels and re-admits it.
func (d *deployment) installChurn(start time.Duration, ev FaultEvent) {
	n := len(d.nodes)
	vmax := n / 3
	if vmax > ev.Count {
		vmax = ev.Count
	}
	if vmax < 1 {
		vmax = 1
	}
	step := ev.For / time.Duration(ev.Count)
	for i := 0; i < ev.Count; i++ {
		nd := d.nodes[n-1-i%vmax]
		from := start + ev.At + time.Duration(i)*step
		to := from + step*3/2
		if d.orderer == order.KindInstant {
			d.inj.StopAt(from, nd.id)
			d.inj.StartAt(to, nd.Stack().Start)
		} else {
			d.inj.IsolateWindow(from, to, nd.id)
		}
		d.markDownWindow([]transport.NodeID{nd.id}, from, to)
	}
}

// markDownWindow records schedule intent for the monitor.
func (d *deployment) markDownWindow(ids []transport.NodeID, from, to time.Duration) {
	byID := make(map[transport.NodeID]*replica, len(ids))
	for _, nd := range d.nodes {
		byID[nd.id] = nd
	}
	for _, id := range ids {
		nd := byID[id]
		if nd == nil {
			continue
		}
		d.k.At(from, func() { nd.up = false })
		d.k.At(to, func() { nd.up = true })
	}
}

func (d *deployment) ids() []transport.NodeID {
	out := make([]transport.NodeID, len(d.nodes))
	for i, nd := range d.nodes {
		out[i] = nd.id
	}
	return out
}

// topIDs returns the highest ⌊frac·n⌋ node ids (at least 1).
func (d *deployment) topIDs(frac float64) []transport.NodeID {
	n := len(d.nodes)
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	return d.ids()[n-k:]
}

func (d *deployment) lowIDs(k int) []transport.NodeID {
	return d.ids()[:k]
}

// close stops every replica and drains the loop, so campaign tests hold the
// goroutine-leak gate.
func (d *deployment) close() {
	for _, nd := range d.nodes {
		nd.Stop()
	}
	d.k.RunFor(5 * time.Millisecond)
}
