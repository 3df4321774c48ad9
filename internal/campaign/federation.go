package campaign

import (
	"fmt"
	"time"

	"cts/internal/federation"
	"cts/internal/invariant"
	"cts/internal/node"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/sim"
	"cts/internal/transport"
	"cts/internal/wire"
)

// fedGroupBase is the first federated group id; group i of a federated cell
// is fedGroupBase+i. Distinct from node.DefaultGroup so single-group and
// federated artifacts never collide.
const fedGroupBase wire.GroupID = 200

// fedIDStride spaces the node-id ranges of federated groups so ids (and
// their obs streams) stay disjoint: group i uses ids i·stride+1 ….
const fedIDStride = 1000

// FedGates are the acceptance thresholds of a federated cell. The zero-
// tolerance invariants (regressions, staleness, monotonicity fixes, seam
// consistency) always gate; these tune the convergence checks.
type FedGates struct {
	// MaxSeamSkew bounds the adjacent-group clock skew once the federation
	// has converged (and again after a heal).
	MaxSeamSkew time.Duration `json:"max_seam_skew_ns"`
	// ReconvergeWithin bounds how long after the inter-group link heals (or
	// after start, with no sever) every seam must be back under MaxSeamSkew.
	ReconvergeWithin time.Duration `json:"reconverge_within_ns"`
}

// FedSpec declares one federated cell: Groups CCS groups in a line topology
// (group i exchanges summaries with i±1), each a full intra-group deployment
// on a shared simulation kernel. Group i's hardware clocks start i·GroupSkew
// ahead, so the federation has real inter-group skew to merge away.
type FedSpec struct {
	Name          string        `json:"name"`
	Groups        int           `json:"groups"`
	NodesPerGroup int           `json:"nodes_per_group"`
	Duration      time.Duration `json:"duration_ns"`
	// RefreshEvery paces intra-group lease refresh (default 2 ms).
	RefreshEvery time.Duration `json:"refresh_every_ns,omitempty"`
	// SampleEvery paces the cross-group monitor (default 10 ms).
	SampleEvery time.Duration `json:"sample_every_ns,omitempty"`
	// ExchangeEvery paces inter-group summary exchange (default 50 ms).
	ExchangeEvery time.Duration `json:"exchange_every_ns,omitempty"`
	// MaxStep bounds one federated nudge (default 1 ms).
	MaxStep time.Duration `json:"max_step_ns,omitempty"`
	// Precision is the inter-group transit uncertainty (default 1 ms).
	Precision time.Duration `json:"precision_ns,omitempty"`
	// InitialSlack pads bounds before the first exchange; it must cover the
	// worst initial inter-group offset (default (Groups−1)·GroupSkew + 6 ms).
	InitialSlack time.Duration `json:"initial_slack_ns,omitempty"`
	// FabricDelay is the one-way summary transit delay (default 200 µs).
	FabricDelay time.Duration `json:"fabric_delay_ns,omitempty"`
	// GroupSkew is the per-group clock-plane offset step (default 2 ms).
	GroupSkew time.Duration `json:"group_skew_ns,omitempty"`
	// SeverAt/SeverFor cut every inter-group edge for the window
	// [SeverAt, SeverAt+SeverFor) — intra-group service continues, bounds
	// grow honestly, and the seams must reconverge after the heal.
	SeverAt  time.Duration `json:"sever_at_ns,omitempty"`
	SeverFor time.Duration `json:"sever_for_ns,omitempty"`
	Gates    FedGates      `json:"gates"`
}

func (s FedSpec) refreshEvery() time.Duration {
	if s.RefreshEvery > 0 {
		return s.RefreshEvery
	}
	return 2 * time.Millisecond
}

func (s FedSpec) sampleEvery() time.Duration {
	if s.SampleEvery > 0 {
		return s.SampleEvery
	}
	return 10 * time.Millisecond
}

func (s FedSpec) exchangeEvery() time.Duration {
	if s.ExchangeEvery > 0 {
		return s.ExchangeEvery
	}
	return 50 * time.Millisecond
}

func (s FedSpec) maxStep() time.Duration {
	if s.MaxStep > 0 {
		return s.MaxStep
	}
	return time.Millisecond
}

func (s FedSpec) precision() time.Duration {
	if s.Precision > 0 {
		return s.Precision
	}
	return time.Millisecond
}

func (s FedSpec) groupSkew() time.Duration {
	if s.GroupSkew > 0 {
		return s.GroupSkew
	}
	return 2 * time.Millisecond
}

func (s FedSpec) initialSlack() time.Duration {
	if s.InitialSlack > 0 {
		return s.InitialSlack
	}
	return time.Duration(s.Groups-1)*s.groupSkew() + 6*time.Millisecond
}

func (s FedSpec) fabricDelay() time.Duration {
	if s.FabricDelay > 0 {
		return s.FabricDelay
	}
	return 200 * time.Microsecond
}

func (s FedSpec) healAt() time.Duration {
	if s.SeverFor <= 0 {
		return 0
	}
	return s.SeverAt + s.SeverFor
}

// Validate checks the spec.
func (s FedSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: federated spec without a name")
	}
	if s.Groups < 2 {
		return fmt.Errorf("campaign: federated spec %q needs at least 2 groups, got %d", s.Name, s.Groups)
	}
	if s.NodesPerGroup < 2 {
		return fmt.Errorf("campaign: federated spec %q needs at least 2 nodes per group, got %d", s.Name, s.NodesPerGroup)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("campaign: federated spec %q needs duration_ns", s.Name)
	}
	if s.Gates.MaxSeamSkew <= 0 || s.Gates.ReconvergeWithin <= 0 {
		return fmt.Errorf("campaign: federated spec %q needs gates.max_seam_skew_ns and gates.reconverge_within_ns", s.Name)
	}
	if s.SeverFor > 0 {
		if s.SeverAt <= 0 {
			return fmt.Errorf("campaign: federated spec %q: sever_for_ns needs sever_at_ns", s.Name)
		}
		if s.healAt()+s.Gates.ReconvergeWithin > s.Duration {
			return fmt.Errorf("campaign: federated spec %q: duration leaves no room for post-heal reconvergence", s.Name)
		}
	}
	return nil
}

// FedMetrics are one federated cell's measurements.
type FedMetrics struct {
	// Zero-tolerance invariant counters, over every read of the migrating
	// cross-group monitor.
	Regressions         uint64 `json:"regressions"`
	StalenessViolations uint64 `json:"staleness_violations"`
	MonotonicityFixes   uint64 `json:"monotonicity_fixes"`
	// SeamViolations counts sample passes where two adjacent groups'
	// published intervals failed to overlap (dishonest seam).
	SeamViolations uint64 `json:"seam_violations"`

	// Convergence quality.
	FinalSeamSkewUS float64 `json:"final_seam_skew_us"`
	MaxSeamSkewUS   float64 `json:"max_seam_skew_us"`
	ReconvergeMS    float64 `json:"reconverge_ms"`
	MaxBoundUS      float64 `json:"max_bound_us"`
	MeanBoundUS     float64 `json:"mean_bound_us"`
	Samples         uint64  `json:"samples"`

	// FedCoalesced counts benign clamps of rounds overtaken in flight by a
	// federated nudge — expected traffic, reported for visibility.
	FedCoalesced uint64 `json:"fed_coalesced"`

	// Federation-plane traffic.
	SummariesSent uint64 `json:"summaries_sent"`
	SummariesRecv uint64 `json:"summaries_recv"`
	Rejected      uint64 `json:"rejected"`
	Nudges        uint64 `json:"nudges"`
	FabricDropped uint64 `json:"fabric_dropped"`
}

// FedResult is one completed federated cell.
type FedResult struct {
	Name          string     `json:"name"`
	Groups        int        `json:"groups"`
	NodesPerGroup int        `json:"nodes_per_group"`
	Seed          int64      `json:"seed"`
	Metrics       FedMetrics `json:"metrics"`
	Pass          bool       `json:"pass"`
	Failures      []string   `json:"failures,omitempty"`
}

// fedMonitor is the migrating client: each pass it reads every replica of
// every group and holds all of them to ONE happened-before floor
// (internal/invariant) — exactly what a client roaming across group
// boundaries observes. Regression floors are per (group, node), since node
// ids alone collide across groups; the staleness floor is global, which is
// the federation's whole promise: a reading served anywhere, plus its bound,
// must cover the most advanced lower bound served anywhere else in an
// earlier pass.
type fedMonitor struct {
	chk invariant.Checker
	pre invariant.Snapshot
	m   FedMetrics

	gate          FedGates
	faultEnd      time.Duration // heal instant (or start, with no sever)
	reconvergedAt time.Duration
}

func newFedMonitor(gate FedGates) *fedMonitor {
	return &fedMonitor{gate: gate, reconvergedAt: -1}
}

// sample runs one monitor pass over all groups between kernel steps.
func (mo *fedMonitor) sample(groups []*deployment, now time.Duration) {
	type seamPoint struct {
		clock, bound time.Duration
		ok           bool
	}
	seams := make([]seamPoint, len(groups))
	mo.chk.Snap(&mo.pre)
	for gi, d := range groups {
		for _, nd := range d.nodes {
			r, ok := nd.LeaseRead()
			if !ok {
				continue
			}
			mo.m.Samples++
			mo.chk.Observe(&mo.pre, invariant.Key{Group: uint32(d.group), Node: uint32(nd.id)}, r.GroupClock, r.Bound)
			bound := float64(r.Bound) / float64(time.Microsecond)
			if bound > mo.m.MaxBoundUS {
				mo.m.MaxBoundUS = bound
			}
			mo.m.MeanBoundUS += bound // normalized in finish
			if !seams[gi].ok {
				seams[gi] = seamPoint{clock: r.GroupClock, bound: r.Bound, ok: true}
			}
		}
	}

	// Seam checks: adjacent groups must publish overlapping intervals, and
	// their clock skew is the convergence signal.
	var worst time.Duration
	allSeams := true
	for gi := 0; gi+1 < len(groups); gi++ {
		a, b := seams[gi], seams[gi+1]
		if !a.ok || !b.ok {
			allSeams = false
			continue
		}
		if a.clock+a.bound < b.clock-b.bound || b.clock+b.bound < a.clock-a.bound {
			mo.m.SeamViolations++
		}
		skew := a.clock - b.clock
		if skew < 0 {
			skew = -skew
		}
		if skew > worst {
			worst = skew
		}
	}
	if allSeams {
		skewUS := float64(worst) / float64(time.Microsecond)
		mo.m.FinalSeamSkewUS = skewUS
		if skewUS > mo.m.MaxSeamSkewUS {
			mo.m.MaxSeamSkewUS = skewUS
		}
		if now >= mo.faultEnd && mo.reconvergedAt < 0 && worst <= mo.gate.MaxSeamSkew {
			mo.reconvergedAt = now
		}
	}
}

func (mo *fedMonitor) finish() {
	mo.m.StalenessViolations, mo.m.Regressions = mo.chk.Violations()
	if mo.m.Samples > 0 {
		mo.m.MeanBoundUS /= float64(mo.m.Samples)
	}
}

// RunFederated executes one federated cell: Groups intra-group deployments
// on one kernel, stitched by a SimFabric exchange plane, driven through the
// spec's duration with the optional all-edges sever window, and gated.
func RunFederated(spec FedSpec, seed int64) (FedResult, error) {
	if err := spec.Validate(); err != nil {
		return FedResult{}, err
	}
	k := sim.NewKernel(seed)
	rec, err := obs.New(obs.Config{Now: k.Now})
	if err != nil {
		return FedResult{}, err
	}

	// Intra-group scenario: instant orderer (the fabric under test is the
	// federation plane, not the intra-group wire), stock clock plan.
	intra := Scenario{
		Name:         spec.Name + "-intra",
		Orderer:      order.KindInstant,
		Clocks:       DefaultClocks(),
		Duration:     spec.Duration,
		RefreshEvery: spec.refreshEvery(),
		Gates:        Gates{ReconvergeWithin: spec.Gates.ReconvergeWithin},
	}

	fabric := federation.NewSimFabric(k, spec.fabricDelay())
	groups := make([]*deployment, 0, spec.Groups)
	defer func() {
		for _, d := range groups {
			d.close()
		}
	}()

	// Deploy every group before any of them runs: an agent's first summaries
	// must find its neighbors registered on the fabric.
	for gi := 0; gi < spec.Groups; gi++ {
		gid := fedGroupBase + wire.GroupID(gi)
		var neighbors []wire.GroupID
		if gi > 0 {
			neighbors = append(neighbors, gid-1)
		}
		if gi < spec.Groups-1 {
			neighbors = append(neighbors, gid+1)
		}
		d, err := deploy(k, rec, intra, spec.NodesPerGroup, seed+int64(gi), placement{
			group:  gid,
			idBase: transport.NodeID(gi * fedIDStride),
			skew:   time.Duration(gi) * spec.groupSkew(),
			fed: &node.FederationConfig{
				Link:          fabric.Link(gid),
				Neighbors:     neighbors,
				ExchangeEvery: spec.exchangeEvery(),
				MaxStep:       spec.maxStep(),
				Precision:     spec.precision(),
				InitialSlack:  spec.initialSlack(),
			},
		})
		if err != nil {
			return FedResult{}, fmt.Errorf("campaign: %q group %d: %w", spec.Name, gi, err)
		}
		groups = append(groups, d)
		for _, nd := range d.nodes {
			fabric.Register(gid, nd.Federation())
		}
	}
	for gi, d := range groups {
		if err := d.settle(); err != nil {
			return FedResult{}, fmt.Errorf("campaign: %q group %d: %w", spec.Name, gi, err)
		}
	}

	// Arm the sever window: every inter-group edge goes dark, both ways.
	start := k.Now()
	healAt := start
	if spec.SeverFor > 0 {
		healAt = start + spec.healAt()
		setAll := func(down bool) {
			for gi := 0; gi+1 < spec.Groups; gi++ {
				fabric.SetDown(fedGroupBase+wire.GroupID(gi), fedGroupBase+wire.GroupID(gi+1), down)
			}
		}
		k.At(start+spec.SeverAt, func() { setAll(true) })
		k.At(healAt, func() { setAll(false) })
	}

	// Every group's lease plane must serve before the clock starts.
	if !prime(k, spec.refreshEvery(), groups...) {
		return FedResult{}, fmt.Errorf("campaign: %q: lease planes did not prime", spec.Name)
	}

	mo := newFedMonitor(spec.Gates)
	mo.faultEnd = healAt
	end := start + spec.Duration

	sampleEvery := spec.sampleEvery()
	for k.Now() < end {
		step := sampleEvery
		if left := end - k.Now(); left < step {
			step = left
		}
		k.RunFor(step)
		mo.sample(groups, k.Now())
	}
	mo.finish()

	res := FedResult{
		Name: spec.Name, Groups: spec.Groups, NodesPerGroup: spec.NodesPerGroup,
		Seed: seed, Metrics: mo.m,
	}
	if mo.reconvergedAt >= 0 {
		res.Metrics.ReconvergeMS = float64(mo.reconvergedAt-mo.faultEnd) / float64(time.Millisecond)
	}
	c := obs.SampleMap(rec.Samples())
	res.Metrics.MonotonicityFixes = c["core.monotonicity_fixes"]
	res.Metrics.FedCoalesced = c["core.fed_coalesced"]
	res.Metrics.SummariesSent = c["fed.summaries_sent"]
	res.Metrics.SummariesRecv = c["fed.summaries_recv"]
	res.Metrics.Rejected = c["fed.rejected"]
	res.Metrics.Nudges = c["fed.nudges"]
	res.Metrics.FabricDropped = fabric.Dropped
	res.Pass, res.Failures = fedGate(spec, mo, res.Metrics)
	return res, nil
}

// fedGate applies the federated cell's self-gates.
func fedGate(spec FedSpec, mo *fedMonitor, m FedMetrics) (bool, []string) {
	var fails []string
	if m.Regressions > 0 {
		fails = append(fails, fmt.Sprintf("%d group-clock regressions (want 0)", m.Regressions))
	}
	if m.StalenessViolations > 0 {
		fails = append(fails, fmt.Sprintf("%d cross-group staleness violations (want 0)", m.StalenessViolations))
	}
	if m.MonotonicityFixes > 0 {
		fails = append(fails, fmt.Sprintf("%d monotonicity fixes (want 0)", m.MonotonicityFixes))
	}
	if m.SeamViolations > 0 {
		fails = append(fails, fmt.Sprintf("%d seam consistency violations (want 0)", m.SeamViolations))
	}
	gateUS := float64(spec.Gates.MaxSeamSkew) / float64(time.Microsecond)
	if m.FinalSeamSkewUS > gateUS {
		fails = append(fails, fmt.Sprintf("final seam skew %.0fµs, gate %.0fµs", m.FinalSeamSkewUS, gateUS))
	}
	if mo.reconvergedAt < 0 {
		fails = append(fails, "seams never converged under the skew gate")
	} else if rec := time.Duration(m.ReconvergeMS * float64(time.Millisecond)); rec > spec.Gates.ReconvergeWithin {
		fails = append(fails, fmt.Sprintf("reconverged in %.1fms, gate %v", m.ReconvergeMS, spec.Gates.ReconvergeWithin))
	}
	if m.SummariesRecv == 0 {
		fails = append(fails, "no summaries ever received (dead exchange plane)")
	}
	return len(fails) == 0, fails
}

// BuiltinFederation is the stock federated sweep: line topologies at 2, 4
// and 8 groups (the skew-vs-group-count series of EXPERIMENTS.md E17), plus
// a sever/heal cell that cuts every inter-group edge mid-run.
func BuiltinFederation() []FedSpec {
	gates := FedGates{MaxSeamSkew: 3 * time.Millisecond, ReconvergeWithin: 1500 * time.Millisecond}
	return []FedSpec{
		{Name: "fed-2-line", Groups: 2, NodesPerGroup: 3,
			Duration: 1200 * time.Millisecond, Gates: gates},
		{Name: "fed-4-line", Groups: 4, NodesPerGroup: 3,
			Duration: 1800 * time.Millisecond, Gates: gates},
		{Name: "fed-8-line", Groups: 8, NodesPerGroup: 3,
			Duration: 2600 * time.Millisecond,
			Gates:    FedGates{MaxSeamSkew: 3 * time.Millisecond, ReconvergeWithin: 2200 * time.Millisecond}},
		{Name: "fed-partition", Groups: 3, NodesPerGroup: 3,
			Duration: 2400 * time.Millisecond,
			SeverAt:  600 * time.Millisecond, SeverFor: 600 * time.Millisecond,
			Gates: FedGates{MaxSeamSkew: 3 * time.Millisecond, ReconvergeWithin: 1000 * time.Millisecond}},
	}
}

// FederationSpecByName finds a builtin federated spec.
func FederationSpecByName(name string) (FedSpec, bool) {
	for _, sp := range BuiltinFederation() {
		if sp.Name == name {
			return sp, true
		}
	}
	return FedSpec{}, false
}
