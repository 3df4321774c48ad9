package campaign

import (
	"fmt"
	"time"

	"cts/internal/federation"
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
	// after start, with no sever) every node must serve again with every
	// seam back under MaxSeamSkew.
	ReconvergeWithin time.Duration `json:"reconverge_within_ns"`
}

// The federated cell's fixed tuning. The cross-group monitor samples every
// fedSampleEvery; members exchange summaries every fedExchangeEvery over a
// fabric with fedFabricDelay one-way transit and fedPrecision transit
// uncertainty, nudging at most fedMaxStep at a time; group i's hardware
// clocks start i·fedGroupSkew ahead, so the federation has real inter-group
// skew to merge away. Intra-group lease refresh runs at the Scenario
// default (2 ms).
const (
	fedSampleEvery   = 10 * time.Millisecond
	fedExchangeEvery = 50 * time.Millisecond
	fedMaxStep       = time.Millisecond
	fedPrecision     = time.Millisecond
	fedFabricDelay   = 200 * time.Microsecond
	fedGroupSkew     = 2 * time.Millisecond
)

// FedSpec declares one federated cell: Groups CCS groups in a line topology
// (group i exchanges summaries with i±1), each a full intra-group deployment
// on a shared simulation kernel.
type FedSpec struct {
	Name          string        `json:"name"`
	Groups        int           `json:"groups"`
	NodesPerGroup int           `json:"nodes_per_group"`
	Duration      time.Duration `json:"duration_ns"`
	// SeverAt/SeverFor cut every inter-group edge for the window
	// [SeverAt, SeverAt+SeverFor) — intra-group service continues, bounds
	// grow honestly, and the seams must reconverge after the heal.
	SeverAt  time.Duration `json:"sever_at_ns,omitempty"`
	SeverFor time.Duration `json:"sever_for_ns,omitempty"`
	Gates    FedGates      `json:"gates"`
}

// initialSlack pads bounds before the first exchange; it covers the worst
// initial inter-group offset, (Groups−1)·fedGroupSkew, plus 6 ms.
func (s FedSpec) initialSlack() time.Duration {
	return time.Duration(s.Groups-1)*fedGroupSkew + 6*time.Millisecond
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
		Name:     spec.Name + "-intra",
		Orderer:  order.KindInstant,
		Clocks:   DefaultClocks(),
		Duration: spec.Duration,
		Gates:    Gates{ReconvergeWithin: spec.Gates.ReconvergeWithin},
	}

	fabric := federation.NewSimFabric(k, fedFabricDelay)
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
			skew:   time.Duration(gi) * fedGroupSkew,
			fed: &node.FederationConfig{
				Link:          fabric.Link(gid),
				Neighbors:     neighbors,
				ExchangeEvery: fedExchangeEvery,
				MaxStep:       fedMaxStep,
				Precision:     fedPrecision,
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
	healAt := start + spec.healAt()
	if spec.SeverFor > 0 {
		setAll := func(down bool) {
			for gi := 0; gi+1 < spec.Groups; gi++ {
				fabric.SetDown(fedGroupBase+wire.GroupID(gi), fedGroupBase+wire.GroupID(gi+1), down)
			}
		}
		k.At(start+spec.SeverAt, func() { setAll(true) })
		k.At(healAt, func() { setAll(false) })
	}

	// Every group's lease plane must serve before the clock starts.
	if !prime(k, intra.refreshEvery(), groups...) {
		return FedResult{}, fmt.Errorf("campaign: %q: lease planes did not prime", spec.Name)
	}

	mo := newMonitor(healAt, spec.Gates.MaxSeamSkew)
	mo.drive(k, start+spec.Duration, fedSampleEvery, groups...)

	m := FedMetrics{
		Regressions:         mo.m.Regressions,
		StalenessViolations: mo.m.StalenessViolations,
		SeamViolations:      mo.seamViolations,
		FinalSeamSkewUS:     mo.finalSeamSkewUS,
		MaxSeamSkewUS:       mo.maxSeamSkewUS,
		ReconvergeMS:        mo.m.ReconvergeMS,
		MaxBoundUS:          mo.m.MaxBoundUS,
		MeanBoundUS:         mo.m.MeanBoundUS,
		Samples:             mo.m.Samples,
		FabricDropped:       fabric.Dropped,
	}
	// Sum the counters over each replica's own core and agent sources
	// rather than gathering the whole registry.
	for _, d := range groups {
		for _, nd := range d.nodes {
			core := nd.Core().ObsSamples()
			m.MonotonicityFixes += sampleValue(core, "core.monotonicity_fixes")
			m.FedCoalesced += sampleValue(core, "core.fed_coalesced")
			for _, s := range nd.Federation().ObsSamples() {
				switch s.Name {
				case "fed.summaries_sent":
					m.SummariesSent += s.Value
				case "fed.summaries_recv":
					m.SummariesRecv += s.Value
				case "fed.rejected":
					m.Rejected += s.Value
				case "fed.nudges":
					m.Nudges += s.Value
				}
			}
		}
	}
	fails := append(mo.gate(m.MonotonicityFixes, spec.Gates.ReconvergeWithin), fedGate(spec, m)...)
	return FedResult{
		Name: spec.Name, Groups: spec.Groups, NodesPerGroup: spec.NodesPerGroup,
		Seed: seed, Metrics: m, Pass: len(fails) == 0, Failures: fails,
	}, nil
}

// fedGate applies the gates a federated cell adds to the shared ones: honest
// and converged seams, and a live exchange plane.
func fedGate(spec FedSpec, m FedMetrics) []string {
	var fails []string
	if m.SeamViolations > 0 {
		fails = append(fails, fmt.Sprintf("%d seam consistency violations (want 0)", m.SeamViolations))
	}
	gateUS := float64(spec.Gates.MaxSeamSkew) / float64(time.Microsecond)
	if m.FinalSeamSkewUS > gateUS {
		fails = append(fails, fmt.Sprintf("final seam skew %.0fµs, gate %.0fµs", m.FinalSeamSkewUS, gateUS))
	}
	if m.SummariesRecv == 0 {
		fails = append(fails, "no summaries ever received (dead exchange plane)")
	}
	return fails
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
