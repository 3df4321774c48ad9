package campaign

import (
	"encoding/json"
	"fmt"
	"time"

	"cts/internal/order"
)

// FaultKind names one family of scheduled fault weather.
type FaultKind string

// Fault families. Victim sets are scale-free: events name fractions and
// counts, and the schedule resolves them against the cell's node count, so
// one scenario runs unchanged from 100 to 1000 nodes.
const (
	// FaultChurn cycles Count victims through crash and recovery across the
	// event window: victim i goes down at At + i·(For/Count) and comes back
	// 1.5 steps later. Victims are taken from the top of the id range, so
	// the low ids (refresh drivers) stay undisturbed.
	FaultChurn FaultKind = "churn"
	// FaultPartition splits the network into components: the top Fraction
	// of nodes form a minority island for the window.
	FaultPartition FaultKind = "partition"
	// FaultAsymmetric blocks links from the majority toward the top
	// Fraction of nodes (one-way silence; the victims still transmit).
	FaultAsymmetric FaultKind = "asym-partition"
	// FaultPartial cuts the top Fraction of nodes off the *next* Fraction
	// of nodes in both directions while everyone else bridges both sides.
	FaultPartial FaultKind = "partial-partition"
	// FaultLossBursts applies Count correlated loss bursts of probability
	// Loss and length For, separated by Gap.
	FaultLossBursts FaultKind = "loss-bursts"
	// FaultShape installs a network-wide link-shaping window: extra fixed
	// Latency and/or Loss on every link for the window (a WAN brown-out).
	FaultShape FaultKind = "shape"
)

// FaultEvent is one entry of a scenario's fault schedule. Unused fields are
// ignored by kinds that do not need them.
type FaultEvent struct {
	Kind FaultKind     `json:"kind"`
	At   time.Duration `json:"at_ns"`
	For  time.Duration `json:"for_ns,omitempty"`
	// Count of churn victims or loss bursts.
	Count int `json:"count,omitempty"`
	// Fraction of the node population on the far side of a partition kind.
	Fraction float64       `json:"fraction,omitempty"`
	Loss     float64       `json:"loss,omitempty"`
	Gap      time.Duration `json:"gap_ns,omitempty"`
	Latency  time.Duration `json:"latency_ns,omitempty"`
}

// end reports when the event's weather is fully over.
func (e FaultEvent) end() time.Duration {
	switch e.Kind {
	case FaultLossBursts:
		n := e.Count
		if n < 1 {
			n = 1
		}
		return e.At + time.Duration(n)*e.For + time.Duration(n-1)*e.Gap
	default:
		return e.At + e.For
	}
}

func (e FaultEvent) validate() error {
	if e.At <= 0 {
		return fmt.Errorf("campaign: fault %q needs at_ns > 0", e.Kind)
	}
	switch e.Kind {
	case FaultChurn:
		if e.Count <= 0 || e.For <= 0 {
			return fmt.Errorf("campaign: churn needs count and for_ns")
		}
	case FaultPartition, FaultAsymmetric, FaultPartial:
		if e.Fraction <= 0 || e.Fraction >= 0.5 {
			return fmt.Errorf("campaign: %s fraction %v outside (0,0.5): the majority side must keep quorum", e.Kind, e.Fraction)
		}
		if e.For <= 0 {
			return fmt.Errorf("campaign: %s needs for_ns", e.Kind)
		}
	case FaultLossBursts:
		if e.Count <= 0 || e.For <= 0 || e.Loss <= 0 {
			return fmt.Errorf("campaign: loss-bursts needs count, for_ns and loss")
		}
	case FaultShape:
		if e.For <= 0 || (e.Latency <= 0 && e.Loss <= 0) {
			return fmt.Errorf("campaign: shape needs for_ns and latency_ns or loss")
		}
	default:
		return fmt.Errorf("campaign: unknown fault kind %q", e.Kind)
	}
	return nil
}

// Gates are the per-cell acceptance thresholds. Regressions and staleness
// violations always gate at zero; reconvergence is scenario-tuned.
type Gates struct {
	// ReconvergeWithin bounds how long after the last scheduled fault the
	// deployment may take until every up node serves a valid lease again
	// and all served group-clock intervals are mutually consistent.
	ReconvergeWithin time.Duration `json:"reconverge_within_ns"`
}

// Scenario declares one column of the campaign matrix: a topology template
// plus a fault schedule and gates. The node count is supplied per cell.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Orderer under every node; default instant (the sim-only total-order
	// oracle — the only protocol affordable at 1000 nodes). Network fault
	// kinds (partitions, loss, shape) need a wire orderer.
	Orderer order.Kind `json:"orderer,omitempty"`
	Links   Links      `json:"links"`
	Clocks  ClockPlan  `json:"clocks"`
	// Duration is the virtual runtime of the cell.
	Duration time.Duration `json:"duration_ns"`
	// RefreshEvery paces the lease-refresh rounds that stand in for client
	// load (default 2 ms).
	RefreshEvery time.Duration `json:"refresh_every_ns,omitempty"`
	// SampleEvery paces the monitor's lease sampling (default: RefreshEvery).
	SampleEvery time.Duration `json:"sample_every_ns,omitempty"`
	Faults      []FaultEvent  `json:"faults,omitempty"`
	Gates       Gates         `json:"gates"`
	// NodeCounts restricts this scenario to the given sizes, overriding the
	// matrix-wide axis.
	NodeCounts []int `json:"node_counts,omitempty"`
	// MaxNodes caps the cell size this scenario supports (wire orderers cap
	// far lower than the instant oracle). An axis count above the cap is a
	// matrix validation error, unless ClampNodes opts into an explicit clamp:
	// the cell then runs at MaxNodes with the requested size recorded in its
	// result (ClampedFrom). Never a silent cap: under-coverage is either
	// rejected or visible in BENCH_campaign.json.
	MaxNodes int `json:"max_nodes,omitempty"`
	// ClampNodes opts oversized cells into an explicit recorded clamp
	// instead of a validation error.
	ClampNodes bool `json:"clamp_nodes,omitempty"`
	// Seq and Totem tune the wire orderers; required for WAN cells whose
	// timers must stretch with the link delay.
	Seq   order.SeqTuning   `json:"seq,omitempty"`
	Totem order.TotemTuning `json:"totem,omitempty"`
	// MeanDelay declares the fabric's expected delivery delay (base latency
	// plus retransmission under the scenario's loss weather). It feeds
	// core.Config.MeanDelay, widening every lease's base margin: a node's
	// own lag estimator only learns about delivery lag on its next proposal,
	// so lossy high-latency fabrics must declare the delay they are built on.
	MeanDelay time.Duration `json:"mean_delay_ns,omitempty"`
}

func (s Scenario) refreshEvery() time.Duration {
	if s.RefreshEvery > 0 {
		return s.RefreshEvery
	}
	return 2 * time.Millisecond
}

func (s Scenario) sampleEvery() time.Duration {
	if s.SampleEvery > 0 {
		return s.SampleEvery
	}
	return s.refreshEvery()
}

// lastFaultEnd reports when the latest scheduled weather clears (zero with
// no faults).
func (s Scenario) lastFaultEnd() time.Duration {
	var last time.Duration
	for _, e := range s.Faults {
		if end := e.end(); end > last {
			last = end
		}
	}
	return last
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: scenario without a name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("campaign: scenario %q needs duration_ns", s.Name)
	}
	if s.Gates.ReconvergeWithin <= 0 {
		return fmt.Errorf("campaign: scenario %q needs gates.reconverge_within_ns", s.Name)
	}
	if _, err := s.Links.Model(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	orderer := s.orderer()
	if _, err := order.ParseKind(string(orderer)); err != nil {
		return fmt.Errorf("campaign: scenario %q: %w", s.Name, err)
	}
	for _, e := range s.Faults {
		if err := e.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if e.end() >= s.Duration {
			return fmt.Errorf("campaign: scenario %q: fault %q runs past duration (gates need quiet tail)", s.Name, e.Kind)
		}
		if orderer == order.KindInstant {
			switch e.Kind {
			case FaultPartition, FaultAsymmetric, FaultPartial, FaultLossBursts, FaultShape:
				return fmt.Errorf("campaign: scenario %q: fault %q needs a wire orderer (instant has no network)", s.Name, e.Kind)
			}
		}
	}
	if end := s.lastFaultEnd(); end > 0 && end+s.Gates.ReconvergeWithin > s.Duration {
		return fmt.Errorf("campaign: scenario %q: duration leaves no room for reconvergence gate", s.Name)
	}
	if s.MaxNodes < 0 {
		return fmt.Errorf("campaign: scenario %q: max_nodes must be positive", s.Name)
	}
	if s.ClampNodes && s.MaxNodes == 0 {
		return fmt.Errorf("campaign: scenario %q: clamp_nodes needs max_nodes", s.Name)
	}
	return nil
}

// checkCounts rejects cell sizes above MaxNodes unless the scenario opts
// into an explicit clamp. This is the anti-silent-cap rule: a scenario must
// either accept the requested size, clamp it visibly (ClampedFrom in the
// cell and its result), or fail validation — never quietly run smaller.
func (s Scenario) checkCounts(counts []int) error {
	if s.MaxNodes == 0 || s.ClampNodes {
		return nil
	}
	for _, n := range counts {
		if n > s.MaxNodes {
			return fmt.Errorf("campaign: scenario %q: %d nodes exceeds max_nodes %d (set clamp_nodes for an explicit recorded clamp, or lower the count)", s.Name, n, s.MaxNodes)
		}
	}
	return nil
}

func (s Scenario) orderer() order.Kind {
	if s.Orderer == "" {
		return order.KindInstant
	}
	return s.Orderer
}

// Cell is one point of the campaign matrix.
type Cell struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Seed     int64  `json:"seed"`
	// ClampedFrom records the originally requested node count when the
	// scenario's MaxNodes clamped this cell (zero otherwise). It rides into
	// the cell's Result so clamped coverage is visible in the artifacts.
	ClampedFrom int `json:"clamped_from,omitempty"`
}

// Matrix is the declarative sweep: every scenario × node count × seed.
type Matrix struct {
	Scenarios  []Scenario `json:"scenarios"`
	NodeCounts []int      `json:"node_counts"`
	Seeds      []int64    `json:"seeds"`
}

// Validate checks the matrix.
func (m Matrix) Validate() error {
	if len(m.Scenarios) == 0 {
		return fmt.Errorf("campaign: matrix has no scenarios")
	}
	seen := make(map[string]bool, len(m.Scenarios))
	for _, sc := range m.Scenarios {
		if err := sc.Validate(); err != nil {
			return err
		}
		if seen[sc.Name] {
			return fmt.Errorf("campaign: duplicate scenario %q", sc.Name)
		}
		seen[sc.Name] = true
		counts := sc.NodeCounts
		if len(counts) == 0 {
			counts = m.NodeCounts
		}
		if len(counts) == 0 {
			return fmt.Errorf("campaign: scenario %q has no node counts", sc.Name)
		}
		if err := sc.checkCounts(counts); err != nil {
			return err
		}
	}
	if len(m.Seeds) == 0 {
		return fmt.Errorf("campaign: matrix has no seeds")
	}
	return nil
}

// Cells expands the matrix into its cells, scenario-major, in declaration
// order — the sweep order is part of the campaign's determinism contract.
// Counts above a clamping scenario's MaxNodes run at MaxNodes with
// ClampedFrom set; when several axis counts clamp to the same size, only the
// first (smallest requested) cell per seed survives — duplicates would just
// rerun the identical deployment.
func (m Matrix) Cells() []Cell {
	var cells []Cell
	type point struct {
		scenario string
		nodes    int
		seed     int64
	}
	emitted := make(map[point]bool)
	for _, sc := range m.Scenarios {
		counts := sc.NodeCounts
		if len(counts) == 0 {
			counts = m.NodeCounts
		}
		for _, n := range counts {
			clampedFrom := 0
			if sc.ClampNodes && sc.MaxNodes > 0 && n > sc.MaxNodes {
				clampedFrom = n
				n = sc.MaxNodes
			}
			for _, seed := range m.Seeds {
				p := point{sc.Name, n, seed}
				if emitted[p] {
					continue
				}
				emitted[p] = true
				cells = append(cells, Cell{Scenario: sc.Name, Nodes: n, Seed: seed, ClampedFrom: clampedFrom})
			}
		}
	}
	return cells
}

// ScenarioByName finds a scenario in the matrix.
func (m Matrix) ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range m.Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// ParseMatrix loads a matrix from JSON. Durations are nanosecond integers
// (the *_ns fields); see EXPERIMENTS.md for a worked example.
func ParseMatrix(data []byte) (Matrix, error) {
	var m Matrix
	if err := json.Unmarshal(data, &m); err != nil {
		return Matrix{}, fmt.Errorf("campaign: parse matrix: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Matrix{}, err
	}
	return m, nil
}
