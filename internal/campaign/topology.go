// Package campaign scales the discrete-event testbed from the paper's
// four-node experiments to orchestrated 100–1000-node simulation campaigns.
// A campaign is a matrix of cells — scenario × node count × seed — where a
// scenario declares the deployment topology (clock population, link
// profile, orderer) and a timed fault schedule (churn storms, partitions of
// every flavor, loss bursts, slow-clock outliers), and every cell self-gates
// on the service's core invariants: no group-clock regression, no
// staleness-bound violation, and bounded reconvergence after the last
// fault. The descriptions are plain Go structs, JSON-loadable for matrix
// files, and are also the vocabulary the experiment package uses to build
// its paper-scale clusters.
package campaign

import (
	"fmt"
	"math/rand"
	"time"

	"cts/internal/order"
	"cts/internal/simnet"
)

// ClockSpec describes one node's physical hardware clock: its initial
// offset from true time and its rate error.
type ClockSpec struct {
	Offset   time.Duration `json:"offset_ns"`
	DriftPPM float64       `json:"drift_ppm"`
}

// ClockPlan generates the clock population of a deployment. With Explicit
// set, it is the literal per-node list (the paper's measured testbed
// clocks); otherwise per-node specs are drawn deterministically from the
// cell seed, so the same cell always deploys the same clocks regardless of
// construction order. The tail OutlierFrac of the population are slow-clock
// outliers running at OutlierDriftPPM.
type ClockPlan struct {
	// MaxOffset bounds the uniform initial offset in [-MaxOffset, MaxOffset].
	MaxOffset time.Duration `json:"max_offset_ns,omitempty"`
	// MaxDriftPPM bounds the uniform drift in [-MaxDriftPPM, MaxDriftPPM].
	MaxDriftPPM float64 `json:"max_drift_ppm,omitempty"`
	// OutlierFrac is the fraction of nodes (taken from the top of the id
	// range) whose drift is OutlierDriftPPM instead of a uniform draw.
	OutlierFrac     float64 `json:"outlier_frac,omitempty"`
	OutlierDriftPPM float64 `json:"outlier_drift_ppm,omitempty"`
	// Explicit overrides generation with a literal per-node list.
	Explicit []ClockSpec `json:"explicit"`
}

// Spec returns the clock of node index (0-based) in a population of n.
func (p ClockPlan) Spec(seed int64, index, n int) ClockSpec {
	if len(p.Explicit) > 0 {
		return p.Explicit[index]
	}
	if outliers := int(p.OutlierFrac * float64(n)); outliers > 0 && index >= n-outliers {
		return ClockSpec{DriftPPM: p.OutlierDriftPPM}
	}
	// One generator per (seed, index): specs are order-independent, so a
	// campaign can build node 512 without drawing 511 predecessors.
	rng := rand.New(rand.NewSource(seed + int64(index+1)*0x5851F42D4C957F2D))
	var spec ClockSpec
	if p.MaxOffset > 0 {
		spec.Offset = time.Duration(rng.Int63n(int64(2*p.MaxOffset))) - p.MaxOffset
	}
	if p.MaxDriftPPM > 0 {
		spec.DriftPPM = (2*rng.Float64() - 1) * p.MaxDriftPPM
	}
	return spec
}

// DefaultClocks is the campaign default population: offsets within ±2 ms and
// drifts within ±50 ppm, the magnitude of commodity crystal oscillators.
func DefaultClocks() ClockPlan {
	return ClockPlan{MaxOffset: 2 * time.Millisecond, MaxDriftPPM: 50}
}

// LinkProfile names a latency/loss regime for the simulated fabric.
type LinkProfile string

// Link profiles.
const (
	// ProfileLAN is the paper's calibrated 100 Mb/s switched Ethernet
	// (simnet.Ethernet); also the default for an empty profile.
	ProfileLAN LinkProfile = "lan"
	// ProfileWAN is an inter-region link: WANBase propagation delay with an
	// exponential jitter tail and rare congestion spikes (simnet.WAN).
	ProfileWAN LinkProfile = "wan"
	// ProfileFixed is a constant-delay link, for calibration cells.
	ProfileFixed LinkProfile = "fixed"
)

// Links declares the fabric of a deployment.
type Links struct {
	Profile LinkProfile   `json:"profile,omitempty"`
	WANBase time.Duration `json:"wan_base_ns,omitempty"`
	Fixed   time.Duration `json:"fixed_ns,omitempty"`
	// Loss is a steady network-wide datagram loss probability.
	Loss float64 `json:"loss,omitempty"`
	// Custom overrides the profile with an arbitrary model (Go callers
	// only; not expressible in JSON).
	Custom simnet.LatencyModel `json:"-"`
}

// Model returns the latency model for the declared profile. A nil return
// selects the network default (the calibrated Ethernet model) — returning
// nil rather than simnet.Ethernet() keeps LAN deployments bit-identical
// with the pre-campaign harness, whose RNG draws flow through the same
// closure instance.
func (l Links) Model() (simnet.LatencyModel, error) {
	if l.Custom != nil {
		return l.Custom, nil
	}
	switch l.Profile {
	case "", ProfileLAN:
		return nil, nil
	case ProfileWAN:
		return simnet.WAN(l.WANBase), nil
	case ProfileFixed:
		if l.Fixed <= 0 {
			return nil, fmt.Errorf("campaign: fixed link profile needs fixed_ns > 0")
		}
		return simnet.Fixed(l.Fixed), nil
	}
	return nil, fmt.Errorf("campaign: unknown link profile %q", l.Profile)
}

// Topology is the declarative deployment description: how many nodes, their
// clocks, the fabric between them, and the ordering protocol underneath.
type Topology struct {
	// Nodes is the replica count. Zero with a non-empty Clocks.Explicit
	// means len(Explicit).
	Nodes  int       `json:"nodes,omitempty"`
	Clocks ClockPlan `json:"clocks"`
	Links  Links     `json:"links"`
	// Orderer selects the total-order protocol (empty = consumer default:
	// totem for the experiment harness, instant for campaign cells).
	Orderer order.Kind `json:"orderer,omitempty"`
}

// Explicit is the compact literal topology used by the paper experiments:
// one node per spec, LAN links, consumer-default orderer.
func Explicit(specs ...ClockSpec) Topology {
	return Topology{Clocks: ClockPlan{Explicit: specs}}
}

// NodeCount resolves the effective node count.
func (t Topology) NodeCount() int {
	if t.Nodes == 0 {
		return len(t.Clocks.Explicit)
	}
	return t.Nodes
}

// Validate checks the topology for internal consistency.
func (t Topology) Validate() error {
	n := t.NodeCount()
	if n <= 0 {
		return fmt.Errorf("campaign: topology has no nodes")
	}
	if len(t.Clocks.Explicit) > 0 && len(t.Clocks.Explicit) != n {
		return fmt.Errorf("campaign: %d explicit clocks for %d nodes", len(t.Clocks.Explicit), n)
	}
	if f := t.Clocks.OutlierFrac; f < 0 || f > 1 {
		return fmt.Errorf("campaign: outlier_frac %v outside [0,1]", f)
	}
	if _, err := t.Links.Model(); err != nil {
		return err
	}
	return nil
}
