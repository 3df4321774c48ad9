// Package campaign scales the discrete-event testbed from the paper's
// four-node experiments to orchestrated 100–1000-node simulation campaigns.
// A campaign is a matrix of cells — scenario × node count × seed — where a
// scenario declares the deployment topology (clock population, link
// profile, orderer) and a timed fault schedule (churn storms, partitions of
// every flavor, loss bursts, slow-clock outliers), and every cell self-gates
// on the service's core invariants: no group-clock regression, no
// staleness-bound violation, and bounded reconvergence after the last
// fault. The descriptions are plain Go structs, JSON-loadable for matrix
// files; the experiment package's clusters describe replica clocks with the
// same ClockSpec.
package campaign

import (
	"fmt"
	"math/rand"
	"time"

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
)

// Links declares the fabric of a deployment.
type Links struct {
	Profile LinkProfile   `json:"profile,omitempty"`
	WANBase time.Duration `json:"wan_base_ns,omitempty"`
	// Loss is a steady network-wide datagram loss probability.
	Loss float64 `json:"loss,omitempty"`
}

// Model returns the latency model for the declared profile. A nil return
// selects the network default (the calibrated Ethernet model) — returning
// nil rather than simnet.Ethernet() keeps LAN deployments bit-identical
// with the pre-campaign harness, whose RNG draws flow through the same
// closure instance.
func (l Links) Model() (simnet.LatencyModel, error) {
	switch l.Profile {
	case "", ProfileLAN:
		return nil, nil
	case ProfileWAN:
		return simnet.WAN(l.WANBase), nil
	}
	return nil, fmt.Errorf("campaign: unknown link profile %q", l.Profile)
}
