package campaign

import (
	"fmt"
	"time"

	"cts/internal/invariant"
	"cts/internal/obs"
	"cts/internal/sim"
)

// Metrics are one cell's plot-ready measurements. Everything is derived
// from virtual time and deterministic counters: the same cell (scenario,
// nodes, seed) always produces identical metrics.
type Metrics struct {
	// Gate counters — the matrix passes only when the violation counters
	// are zero and reconvergence met its bound.
	Regressions         uint64 `json:"regressions"`
	StalenessViolations uint64 `json:"staleness_violations"`
	MonotonicityFixes   uint64 `json:"monotonicity_fixes"`
	// ReconvergeMS is how long after the last scheduled fault every up
	// node served a valid lease with mutually consistent intervals again
	// (0 with no faults).
	ReconvergeMS float64 `json:"reconverge_ms"`

	// Lease-plane quality.
	Samples     uint64  `json:"samples"`
	MaxBoundUS  float64 `json:"max_bound_us"`
	MeanBoundUS float64 `json:"mean_bound_us"`
	MaxSpreadUS float64 `json:"max_spread_us"`

	// Traffic and round counters, summed over nodes.
	Rounds        uint64 `json:"rounds"`
	Refreshes     uint64 `json:"refreshes"`
	CCSSent       uint64 `json:"ccs_sent"`
	Invalidations uint64 `json:"lease_invalidations"`
	ViewsEmitted  uint64 `json:"views_emitted"`
	NetDropped    uint64 `json:"net_dropped"`
}

// Result is one completed cell.
type Result struct {
	Scenario string `json:"scenario"`
	Nodes    int    `json:"nodes"`
	Seed     int64  `json:"seed"`
	// ClampedFrom is the originally requested node count when the
	// scenario's MaxNodes cap clamped this cell (zero when it ran at the
	// requested size). Recorded so clamped coverage never hides.
	ClampedFrom int     `json:"clamped_from,omitempty"`
	Orderer     string  `json:"orderer"`
	Metrics     Metrics `json:"metrics"`
	Pass        bool    `json:"pass"`
	// Failures lists every gate the cell missed (empty when Pass).
	Failures []string `json:"failures,omitempty"`
}

// monitor folds lease samples into gate counters. The staleness and
// regression checks are internal/invariant's happened-before discipline (the
// one ctsload applies): one sample pass is one observer exchange — snapshot
// the floors, read every node, and hold each reading to the floors as of the
// previous pass, never to readings from the same instant on other nodes.
// Lease bounds are honest about each node's own timeline (margin, drift,
// measured ordering lag), but nodes that adopt rounds they did not propose
// have no lag measurement of their own, so simultaneous cross-node comparison
// would demand a worst-case bound the lease plane never promises.
type monitor struct {
	chk invariant.Checker
	pre invariant.Snapshot
	m   Metrics
	// reconvergence bookkeeping
	faultEnd      time.Duration // absolute time the last fault clears
	reconvergedAt time.Duration // earliest all-serving sample after faultEnd
}

func newMonitor() *monitor {
	return &monitor{reconvergedAt: -1}
}

// sample reads every node's lease between kernel steps; one call is one
// pass.
func (mo *monitor) sample(d *deployment, now time.Duration) {
	var (
		allUp    = true
		okCount  int
		minClock time.Duration
		maxClock time.Duration
	)
	mo.chk.Snap(&mo.pre)
	for _, nd := range d.nodes {
		r, ok := nd.LeaseRead()
		if !ok {
			if nd.up {
				allUp = false
			}
			continue
		}
		mo.m.Samples++
		mo.chk.Observe(&mo.pre, invariant.Key{Group: uint32(d.group), Node: uint32(nd.id)}, r.GroupClock, r.Bound)
		bound := float64(r.Bound) / float64(time.Microsecond)
		if bound > mo.m.MaxBoundUS {
			mo.m.MaxBoundUS = bound
		}
		mo.m.MeanBoundUS += bound // normalized in finish
		if okCount == 0 || r.GroupClock < minClock {
			minClock = r.GroupClock
		}
		if okCount == 0 || r.GroupClock > maxClock {
			maxClock = r.GroupClock
		}
		okCount++
	}
	if okCount > 1 {
		if spread := float64(maxClock-minClock) / float64(time.Microsecond); spread > mo.m.MaxSpreadUS {
			mo.m.MaxSpreadUS = spread
		}
	}
	// Reconvergence: the first sample past the fault schedule where every
	// schedule-up node serves a valid lease again. Faults invalidate leases
	// through view changes (epoch bump), so a post-fault ok reading is
	// evidence the node rejoined, regained a primary component, and
	// republished — not a leftover pre-fault lease.
	if now >= mo.faultEnd && mo.reconvergedAt < 0 && allUp && okCount > 0 {
		mo.reconvergedAt = now
	}
}

func (mo *monitor) finish() {
	mo.m.StalenessViolations, mo.m.Regressions = mo.chk.Violations()
	if mo.m.Samples > 0 {
		mo.m.MeanBoundUS /= float64(mo.m.Samples)
	}
}

// Run executes one cell: build the deployment, arm the schedule, drive
// refresh rounds, sample leases, gather counters, and gate.
func Run(sc Scenario, nodes int, seed int64) (Result, error) {
	d, err := build(sc, nodes, seed)
	if err != nil {
		return Result{}, err
	}
	defer d.close()

	res := Result{Scenario: sc.Name, Nodes: nodes, Seed: seed, Orderer: string(d.orderer)}
	k := d.k
	start := k.Now()
	end := start + sc.Duration

	mo := newMonitor()
	// With no faults the whole run must stay consistent, so the clock on
	// the reconvergence gate starts immediately.
	mo.faultEnd = start
	if last := sc.lastFaultEnd(); last > 0 {
		mo.faultEnd = start + last
	}
	d.installSchedule(start)

	// Prime the lease plane: the nodes' own refreshers are already proposing;
	// wait until every node serves, so the monitor starts from a converged
	// baseline. The budget scales with the refresh cadence — WAN scenarios
	// pace refreshes (and thus rounds) hundreds of ms apart.
	if !prime(k, sc.refreshEvery(), d) {
		return Result{}, fmt.Errorf("campaign: %q/%d: lease plane did not prime", sc.Name, nodes)
	}

	// Main loop: monitor sampling between kernel steps.
	sampleEvery := sc.sampleEvery()
	for k.Now() < end {
		step := sampleEvery
		if left := end - k.Now(); left < step {
			step = left
		}
		k.RunFor(step)
		mo.sample(d, k.Now())
	}
	mo.finish()

	res.Metrics = mo.m
	if mo.reconvergedAt >= 0 {
		res.Metrics.ReconvergeMS = float64(mo.reconvergedAt-mo.faultEnd) / float64(time.Millisecond)
	}
	gather(d, &res.Metrics)
	res.Pass, res.Failures = gate(sc, mo, res.Metrics)
	return res, nil
}

// prime advances the simulation until every node of every group serves a
// lease, reporting whether that happened within the budget.
func prime(k *sim.Kernel, refreshEvery time.Duration, groups ...*deployment) bool {
	return await(k, 200*time.Millisecond+20*refreshEvery, refreshEvery, func() bool {
		for _, d := range groups {
			for _, nd := range d.nodes {
				if _, ok := nd.LeaseRead(); !ok {
					return false
				}
			}
		}
		return true
	})
}

// gather sums the deployment's obs-registry counters into the metrics.
func gather(d *deployment, m *Metrics) {
	c := obs.SampleMap(d.rec.Samples())
	m.Rounds = c["core.rounds_initiated"] + c["core.rounds_observed"]
	m.Refreshes = c["core.lease_refreshes"]
	m.CCSSent = c["core.ccs_sent"]
	m.Invalidations = c["core.lease_invalidations"]
	m.MonotonicityFixes = c["core.monotonicity_fixes"]
	m.ViewsEmitted = c["gcs.views_emitted"]
	_, _, dropped := d.net.Stats()
	m.NetDropped = dropped
}

// gate applies the per-scenario self-gates.
func gate(sc Scenario, mo *monitor, m Metrics) (bool, []string) {
	var fails []string
	if m.Regressions > 0 {
		fails = append(fails, fmt.Sprintf("%d group-clock regressions (want 0)", m.Regressions))
	}
	if m.StalenessViolations > 0 {
		fails = append(fails, fmt.Sprintf("%d staleness-bound violations (want 0)", m.StalenessViolations))
	}
	if m.MonotonicityFixes > 0 {
		fails = append(fails, fmt.Sprintf("%d monotonicity fixes (want 0: no replica proposed backwards)", m.MonotonicityFixes))
	}
	if mo.reconvergedAt < 0 {
		fails = append(fails, "never reconverged after the last fault")
	} else if rec := time.Duration(m.ReconvergeMS * float64(time.Millisecond)); rec > sc.Gates.ReconvergeWithin {
		fails = append(fails, fmt.Sprintf("reconverged in %.1fms, gate %v", m.ReconvergeMS, sc.Gates.ReconvergeWithin))
	}
	return len(fails) == 0, fails
}
