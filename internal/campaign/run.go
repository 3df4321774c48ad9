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

	// Lease-plane quality. Unserved counts the samples in which a node
	// the fault schedule expects up held no lease: service the cell missed.
	Samples     uint64  `json:"samples"`
	Unserved    uint64  `json:"unserved"`
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

// monitor folds lease samples into gate counters, one pass at a time over
// every group of a cell. The staleness and regression checks are
// internal/invariant's happened-before discipline (the one ctsload applies):
// one pass is one observer exchange — snapshot the floors, read every node,
// and hold each reading to the floors as of the previous pass, never to
// readings from the same instant on other nodes. Lease bounds are honest
// about each node's own timeline (margin, drift, measured ordering lag), but
// nodes that adopt rounds they did not propose have no lag measurement of
// their own, so simultaneous cross-node comparison would demand a
// worst-case bound the lease plane never promises.
//
// Across groups the monitor is a migrating client: one staleness floor for
// the whole cell (the federation's promise — a reading served anywhere,
// plus its bound, covers the most advanced lower bound served anywhere in
// an earlier pass) and regression floors keyed by (group, node), since node
// ids alone collide across groups. Adjacent groups form seams, the
// neighbor-skew check of gradient clock synchronization: their published
// intervals must overlap, and their skew is the convergence signal. A
// one-group cell has no seams.
type monitor struct {
	chk invariant.Checker
	pre invariant.Snapshot
	m   Metrics
	// Seam statistics; they stay zero with one group.
	seamViolations                 uint64
	finalSeamSkewUS, maxSeamSkewUS float64

	faultEnd      time.Duration // absolute time the last fault clears
	maxSeamSkew   time.Duration // seam skew a converged pass stays within
	reconvergedAt time.Duration // first converged pass at or after faultEnd, -1 before
	pass          []reading     // the current pass's readings, buffer reused
}

// reading is one node's answer in one monitor pass.
type reading struct {
	group        int // index of the node's group within the cell
	key          invariant.Key
	up, ok       bool // up: the fault schedule expects the node to serve; ok: it did
	clock, bound time.Duration
}

func newMonitor(faultEnd, maxSeamSkew time.Duration) *monitor {
	return &monitor{faultEnd: faultEnd, maxSeamSkew: maxSeamSkew, reconvergedAt: -1}
}

// drive advances the kernel to end, running one monitor pass over every
// group each sampleEvery, then closes the books.
func (mo *monitor) drive(k *sim.Kernel, end, sampleEvery time.Duration, groups ...*deployment) {
	for k.Now() < end {
		k.RunFor(min(sampleEvery, end-k.Now()))
		mo.sample(groups, k.Now())
	}
	mo.m.StalenessViolations, mo.m.Regressions = mo.chk.Violations()
	if mo.m.Samples > 0 {
		mo.m.MeanBoundUS /= float64(mo.m.Samples)
	}
	if mo.reconvergedAt >= 0 {
		mo.m.ReconvergeMS = float64(mo.reconvergedAt-mo.faultEnd) / float64(time.Millisecond)
	}
}

// sample reads every node's lease between kernel steps; one call is one
// pass.
func (mo *monitor) sample(groups []*deployment, now time.Duration) {
	mo.pass = mo.pass[:0]
	for gi, d := range groups {
		for _, nd := range d.nodes {
			r, ok := nd.LeaseRead()
			mo.pass = append(mo.pass, reading{
				group: gi, key: invariant.Key{Group: uint32(d.group), Node: uint32(nd.id)},
				up: nd.up, ok: ok, clock: r.GroupClock, bound: r.Bound,
			})
		}
	}
	mo.observe(now, len(groups), mo.pass)
}

// observe folds one pass of readings, taken at now from a cell of the given
// number of groups, into the counters.
func (mo *monitor) observe(now time.Duration, groups int, pass []reading) {
	var (
		allUp  = true
		served int
		lo, hi time.Duration
	)
	seams := make([]reading, groups) // first served reading per group
	mo.chk.Snap(&mo.pre)
	for _, r := range pass {
		if !r.ok {
			if r.up {
				allUp = false
				mo.m.Unserved++
			}
			continue
		}
		mo.m.Samples++
		mo.chk.Observe(&mo.pre, r.key, r.clock, r.bound)
		bound := float64(r.bound) / float64(time.Microsecond)
		mo.m.MaxBoundUS = max(mo.m.MaxBoundUS, bound)
		mo.m.MeanBoundUS += bound // normalized in drive
		if served == 0 || r.clock < lo {
			lo = r.clock
		}
		if served == 0 || r.clock > hi {
			hi = r.clock
		}
		served++
		if !seams[r.group].ok {
			seams[r.group] = r
		}
	}
	if served > 1 {
		mo.m.MaxSpreadUS = max(mo.m.MaxSpreadUS, float64(hi-lo)/float64(time.Microsecond))
	}

	var worst time.Duration
	allSeams := true
	for gi := 0; gi+1 < groups; gi++ {
		a, b := seams[gi], seams[gi+1]
		if !a.ok || !b.ok {
			allSeams = false
			continue
		}
		if a.clock+a.bound < b.clock-b.bound || b.clock+b.bound < a.clock-a.bound {
			mo.seamViolations++
		}
		worst = max(worst, a.clock-b.clock, b.clock-a.clock)
	}
	if allSeams {
		mo.finalSeamSkewUS = float64(worst) / float64(time.Microsecond)
		mo.maxSeamSkewUS = max(mo.maxSeamSkewUS, mo.finalSeamSkewUS)
	}
	// Reconvergence: the first pass past the fault schedule where every
	// schedule-up node serves a valid lease again and every seam is back
	// under the ceiling. Faults invalidate leases through view changes
	// (epoch bump), so a post-fault ok reading is evidence the node
	// rejoined, regained a primary component, and republished — not a
	// leftover pre-fault lease.
	if now >= mo.faultEnd && mo.reconvergedAt < 0 && allUp && served > 0 && allSeams && worst <= mo.maxSeamSkew {
		mo.reconvergedAt = now
	}
}

// gate applies the self-gates every cell shares: zero regressions, zero
// staleness violations, zero monotonicity fixes, and reconvergence within
// the given bound of the last fault clearing.
func (mo *monitor) gate(monotonicityFixes uint64, within time.Duration) []string {
	var fails []string
	if mo.m.Regressions > 0 {
		fails = append(fails, fmt.Sprintf("%d group-clock regressions (want 0)", mo.m.Regressions))
	}
	if mo.m.StalenessViolations > 0 {
		fails = append(fails, fmt.Sprintf("%d staleness-bound violations (want 0)", mo.m.StalenessViolations))
	}
	if w, ok := mo.chk.First(); ok {
		fails = append(fails, "first: "+w.String())
	}
	if monotonicityFixes > 0 {
		fails = append(fails, fmt.Sprintf("%d monotonicity fixes (want 0: no replica proposed backwards)", monotonicityFixes))
	}
	if mo.reconvergedAt < 0 {
		fails = append(fails, "never reconverged after the last fault")
	} else if mo.reconvergedAt-mo.faultEnd > within {
		fails = append(fails, fmt.Sprintf("reconverged in %.1fms, gate %v", mo.m.ReconvergeMS, within))
	}
	return fails
}

// Run executes one cell: build the deployment, arm the schedule, drive
// refresh rounds, sample leases, gather counters, and gate.
func Run(sc Scenario, nodes int, seed int64) (Result, error) {
	d, err := build(sc, nodes, seed)
	if err != nil {
		return Result{}, err
	}
	defer d.close()

	k := d.k
	start := k.Now()
	d.installSchedule(start)

	// Prime the lease plane: the nodes' own refreshers are already proposing;
	// wait until every node serves, so the monitor starts from a converged
	// baseline. The budget scales with the refresh cadence — WAN scenarios
	// pace refreshes (and thus rounds) hundreds of ms apart.
	if !prime(k, sc.refreshEvery(), d) {
		return Result{}, fmt.Errorf("campaign: %q/%d: lease plane did not prime", sc.Name, nodes)
	}

	// With no faults the whole run must stay consistent, so the clock on
	// the reconvergence gate starts immediately.
	mo := newMonitor(start+sc.lastFaultEnd(), 0)
	mo.drive(k, start+sc.Duration, sc.refreshEvery(), d)

	res := Result{Scenario: sc.Name, Nodes: nodes, Seed: seed, Orderer: string(d.orderer), Metrics: mo.m}
	gather(d, &res.Metrics)
	res.Failures = mo.gate(res.Metrics.MonotonicityFixes, sc.Gates.ReconvergeWithin)
	res.Pass = len(res.Failures) == 0
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

// gather sums the replicas' counters into the metrics. It reads each
// replica's own core and gcs sources rather than gathering, sorting and
// folding the whole registry for six sums.
func gather(d *deployment, m *Metrics) {
	for _, nd := range d.nodes {
		for _, s := range nd.Core().ObsSamples() {
			switch s.Name {
			case "core.rounds_initiated", "core.rounds_observed":
				m.Rounds += s.Value
			case "core.lease_refreshes":
				m.Refreshes += s.Value
			case "core.ccs_sent":
				m.CCSSent += s.Value
			case "core.lease_invalidations":
				m.Invalidations += s.Value
			case "core.monotonicity_fixes":
				m.MonotonicityFixes += s.Value
			}
		}
		m.ViewsEmitted += sampleValue(nd.Stack().ObsSamples(), "gcs.views_emitted")
	}
	_, _, dropped := d.net.Stats()
	m.NetDropped = dropped
}

// sampleValue returns the named sample's value, or 0 if samples lack it.
func sampleValue(samples []obs.Sample, name string) uint64 {
	for _, s := range samples {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}
