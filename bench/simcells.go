package main

import (
	"fmt"
	"time"

	"cts/internal/campaign"
	"cts/internal/experiment"
	"cts/internal/obs"
)

// simSizes are the sizes of the three sim-cells cells. The full sizes
// (churn-storm at 1000 nodes, partition-heal at 100, 10 000 Fig. 5 reads)
// take ≈14s of wall time at the baseline; a shorter run shrinks all three in
// proportion, so the workload still exercises every cell.
type simSizes struct {
	churnNodes, healNodes, fig5Reads int
}

// fullSimSeconds is the run length at which the cells reach full size.
const fullSimSeconds = 14.0

func simSizesFor(o runOpts) simSizes {
	scale := min(o.seconds/fullSimSeconds, 1)
	s := simSizes{
		churnNodes: max(int(1000*scale), 20),
		healNodes:  max(int(100*scale), 10),
		fig5Reads:  max(int(10000*scale), 200),
	}
	if o.simNodes > 0 {
		s.churnNodes, s.healNodes = o.simNodes, min(o.simNodes, 100)
	}
	return s
}

func scenario(name string) (campaign.Scenario, error) {
	for _, sc := range campaign.Builtin() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return campaign.Scenario{}, fmt.Errorf("campaign scenario %q is not in the builtin catalog", name)
}

// simWarmup is sim-cells' set-up: a small pass over the same three cells
// that grows the heap and faults in the code before the timed cells run.
func simWarmup(seed int64, churn, heal campaign.Scenario) error {
	if _, err := campaign.Run(churn, 20, seed); err != nil {
		return err
	}
	if _, err := campaign.Run(heal, 10, seed); err != nil {
		return err
	}
	_, err := experiment.RunFigure5(seed, 100)
	return err
}

// runSimCells is the sim-cells workload: virtual time, one goroutine.
func runSimCells(o runOpts) (*runResult, error) {
	res := newResult(wlSimCells, o)
	if o.traced {
		if err := res.micro(o); err != nil {
			return res, err
		}
	}
	churn, err := scenario("churn-storm")
	if err != nil {
		return res, err
	}
	heal, err := scenario("partition-heal")
	if err != nil {
		return res, err
	}
	sizes := simSizesFor(o)
	res.Params["churn_nodes"], res.Params["heal_nodes"], res.Params["fig5_reads"] =
		sizes.churnNodes, sizes.healNodes, sizes.fig5Reads

	var setups []float64
	for i := 0; i < max(o.setups, 1); i++ {
		t0 := mono()
		if err := simWarmup(o.seed, churn, heal); err != nil {
			return res, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, (mono() - t0).Seconds())
	}
	res.setSetup(setups)

	// Determinism: the same seed must give the same virtual numbers.
	a, err := experiment.RunFigure5(o.seed, min(1000, sizes.fig5Reads))
	if err != nil {
		return res, err
	}
	b, err := experiment.RunFigure5(o.seed, min(1000, sizes.fig5Reads))
	if err != nil {
		return res, err
	}
	if a.Overhead() != b.Overhead() || a.With.Percentile(99) != b.With.Percentile(99) {
		res.fail("sim-cells: RunFigure5 is not deterministic: seed %d gave overhead %v then %v", o.seed, a.Overhead(), b.Overhead())
	}

	before := readProc()
	var cells, failedCells uint64
	cell := func(sc campaign.Scenario, nodes int) (campaign.Result, time.Duration, error) {
		t0 := mono()
		r, err := campaign.Run(sc, nodes, o.seed)
		if err != nil {
			return r, 0, fmt.Errorf("campaign %s@%d: %w", sc.Name, nodes, err)
		}
		cells++
		if !r.Pass {
			failedCells++
			fmt.Printf("sim-cells: %s@%d missed its gates: %v\n", sc.Name, nodes, r.Failures)
		}
		return r, mono() - t0, nil
	}
	cr, churnWall, err := cell(churn, sizes.churnNodes)
	if err != nil {
		return res, err
	}
	hr, healWall, err := cell(heal, sizes.healNodes)
	if err != nil {
		return res, err
	}
	t0 := mono()
	var fig *experiment.Figure5Result
	var sink *eventSink
	if o.traced {
		sink = &eventSink{keep: obs.NewMemorySink(0)}
		fig, err = experiment.RunFigure5Traced(o.seed, sizes.fig5Reads, sink)
	} else {
		fig, err = experiment.RunFigure5(o.seed, sizes.fig5Reads)
	}
	if err != nil {
		return res, err
	}
	figWall := mono() - t0
	cells++
	if fig.With.N() < sizes.fig5Reads {
		failedCells++
	}
	after := readProc()
	res.Layers.set("proc.live_heap_mb", liveHeapMB(), "MB")
	res.account(cells, failedCells)

	wall := churnWall + healWall + figWall
	rounds := cr.Metrics.Rounds + hr.Metrics.Rounds + uint64(fig.With.N())
	e2e, layers := res.E2E, res.Layers
	e2e.set("fail_share", ratio(float64(failedCells), float64(cells)), "share")
	e2e.set("sim_wall_s", wall.Seconds(), "s")
	e2e.set("virtual_read_overhead_us", us(fig.Overhead()), "us")
	e2e.set("virtual_reconverge_ms", hr.Metrics.ReconvergeMS, "ms")
	e2e.set("virtual_mean_bound_us", cr.Metrics.MeanBoundUS, "us")
	procMetrics(before, after, rounds, e2e, layers)
	layers.set("sim.rounds_per_wall_s", ratio(float64(rounds), wall.Seconds()), "1/s")
	layers.set("campaign.churn1000_wall_s", churnWall.Seconds(), "s")
	layers.set("campaign.partheal100_wall_s", healWall.Seconds(), "s")
	layers.set("experiment.fig5_wall_s", figWall.Seconds(), "s")
	layers.set("campaign.rounds", float64(cr.Metrics.Rounds+hr.Metrics.Rounds), "count")
	layers.set("campaign.ccs_sent_per_round",
		ratio(float64(cr.Metrics.CCSSent+hr.Metrics.CCSSent), float64(cr.Metrics.Rounds+hr.Metrics.Rounds)), "count")
	layers.set("campaign.net_dropped", float64(cr.Metrics.NetDropped+hr.Metrics.NetDropped), "count")
	layers.set("campaign.max_bound_us", max(cr.Metrics.MaxBoundUS, hr.Metrics.MaxBoundUS), "us")
	layers.set("campaign.max_spread_us", max(cr.Metrics.MaxSpreadUS, hr.Metrics.MaxSpreadUS), "us")
	layers.set("campaign.lease_samples", float64(cr.Metrics.Samples+hr.Metrics.Samples), "count")
	layers.setN("experiment.fig5_with_p50_us", us(fig.With.Percentile(50)), "us", fig.With.N())
	layers.setN("experiment.fig5_with_p99_us", us(fig.With.Percentile(99)), "us", fig.With.N())
	if sink != nil {
		// The simulated testbed's replica 1, rounds of the with-CTS cluster.
		deriveStages(sink.keep.Events(), 1).report(layers)
		layers.set("obs.events_per_read", ratio(float64(sink.total.Load()), float64(fig.With.N())), "count")
	}
	return res, nil
}
