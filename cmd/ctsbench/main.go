// Command ctsbench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated testbed, plus the extension experiments
// indexed in DESIGN.md. Experiments run in virtual time, so even the
// paper-scale runs (-full, 10,000 invocations) finish quickly.
//
// Usage:
//
//	ctsbench -exp all            # every experiment, scaled-down sizes
//	ctsbench -exp fig5 -full     # Figure 5 at the paper's 10,000 invocations
//	ctsbench -exp fig6 -seed 7   # Figure 6 with a different seed
//	ctsbench -exp all -out ""    # write no files
//
// Experiments: fig1, fig5, fig5concurrent, fig6 (6a/6b/6c), msgcounts,
// rollback, recovery, drift, token, scale, ablation, federation, all.
// fig5 writes fig5.trace.jsonl and BENCH_fig5.json, fig5concurrent
// BENCH_fig5_concurrent.json and federation BENCH_federation.json, all
// under -out. fig5concurrent and federation exit nonzero when their gates
// fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cts"
	"cts/internal/campaign"
	"cts/internal/experiment"
	"cts/internal/stats"
)

// readers is the concurrent reader thread count per replica of
// fig5concurrent.
const readers = 8

func main() {
	var (
		exp  = flag.String("exp", "all", "experiment to run (fig1|fig5|fig5concurrent|fig6|msgcounts|rollback|recovery|drift|token|scale|ablation|federation|all)")
		seed = flag.Int64("seed", 2003, "simulation seed")
		full = flag.Bool("full", false, "run at the paper's full sizes (10,000 invocations)")
		out  = flag.String("out", ".", "directory for the trace and BENCH_*.json files (empty writes nothing)")
	)
	flag.Parse()

	if err := run(*exp, *seed, *full, *out); err != nil {
		fmt.Fprintln(os.Stderr, "ctsbench:", err)
		os.Exit(1)
	}
}

type result interface{ Render() string }

// entry is one experiment: run executes it, writes its files and returns
// its result.
type entry struct {
	name string
	run  func() (result, error)
}

// aliases name the Figure 6 panels, which one fig6 run produces together.
var aliases = map[string]string{"fig6a": "fig6", "fig6b": "fig6", "fig6c": "fig6"}

// table lists every experiment at the sizes -full selects, writing under
// out.
func table(seed int64, full bool, out string) []entry {
	invocations, ops, readsPer := 1000, 1000, 25
	if full {
		invocations, ops, readsPer = 10000, 10000, 100
	}
	return []entry{
		{"fig1", func() (result, error) { return experiment.RunFigure1(seed, min(ops, 2000)) }},
		{"fig5", func() (result, error) { return runFig5(seed, invocations, out) }},
		{"fig5concurrent", func() (result, error) {
			res, err := experiment.RunFigure5Concurrent(seed, readers, readsPer)
			if err != nil {
				return nil, err
			}
			return res, writeJSON(out, "BENCH_fig5_concurrent.json", concurrentJSON(seed, res))
		}},
		{"fig6", func() (result, error) { return experiment.RunFigure6(seed, ops, 20) }},
		{"msgcounts", func() (result, error) { return experiment.RunMessageCounts(seed, ops) }},
		{"rollback", func() (result, error) { return experiment.RunRollback(seed, -5*time.Second) }},
		{"recovery", func() (result, error) { return experiment.RunRecovery(seed, 200*time.Second) }},
		{"drift", func() (result, error) { return experiment.RunDrift(seed, min(ops, 2000)) }},
		{"token", func() (result, error) { return experiment.RunTokenTiming(seed, min(invocations, 5000)) }},
		{"scale", func() (result, error) { return experiment.RunScaling(seed, []int{2, 4, 8, 12, 16}, 200) }},
		{"ablation", func() (result, error) { return experiment.RunCCSAblation(seed, min(invocations, 2000)) }},
		{"federation", func() (result, error) {
			res, err := experiment.RunFederationSweep(seed)
			if err != nil {
				return nil, err
			}
			// Every cell carries its own verdict and failure list, so a
			// regression shows up as pass=false, never as missing coverage.
			return res, writeJSON(out, "BENCH_federation.json", struct {
				Experiment string               `json:"experiment"`
				Seed       int64                `json:"seed"`
				Cells      []campaign.FedResult `json:"cells"`
			}{Experiment: "federation", Seed: res.Seed, Cells: res.Cells})
		}},
	}
}

func run(exp string, seed int64, full bool, out string) error {
	entries := table(seed, full, out)
	if canonical, ok := aliases[exp]; ok {
		exp = canonical
	}
	matched := false
	for _, e := range entries {
		if exp != "all" && exp != e.name {
			continue
		}
		matched = true
		start := time.Now()
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("=== %s (seed %d, %v wall) ===\n%s\n", e.name, seed,
			time.Since(start).Round(time.Millisecond), res.Render())
		if g, ok := res.(interface{ Gate() error }); ok {
			if err := g.Gate(); err != nil {
				return fmt.Errorf("%s gate: %w", e.name, err)
			}
		}
	}
	if matched {
		return nil
	}
	names := make([]string, 0, len(entries)+len(aliases)+1)
	for _, e := range entries {
		names = append(names, e.name)
	}
	for alias := range aliases {
		names = append(names, alias)
	}
	sort.Strings(names)
	names = append(names, "all")
	if exp == "" {
		return fmt.Errorf("no experiment given; available: %s", strings.Join(names, ", "))
	}
	return fmt.Errorf("unknown experiment %q; available: %s", exp, strings.Join(names, ", "))
}

// runFig5 runs Figure 5 with the observability layer on. Under out it
// exports the round trace as JSON lines and writes the latency summary.
func runFig5(seed int64, invocations int, out string) (result, error) {
	if out == "" {
		return experiment.RunFigure5Traced(seed, invocations, nil)
	}
	path := filepath.Join(out, "fig5.trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sink, err := cts.NewJSONLinesSink(f)
	if err != nil {
		return nil, err
	}
	res, err := experiment.RunFigure5Traced(seed, invocations, sink)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, fmt.Errorf("flush trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d events -> %s\n", sink.Count(), path)
	return res, writeJSON(out, "BENCH_fig5.json", struct {
		Experiment  string         `json:"experiment"`
		Seed        int64          `json:"seed"`
		Invocations int            `json:"invocations"`
		With        latencySummary `json:"with_cts"`
		Without     latencySummary `json:"without_cts"`
		OverheadUS  float64        `json:"overhead_us"`
	}{
		Experiment:  "fig5",
		Seed:        seed,
		Invocations: invocations,
		With:        summarize(&res.With),
		Without:     summarize(&res.Without),
		OverheadUS:  us(res.Overhead()),
	})
}

// writeJSON writes v as indented JSON to the file name under out and
// reports the path; an empty out writes nothing.
func writeJSON(out, name string, v any) error {
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(out, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("json -> %s\n", path)
	return nil
}

func us(v time.Duration) float64 { return float64(v) / float64(time.Microsecond) }

// latencySummary is one JSON latency record of the fig5 benchmark file.
type latencySummary struct {
	N      int     `json:"n"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
}

func summarize(d *stats.Durations) latencySummary {
	return latencySummary{
		N:      d.N(),
		MeanUS: us(d.Mean()),
		P50US:  us(d.Percentile(50)),
		P99US:  us(d.Percentile(99)),
		P999US: us(d.Percentile(99.9)),
	}
}

// concurrentSide is one side of the fig5concurrent benchmark file.
type concurrentSide struct {
	Readers           int     `json:"readers"`
	OpsPerReader      int     `json:"ops_per_reader"`
	WallWithUS        float64 `json:"wall_with_cts_us"`
	WallWithoutUS     float64 `json:"wall_without_cts_us"`
	PerReadOverheadUS float64 `json:"per_read_overhead_us"`
}

func side(r *experiment.ConcurrentRun) concurrentSide {
	return concurrentSide{
		Readers:           r.Readers,
		OpsPerReader:      r.OpsPerReader,
		WallWithUS:        us(r.WallWith),
		WallWithoutUS:     us(r.WallWithout),
		PerReadOverheadUS: us(r.PerReadOverhead()),
	}
}

// concurrentJSON is the fig5concurrent benchmark file: both sides, the
// amortization ratio and the multi-reader coalescing counters.
func concurrentJSON(seed int64, r *experiment.Figure5ConcurrentResult) any {
	return struct {
		Experiment        string         `json:"experiment"`
		Seed              int64          `json:"seed"`
		Concurrent        concurrentSide `json:"concurrent"`
		Single            concurrentSide `json:"single_reader"`
		AmortizationRatio float64        `json:"amortization_ratio"`
		RoundsCoalesced   uint64         `json:"rounds_coalesced"`
		BatchesSent       uint64         `json:"batches_sent"`
		BatchEntries      uint64         `json:"batch_entries"`
		RedundantBatches  uint64         `json:"redundant_batches"`
		CCSSent           uint64         `json:"ccs_sent"`
	}{
		Experiment:        "fig5_concurrent",
		Seed:              seed,
		Concurrent:        side(r.Multi),
		Single:            side(r.Single),
		AmortizationRatio: r.Ratio(),
		RoundsCoalesced:   r.Multi.RoundsCoalesced,
		BatchesSent:       r.Multi.BatchesSent,
		BatchEntries:      r.Multi.BatchEntries,
		RedundantBatches:  r.Multi.RedundantBatches,
		CCSSent:           r.Multi.CCSSent,
	}
}
