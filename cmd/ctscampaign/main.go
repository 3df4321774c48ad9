// Command ctscampaign runs simulation campaigns: a declarative matrix of
// scenario × node count × seed cells, each deploying 8–1000 simulated
// replicas under a scripted fault schedule and self-gating on the time
// service's invariants (no group-clock regression, no staleness-bound
// violation, bounded reconvergence after the last fault). Everything runs
// in virtual time, so cells are deterministic: the same matrix and seeds
// produce byte-identical BENCH_campaign.json metrics on every run.
//
// Usage:
//
//	ctscampaign -list                          # show the scenario catalog
//	ctscampaign                                # builtin matrix at 100 nodes
//	ctscampaign -scenarios churn-storm -nodes 1000 -seeds 1,2,3
//	ctscampaign -matrix sweep.json -csv campaign.csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cts/internal/campaign"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the scenario catalog and exit")
		matrixF   = flag.String("matrix", "", "JSON matrix file (empty = builtin catalog)")
		scenarios = flag.String("scenarios", "", "comma-separated scenario subset (empty = all)")
		nodes     = flag.String("nodes", "100", "comma-separated node counts for the matrix axis")
		seeds     = flag.String("seeds", "2003", "comma-separated simulation seeds")
		jsonOut   = flag.String("json", "BENCH_campaign.json", "write per-cell results here as JSON (empty disables)")
		csvOut    = flag.String("csv", "", "also write plot-ready CSV here (empty disables)")
	)
	flag.Parse()

	if err := run(*list, *matrixF, *scenarios, *nodes, *seeds, *jsonOut, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "ctscampaign:", err)
		os.Exit(1)
	}
}

func run(list bool, matrixF, scenarios, nodes, seeds, jsonOut, csvOut string) error {
	m, err := loadMatrix(matrixF, nodes, seeds)
	if err != nil {
		return err
	}
	if scenarios != "" {
		if m, err = filterScenarios(m, scenarios); err != nil {
			return err
		}
	}
	if list {
		for _, sc := range m.Scenarios {
			fmt.Printf("%-18s orderer=%-7s %s\n", sc.Name, string(sc.Orderer), sc.Description)
		}
		return nil
	}
	if err := m.Validate(); err != nil {
		return err
	}

	cells := m.Cells()
	results := make([]campaign.Result, 0, len(cells))
	failed := 0
	for _, cell := range cells {
		sc, ok := m.ScenarioByName(cell.Scenario)
		if !ok {
			return fmt.Errorf("matrix names unknown scenario %q", cell.Scenario)
		}
		if cell.ClampedFrom > 0 {
			fmt.Printf("%-18s clamping %d -> %d nodes (scenario max_nodes)\n",
				cell.Scenario, cell.ClampedFrom, cell.Nodes)
		}
		res, err := campaign.Run(sc, cell.Nodes, cell.Seed)
		if err != nil {
			return fmt.Errorf("%s/n=%d/seed=%d: %w", cell.Scenario, cell.Nodes, cell.Seed, err)
		}
		res.ClampedFrom = cell.ClampedFrom
		results = append(results, res)
		status := "pass"
		if !res.Pass {
			status = "FAIL"
			failed++
		}
		clamped := ""
		if res.ClampedFrom > 0 {
			clamped = fmt.Sprintf(" (clamped from %d)", res.ClampedFrom)
		}
		fmt.Printf("%-18s n=%-5d seed=%-6d %s  reconverge=%.1fms bound(max/mean)=%.0f/%.0fµs rounds=%d dropped=%d%s\n",
			res.Scenario, res.Nodes, res.Seed, status, res.Metrics.ReconvergeMS,
			res.Metrics.MaxBoundUS, res.Metrics.MeanBoundUS, res.Metrics.Rounds, res.Metrics.NetDropped, clamped)
		for _, f := range res.Failures {
			fmt.Printf("    gate: %s\n", f)
		}
	}

	if jsonOut != "" {
		if err := writeJSON(jsonOut, results); err != nil {
			return fmt.Errorf("write %s: %w", jsonOut, err)
		}
		fmt.Printf("campaign results -> %s\n", jsonOut)
	}
	if csvOut != "" {
		if err := writeCSV(csvOut, results); err != nil {
			return fmt.Errorf("write %s: %w", csvOut, err)
		}
		fmt.Printf("campaign CSV -> %s\n", csvOut)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cells failed their gates", failed, len(cells))
	}
	fmt.Printf("all %d cells passed their gates\n", len(cells))
	return nil
}

// loadMatrix builds the campaign matrix from a file or the builtin catalog.
func loadMatrix(matrixF, nodes, seeds string) (campaign.Matrix, error) {
	if matrixF != "" {
		data, err := os.ReadFile(matrixF)
		if err != nil {
			return campaign.Matrix{}, err
		}
		return campaign.ParseMatrix(data)
	}
	counts, err := parseInts(nodes)
	if err != nil {
		return campaign.Matrix{}, fmt.Errorf("-nodes: %w", err)
	}
	seedList, err := parseInt64s(seeds)
	if err != nil {
		return campaign.Matrix{}, fmt.Errorf("-seeds: %w", err)
	}
	return campaign.BuiltinMatrix(counts, seedList), nil
}

// filterScenarios restricts the matrix to a named subset, listing the
// available names when one does not exist.
func filterScenarios(m campaign.Matrix, csv string) (campaign.Matrix, error) {
	keep := make([]campaign.Scenario, 0, len(m.Scenarios))
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		sc, ok := m.ScenarioByName(name)
		if !ok {
			names := make([]string, len(m.Scenarios))
			for i, s := range m.Scenarios {
				names[i] = s.Name
			}
			return campaign.Matrix{}, fmt.Errorf("unknown scenario %q; available: %s",
				name, strings.Join(names, ", "))
		}
		keep = append(keep, sc)
	}
	m.Scenarios = keep
	return m, nil
}

// writeJSON emits the per-cell results. Every row carries its scenario name
// and seed; nothing in the file depends on wall-clock time, so reruns of the
// same matrix are byte-identical.
func writeJSON(path string, results []campaign.Result) error {
	out := struct {
		Results []campaign.Result `json:"results"`
	}{Results: results}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeCSV emits one plot-ready row per cell.
func writeCSV(path string, results []campaign.Result) error {
	var b strings.Builder
	b.WriteString("scenario,nodes,clamped_from,seed,orderer,pass,regressions,staleness_violations," +
		"monotonicity_fixes,reconverge_ms,samples,unserved,max_bound_us,mean_bound_us,max_spread_us," +
		"rounds,refreshes,ccs_sent,lease_invalidations,views_emitted,net_dropped\n")
	for _, r := range results {
		m := r.Metrics
		fmt.Fprintf(&b, "%s,%d,%d,%d,%s,%t,%d,%d,%d,%.3f,%d,%d,%.3f,%.3f,%.3f,%d,%d,%d,%d,%d,%d\n",
			r.Scenario, r.Nodes, r.ClampedFrom, r.Seed, r.Orderer, r.Pass,
			m.Regressions, m.StalenessViolations, m.MonotonicityFixes, m.ReconvergeMS,
			m.Samples, m.Unserved, m.MaxBoundUS, m.MeanBoundUS, m.MaxSpreadUS,
			m.Rounds, m.Refreshes, m.CCSSent, m.Invalidations, m.ViewsEmitted, m.NetDropped)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInt64s(csv string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
