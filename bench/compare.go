package main

import (
	"fmt"
	"math"
	"os"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare.
type comparison struct {
	medA, medB float64
	// worse is how far B's median is on the bad side of A's: a share of A's
	// median, or a plain difference for an absolute bound. Negative: better.
	worse   float64
	spread  float64 // the wider of the two sets' interquartile spreads, same scale
	verdict string
}

// compareMetric applies d's bound to two sets of runs of one metric on one
// workload. The median of B may be worse than A's by at most the bound.
// Where the run-to-run spread is wider than the bound the medians cannot
// tell, and the row is unresolved — unless every run of B reads better than
// every run of A.
func compareMetric(d metricDef, a, b []float64) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	diff := c.medB - c.medA
	if d.better == "higher" {
		diff = -diff
	}
	iqr := func(xs []float64) float64 {
		if len(xs) < 2 {
			return 0
		}
		q1, q3 := quartiles(xs)
		return q3 - q1
	}
	if d.absolute {
		c.worse, c.spread = diff, max(iqr(a), iqr(b))
	} else {
		c.worse, c.spread = ratio(diff, math.Abs(c.medA)), max(spreadShare(a), spreadShare(b))
	}
	switch {
	case c.spread > d.bound && !allBetter(d, a, b):
		c.verdict = verdictUnresolved
	case c.worse > d.bound:
		c.verdict = verdictWorse
	default:
		c.verdict = verdictOK
	}
	return c
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if d.better == "lower" && y >= x || d.better == "higher" && y <= x {
				return false
			}
		}
	}
	return true
}

// runCompare prints one row per (workload, end-to-end metric) and exits
// non-zero if any row is worse or unresolved.
func runCompare(pathA, pathB string) int {
	a, err := loadResult(pathA)
	if err == nil {
		var b *fullResult
		if b, err = loadResult(pathB); err == nil {
			return printComparison(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: -compare: %v\n", err)
	return 2
}

func printComparison(a, b *fullResult) int {
	fmt.Printf("A: commit %s, %d CPU, %s, %gs per run\nB: commit %s, %d CPU, %s, %gs per run\n",
		a.Env.Commit, a.Env.NumCPU, a.Env.GoVersion, a.Seconds, b.Env.Commit, b.Env.NumCPU, b.Env.GoVersion, b.Seconds)
	fmt.Printf("%-13s %-26s %4s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "B/A", "spread", "bound", "verdict")
	byA, byB := groupRuns(a.Runs), groupRuns(b.Runs)
	bad := 0
	for _, w := range workloads {
		for _, d := range e2eDefs {
			va, vb := metricValues(byA[w.name], d.name), metricValues(byB[w.name], d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareMetric(d, va, vb)
			bound := fmt.Sprintf("%.0f%%", d.bound*100)
			spread := fmt.Sprintf("%.1f%%", c.spread*100)
			if d.absolute {
				bound, spread = fmt.Sprintf("+%g", d.bound), fmt.Sprintf("%.4f", c.spread)
			}
			fmt.Printf("%-13s %-26s %2d/%-2d %14.4f %14.4f %9.3f %8s %8s  %s\n",
				w.name, d.name, len(va), len(vb), c.medA, c.medB, ratio(c.medB, c.medA), spread, bound, c.verdict)
			if c.verdict != verdictOK {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d row(s) worse or unresolved\n", bad)
		return 1
	}
	fmt.Println("every end-to-end metric within its bound")
	return 0
}
