package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"cts/internal/core"
	"cts/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i))
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}, {99_999, 99.9}, {100_000, 99.99}, {1_000_000, 99.999}} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if got, want := spreadShare(xs), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spreadShare = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Fatalf("quartiles(10,20) = %v, %v; want 7.5, 22.5", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		{Name: "kid-a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "kid-b", ID: 3, Parent: 1, Start: 30, End: 60},    // overlaps kid-a: 30..40 counts once
		{Name: "kid-c", ID: 4, Parent: 1, Start: 90, End: 130},   // clipped to the parent's end
		{Name: "grandkid", ID: 5, Parent: 2, Start: 15, End: 20}, // subtracts from kid-a only
		{Name: "orphan", ID: 6, Parent: 99, Start: 0, End: 7},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 40, 2: 25, 3: 30, 4: 40, 5: 5, 6: 7}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "read_p50_us", better: "lower", bound: 0.10}
	higher := metricDef{name: "qps", better: "higher", bound: 0.10}
	failShare := metricDef{name: "fail_share", better: "lower", bound: 0.001, absolute: true}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{100, 101, 99}, []float64{100, 102, 99}, verdictOK},
		{"5% slower is inside 10%", lower, []float64{100, 101, 99}, []float64{105, 106, 104}, verdictOK},
		{"20% slower", lower, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictWorse},
		{"20% faster", lower, []float64{100, 101, 99}, []float64{80, 81, 79}, verdictOK},
		{"throughput down 20%", higher, []float64{1000, 1010, 990}, []float64{800, 805, 795}, verdictWorse},
		{"throughput up", higher, []float64{1000, 1010, 990}, []float64{1200, 1190, 1210}, verdictOK},
		{"spread wider than bound", lower, []float64{100, 140, 70}, []float64{104, 150, 66}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{100, 140, 90}, []float64{50, 80, 40}, verdictOK},
		{"wide spread, B worse", lower, []float64{100, 140, 70}, []float64{150, 210, 100}, verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{125}, verdictWorse},
		{"fail_share zero both", failShare, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictOK},
		{"fail_share +0.0005", failShare, []float64{0, 0, 0}, []float64{0.0005, 0.0005, 0.0004}, verdictOK},
		{"fail_share +0.01", failShare, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.0099}, verdictWorse},
	} {
		if got := compareMetric(tc.d, tc.a, tc.b); got.verdict != tc.want {
			t.Errorf("%s: verdict %q (worse %.3f, spread %.3f), want %q", tc.name, got.verdict, got.worse, got.spread, tc.want)
		}
	}
}

func TestLeaseCheckerCatchesLies(t *testing.T) {
	const ms = time.Millisecond
	var c leaseChecker
	var pre floors

	// An honest pair: the second reading is sent after the first completed
	// and its interval reaches the first one's lower edge.
	c.preSend(&pre)
	if fresh, mono := c.onResponse(1, 1000*ms, 2*ms, &pre); !fresh || !mono {
		t.Fatalf("first reading rejected: fresh=%v monotone=%v", fresh, mono)
	}
	c.preSend(&pre)
	if fresh, mono := c.onResponse(2, 999*ms, 2*ms, &pre); !fresh || !mono {
		t.Fatalf("honest overlapping reading rejected: fresh=%v monotone=%v", fresh, mono)
	}

	// A lying lease: replica 3 is 50ms behind and advertises a 1ms bound.
	c.preSend(&pre)
	if fresh, _ := c.onResponse(3, 950*ms, 1*ms, &pre); fresh {
		t.Fatal("a reading whose interval misses the floor passed as fresh")
	}
	// The same stale value behind an honest (wide) bound is fine.
	c.preSend(&pre)
	if fresh, _ := c.onResponse(3, 950*ms, 60*ms, &pre); !fresh {
		t.Fatal("an honest wide bound was flagged")
	}

	// A regressing node: replica 1 served 1000ms, then serves 990ms.
	c.preSend(&pre)
	if _, mono := c.onResponse(1, 990*ms, 20*ms, &pre); mono {
		t.Fatal("a replica's served clock ran backwards unnoticed")
	}
	// Another replica serving 990ms is no regression: floors are per node.
	c.preSend(&pre)
	if _, mono := c.onResponse(2, 999*ms, 20*ms, &pre); !mono {
		t.Fatal("node floors leaked across replicas")
	}

	// Happened-before only: a floor raised after this request's snapshot
	// must not be held against its response.
	c.preSend(&pre)
	var later floors
	c.preSend(&later)
	c.onResponse(2, 2000*ms, 1*ms, &later) // someone else completes meanwhile
	if fresh, _ := c.onResponse(1, 1001*ms, 2*ms, &pre); !fresh {
		t.Fatal("a response was checked against a floor recorded after it was sent")
	}
}

func TestCheckAgreementAndOrder(t *testing.T) {
	same := [][][]time.Duration{{{1, 2, 3}, {5, 6}}, {{1, 2, 3}, {5, 6}}, {{1, 2, 3}, {5, 6}}}
	if err := checkAgreement(same); err != nil {
		t.Fatalf("identical sequences: %v", err)
	}
	diff := [][][]time.Duration{{{1, 2, 3}}, {{1, 2, 3}}, {{1, 9, 3}}}
	if err := checkAgreement(diff); err == nil {
		t.Fatal("replica 3 disagreeing on round 2 went unnoticed")
	}
	short := [][][]time.Duration{{{1, 2, 3}}, {{1, 2}}}
	if err := checkAgreement(short); err == nil {
		t.Fatal("a replica missing a round went unnoticed")
	}
	if i := checkIncreasing([]time.Duration{1, 2, 2, 3}, false); i != -1 {
		t.Errorf("non-strict: equal values flagged at %d", i)
	}
	if i := checkIncreasing([]time.Duration{1, 2, 2, 3}, true); i != 2 {
		t.Errorf("strict: got %d, want 2", i)
	}
	if i := checkIncreasing([]time.Duration{1, 3, 2}, false); i != 2 {
		t.Errorf("regression: got %d, want 2", i)
	}
}

func TestDeriveStagesFromLifecycle(t *testing.T) {
	const usec = time.Microsecond
	evs := lifecycleEvents(1, 2, 7, [6]time.Duration{0, 1 * usec, 3 * usec, 53 * usec, 54 * usec, 56 * usec})
	// A suppressed round: no ccs_sent, so only queue, adopt and resume count.
	sup := lifecycleEvents(1, 2, 8, [6]time.Duration{100 * usec, 102 * usec, 0, 160 * usec, 161 * usec, 162 * usec})
	sup = append(sup[:2], sup[3:]...)
	evs = append(evs, sup...)
	// Another node's round and a refresh round are ignored.
	evs = append(evs, lifecycleEvents(2, 2, 7, [6]time.Duration{0, 9, 9, 9, 9, 9})...)
	evs = append(evs, lifecycleEvents(1, core.RefreshThreadID, 3, [6]time.Duration{0, 9, 9, 9, 9, 9})...)
	st := deriveStages(evs, 1)
	if len(st.queue) != 2 || len(st.send) != 1 || len(st.order) != 1 || len(st.adopt) != 2 || len(st.resume) != 2 {
		t.Fatalf("stage sample counts %d %d %d %d %d, want 2 1 1 2 2",
			len(st.queue), len(st.send), len(st.order), len(st.adopt), len(st.resume))
	}
	if st.order[0] != 50*usec || st.send[0] != 2*usec || st.queue[0] != 1*usec || st.queue[1] != 2*usec {
		t.Fatalf("stage durations: order %v send %v queue %v", st.order, st.send, st.queue)
	}
}

// lifecycleEvents builds one round's six core-scope events at the given times.
func lifecycleEvents(node uint32, thread, round uint64, at [6]time.Duration) []obs.Event {
	var evs []obs.Event
	for i, name := range obs.RoundLifecycle {
		evs = append(evs, obs.Event{T: at[i], Node: node, Scope: obs.ScopeCore, Name: name, Thread: thread, Round: round})
	}
	return evs
}

func TestMergeTraceValue(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--trace", "1"}, []string{"--workload", "x", "--trace=1"}},
		{[]string{"--trace", "0", "--seed", "3"}, []string{"--trace=0", "--seed", "3"}},
		{[]string{"-trace"}, []string{"-trace"}},
		{[]string{"-trace", "-runs", "3"}, []string{"-trace", "-runs", "3"}},
		{[]string{"-trace=1"}, []string{"-trace=1"}},
	} {
		if got := mergeTraceValue(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("mergeTraceValue(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program reports from: a metric renamed on one side only would make the
// driver miss it.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jmetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jmetric `json:"end_to_end"`
		PerLayer   []jmetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, program has %q/%q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jmetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, program has %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, contractDefs, true)
	check("per_layer", bj.PerLayer, layerDefs, false)
}

// TestSmoke runs every workload for half a second, traced (which covers the
// untraced reference phase too), and checks that the five of them together
// report every named metric, that each reports its own end-to-end metrics
// and a usable BENCHMARK.json projection, and that nothing fails.
func TestSmoke(t *testing.T) {
	seenLayers := map[string]bool{}
	known := map[string]bool{}
	for _, d := range layerDefs {
		known[d.name] = true
	}
	for _, w := range workloads {
		o := runOpts{seed: 1, seconds: 0.5, traced: true, setups: 1, microIters: 2000, simNodes: 20, outDir: t.TempDir()}
		res, err := runWorkload(w.name, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: fatal checks tripped: %v", w.name, res.FailedChecks)
		}
		for _, d := range e2eDefs {
			if _, ok := res.E2E[d.name]; ok != d.reportedBy(w.name) {
				t.Errorf("%s: end-to-end metric %s present=%v, want %v", w.name, d.name, ok, d.reportedBy(w.name))
			}
		}
		for name := range res.Layers {
			if !known[name] {
				t.Errorf("%s: reports a layer metric %q that no table names", w.name, name)
			}
			seenLayers[name] = true
		}
		for name, v := range contractMetrics(w.name, res.E2E, res.Layers) {
			if !(v.Value > 0) {
				t.Errorf("%s: BENCHMARK.json metric %s = %v, must never be 0", w.name, name, v.Value)
			}
		}
		if fs := res.E2E["fail_share"].Value; fs != 0 {
			// Staleness-floor violations are a known baseline defect of an
			// oversubscribed box (README): go test runs this package beside
			// another one's tests. Anything else failing is a bug.
			if stale := uint64(res.Layers["core.staleness_violations"].Value); stale > 0 && stale >= res.Failed {
				t.Logf("%s: fail_share %v, all of it staleness-floor violations (%d)", w.name, fs, stale)
			} else {
				t.Errorf("%s: fail_share = %v (%d of %d failed), want 0", w.name, fs, res.Failed, res.Attempted)
			}
		}
		if w.name != wlSimCells {
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("%s: traced run left no span file: %v", w.name, err)
			}
		}
	}
	for _, d := range layerDefs {
		_, isE2E := findDef(e2eDefs, d.name)
		if !seenLayers[d.name] && !isE2E {
			t.Errorf("no workload reported layer metric %s", d.name)
		}
	}
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
