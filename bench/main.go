// Command bench is the repository's benchmark: five named workloads over the
// serve path, the CCS round path and the simulator, 14 end-to-end metrics
// and a per-layer ledger, every layer measured from outside its package.
//
//	go run ./bench                        every workload, one child process each
//	go run ./bench -trace                 also rerun them traced for the per-layer numbers
//	go run ./bench -runs 3 -out A.json    three runs per workload (seeds seed..seed+2)
//	go run ./bench -compare A.json B.json apply the bounds to two result files
//
// One workload in this process (what each child runs, and what the driver of
// BENCHMARK.json invokes):
//
//	go run ./bench --workload read-rpc --seed 7 --seconds 14 --trace 0
//
// The last line of a workload run's standard output is one JSON object with
// the keys correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// defaultSeconds is the measured length of one workload run; BENCHMARK.json
// carries the same number as run_seconds.
const defaultSeconds = 14

// tracedSocketSeconds is how long a full run's traced children measure the
// socket workloads for.
const tracedSocketSeconds = 5

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// mergeTraceValue rewrites "--trace 1" (the driver's spelling) as
// "--trace=1", so that -trace can also be given bare, as a switch.
func mergeTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload in this process: "+workloadNames())
		seed     = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured seconds per workload run")
		trace    = fs.Bool("trace", false, "traced run: per-layer metrics, spans written to -outdir")
		runs     = fs.Int("runs", 1, "full run: runs per workload, seeds seed..seed+runs-1")
		out      = fs.String("out", "", "write the result JSON here (full run default: <outdir>/result.json)")
		outDir   = fs.String("outdir", filepath.Join("bench", "out"), "directory for traces and the default result file")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	if err := fs.Parse(mergeTraceValue(args)); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1))
	case *workload != "":
		o := runOpts{seed: *seed, seconds: *seconds, traced: *trace, setups: 5, microIters: 1_000_000, outDir: *outDir}
		return runChild(*workload, o, *out)
	default:
		if *out == "" {
			*out = filepath.Join(*outDir, "result.json")
		}
		return runAll(*seed, *seconds, *trace, *runs, *out, *outDir)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runWorkload dispatches one workload in this process.
func runWorkload(name string, o runOpts) (*runResult, error) {
	var (
		res *runResult
		err error
	)
	switch name {
	case wlServeBurst, wlServeSingle:
		res, err = runServe(name, o)
	case wlReadRPC, wlReadThreads:
		res, err = runRead(name, o)
	case wlSimCells:
		res, err = runSimCells(o)
	case wlMicro:
		res = newResult(name, o)
		if err = res.micro(o); err == nil {
			res.account(1, 0)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, workloadNames())
	}
	if err != nil {
		return res, err
	}
	res.finish()
	return res, nil
}

// contractLine is the last line of a workload run's standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one workload, prints every metric by name with its unit,
// then the contract line: the BENCHMARK.json end-to-end metrics for an
// untraced run, its per-layer metrics for a traced one.
func runChild(name string, o runOpts, outPath string) int {
	res, err := runWorkload(name, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printMetrics(os.Stdout, res)
	if outPath != "" {
		if err := writeJSON(outPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	reported := contractMetrics(name, res.E2E, res.Layers)
	if o.traced {
		// BENCHMARK.json lists per layer the full run's end-to-end names it
		// cannot carry as end-to-end (fail_share, sim_wall_s, virtual_*).
		all := metrics{}
		all.merge(res.E2E)
		all.merge(res.Layers)
		reported = fillLayers(all)
	}
	for k, v := range reported {
		line.Metrics[k] = contractValue{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		for _, c := range res.FailedChecks {
			fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", name, c)
		}
		return 1
	}
	return 0
}

// printMetrics writes one line per metric, tables in definition order.
func printMetrics(w *os.File, res *runResult) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g traced=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Attempted, res.Failed)
	line := func(name string, v value) {
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "  %-40s %16.4f %s%s\n", name, v.Value, v.Unit, n)
	}
	for _, d := range e2eDefs {
		if v, ok := res.E2E[d.name]; ok {
			line(d.name, v)
		}
	}
	for _, d := range layerDefs {
		if v, ok := res.Layers[d.name]; ok {
			line(d.name, v)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// fullResult is the result file of a full run.
type fullResult struct {
	Env     envInfo      `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

// runAll runs every workload, each in its own re-exec'd child process so
// that no workload inherits another's heap, goroutines or page cache state.
func runAll(seed int64, seconds float64, traced bool, runs int, outPath, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "ctsbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	full := fullResult{Env: readEnv(), Seed: seed, Seconds: seconds}
	failed := false
	child := func(name string, s int64, secs float64, trace bool) *runResult {
		path := filepath.Join(tmp, "child.json")
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace="+strconv.FormatBool(trace),
			"-out", path, "-outdir", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		err := cmd.Run()
		var res runResult
		if b, rerr := os.ReadFile(path); rerr == nil && json.Unmarshal(b, &res) == nil {
			_ = os.Remove(path)
			if err != nil {
				failed = true // a tripped check: the child still reported
			}
			return &res
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d: child failed without a result: %v\n", name, s, err)
		failed = true
		return nil
	}

	micro := child(wlMicro, seed, seconds, false)
	for r := 0; r < runs; r++ {
		s := seed + int64(r)
		for _, w := range workloads {
			res := child(w.name, s, seconds, false)
			if res == nil {
				continue
			}
			if micro != nil {
				res.Layers.merge(micro.Layers)
			}
			if traced {
				secs := seconds
				if w.name != wlSimCells {
					secs = min(seconds, tracedSocketSeconds)
				}
				if tr := child(w.name, s, secs, true); tr != nil {
					// End-to-end and counter-derived numbers stay the untraced
					// run's; the traced run adds what only it can measure.
					for k, v := range tr.Layers {
						if _, have := res.Layers[k]; !have {
							res.Layers[k] = v
						}
					}
					res.TraceFile = tr.TraceFile
				}
			}
			full.Runs = append(full.Runs, res)
		}
	}
	if err := writeJSON(outPath, full); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printSummary(full)
	fmt.Printf("bench: wrote %s\n", outPath)
	if failed {
		return 1
	}
	return 0
}

// printSummary prints, per workload, the median of every end-to-end metric
// over the runs of this invocation.
func printSummary(full fullResult) {
	e := full.Env
	fmt.Printf("\n== summary: %d CPU, GOMAXPROCS %d, %s, kernel %s, commit %s, W=%d, %gs per run\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.Commit, e.Workers, full.Seconds)
	by := groupRuns(full.Runs)
	for _, w := range workloads {
		rs := by[w.name]
		if len(rs) == 0 {
			continue
		}
		fmt.Printf("%s (%d run(s))\n", w.name, len(rs))
		for _, d := range e2eDefs {
			if vals := metricValues(rs, d.name); len(vals) > 0 {
				fmt.Printf("  %-28s %16.4f %s\n", d.name, median(vals), d.unit)
			}
		}
	}
}

func groupRuns(runs []*runResult) map[string][]*runResult {
	by := map[string][]*runResult{}
	for _, r := range runs {
		by[r.Workload] = append(by[r.Workload], r)
	}
	return by
}

// metricValues collects an end-to-end metric across runs, in run order.
func metricValues(runs []*runResult, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		if v, ok := r.E2E[name]; ok {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

func loadResult(path string) (*fullResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f fullResult
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, errors.New(path + ": no runs")
	}
	return &f, nil
}
