package main

import (
	"fmt"
	"time"
)

// runOpts are one workload run's inputs.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	// setups is how many times the deployment is set up; setup_s is the
	// median.
	setups int
	// microIters is the per-metric iteration budget of the micro pass.
	microIters int
	// simNodes overrides the campaign cell sizes (0: derived from seconds);
	// the smoke test runs the cells at 20 nodes.
	simNodes int
	// outDir receives <workload>.trace.jsonl from a traced run ("" keeps
	// the spans in memory only).
	outDir string
}

func (o runOpts) measure() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// warm is the unmeasured lead-in that lets sockets, heaps and the lease
// plane's lag estimate settle: a tenth of the run, at most half a second.
func (o runOpts) warm() time.Duration {
	return min(o.measure()/10, 500*time.Millisecond)
}

// runResult is one workload run's record: what the child prints and, in a
// full run, hands back to the parent.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	// E2E and Layers are keyed by the metric names of metrics.go; a
	// percentile carries its sample count.
	E2E    metrics `json:"e2e"`
	Layers metrics `json:"layers"`
	// FailedChecks lists the fatal checks the run tripped (empty when
	// Correct).
	FailedChecks []string       `json:"failed_checks,omitempty"`
	Params       map[string]any `json:"params,omitempty"`
	TraceFile    string         `json:"trace_file,omitempty"`
}

func newResult(workload string, o runOpts) *runResult {
	return &runResult{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Correct: true, E2E: metrics{}, Layers: metrics{}, Params: map[string]any{},
	}
}

func (r *runResult) account(attempted, failed uint64) {
	r.Attempted += attempted
	r.Failed += failed
}

// fail records a tripped fatal check; the run exits non-zero.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.FailedChecks) < 8 { // the first few name the defect; the rest repeat it
		r.FailedChecks = append(r.FailedChecks, fmt.Sprintf(format, args...))
	}
}

// micro runs the quiescent micro pass into the layers map. It must run
// before the process starts its first cluster.
func (r *runResult) micro(o runOpts) error {
	m, err := runMicro(o.microIters)
	if err != nil {
		return err
	}
	r.Layers.merge(m)
	return nil
}

func (r *runResult) writeTrace(o runOpts, logs []*spanLog) error {
	if o.outDir == "" {
		return nil
	}
	path, err := writeSpans(o.outDir, r.Workload, logs)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.TraceFile = path
	return nil
}

// setSetup records setup_s as the median of the measured set-ups.
func (r *runResult) setSetup(seconds []float64) {
	r.E2E.setN("setup_s", median(seconds), "s", len(seconds))
}

// finish stamps the metrics every workload reports the same way.
func (r *runResult) finish() {
	r.E2E.set("peak_rss_mb", peakRSSMB(), "MB")
	if r.Attempted == 0 {
		r.fail("workload attempted no operation")
	} else if r.Attempted == r.Failed {
		r.fail("workload finished with zero OK operations")
	}
}

// repeatSetup starts the deployment n times, timing each set-up from nothing
// to ready-for-the-first-measured-op; all but the last are torn down again.
// It records setup_s and returns the last group, running.
func repeatSetup(n int, res *runResult, start func() (*group, error)) (*group, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := mono()
		g, err := start()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, (mono() - t0).Seconds())
		if i == n-1 {
			res.setSetup(times)
			return g, nil
		}
		g.stop()
	}
}
