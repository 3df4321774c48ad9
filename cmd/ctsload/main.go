// Command ctsload drives the external time-serving frontend (internal/
// timeserve) with a closed- or open-loop query load and verifies the lease
// plane's correctness guarantees while measuring throughput and latency
// (p50/p99/p999).
//
// Against a running group:
//
//	ctsload -targets 127.0.0.1:4460,127.0.0.1:4461,127.0.0.1:4462 -duration 10s
//
// Self-contained smoke run (starts a 3-replica group in-process; this is
// what `make loadtest` runs):
//
//	ctsload -inprocess -duration 5s -min-qps 100000
//
// Each worker keeps its own UDP client and batches -batch queries per
// datagram. Two invariants are checked on every response, using only
// happened-before ordering (no global clock):
//
//   - staleness: a reading's interval [group−bound, group+bound] must reach
//     the highest lower bound of any reading that completed before this one
//     was sent — otherwise the advertised bound lies.
//   - per-replica monotonicity: a replica's group clock must never run
//     backwards between two of its responses ordered by the client.
//
// The run fails (exit 1) on any violation, or when -min-qps is set and not
// met. -json writes a machine-readable result (default BENCH_timeserve.json).
//
// With -inprocess -fed-groups N the load runs against N federated groups
// (line topology over loopback summary links) and every worker migrates
// across the groups between exchanges, so both invariants are checked
// ACROSS groups: the staleness floor is global (federated bounds must cover
// inter-group skew) and the regression floors are keyed by (group, node) —
// node ids alone collide between groups.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cts"
	"cts/internal/federation"
	"cts/internal/invariant"
	"cts/internal/stats"
	"cts/internal/testutil"
	"cts/internal/timeserve"
	"cts/internal/transport"
	"cts/internal/udptransport"

	"cts/internal/sim"
)

func main() {
	var (
		targets   = flag.String("targets", "", "comma-separated timeserve addresses of the replica group")
		inprocess = flag.Bool("inprocess", false, "start a local 3-replica group and load it (ignores -targets)")
		fedGroups = flag.Int("fed-groups", 0, "with -inprocess: start this many federated groups (line topology) and migrate each worker across them every exchange (0/1 = single group)")
		replicas  = flag.Int("replicas", 3, "replica count for -inprocess")
		shards    = flag.Int("shards", 1, "timeserve shards per in-process replica")
		lease     = flag.Duration("lease", time.Second, "lease window for -inprocess replicas")
		mode      = flag.String("mode", "closed", "load mode: closed (max rate) or open (paced by -rate)")
		rate      = flag.Float64("rate", 50000, "total target queries/s for -mode open")
		workers   = flag.Int("workers", 4, "concurrent load workers")
		batch     = flag.Int("batch", 8, "queries per datagram (1..64)")
		dgrams    = flag.Int("dgrams", 1, "datagrams per burst exchange (1..64; >1 drives the batched kernel I/O path)")
		serveIO   = flag.String("serve-io", "auto", "kernel I/O path for -inprocess replicas and burst clients: auto|seq|mmsg")
		duration  = flag.Duration("duration", 5*time.Second, "measurement duration")
		minQPS    = flag.Float64("min-qps", 0, "fail unless sustained queries/s reaches this (0 disables)")
		maxSPQ    = flag.Float64("max-syscalls-per-query", 0, "fail if server-side syscalls per query exceed this (0 disables; needs -inprocess)")
		maxAllocs = flag.Float64("max-allocs-per-op", -1, "fail if the batched serve cycle allocates more than this per op (-1 disables)")
		jsonOut   = flag.String("json", "BENCH_timeserve.json", "write machine-readable results here (empty disables)")
		seed      = flag.Int64("seed", 2003, "run label recorded in the result JSON (the live loop has no simulation RNG)")
	)
	flag.Parse()
	if err := run(config{
		targets: *targets, inprocess: *inprocess, fedGroups: *fedGroups, replicas: *replicas,
		shards: *shards, lease: *lease, mode: *mode, rate: *rate,
		workers: *workers, batch: *batch, dgrams: *dgrams, serveIO: *serveIO,
		duration: *duration, minQPS: *minQPS, maxSPQ: *maxSPQ,
		maxAllocs: *maxAllocs, jsonOut: *jsonOut, seed: *seed,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ctsload:", err)
		os.Exit(1)
	}
}

type config struct {
	targets   string
	inprocess bool
	fedGroups int
	replicas  int
	shards    int
	lease     time.Duration
	mode      string
	rate      float64
	workers   int
	batch     int
	dgrams    int
	serveIO   string
	duration  time.Duration
	minQPS    float64
	maxSPQ    float64
	maxAllocs float64
	jsonOut   string
	seed      int64
}

// result is the machine-readable run record. Scenario and Seed identify
// the row across bench files (every BENCH_*.json row carries both).
type result struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`
	Targets  int    `json:"targets"`
	// FedGroups is the number of federated in-process groups the workers
	// migrated across (0 for a plain single-group run).
	FedGroups int `json:"fed_groups,omitempty"`
	Workers   int `json:"workers"`
	Batch     int `json:"batch"`
	Dgrams    int `json:"dgrams"`
	// BatchMode names the kernel I/O path the run actually exercised:
	// "mmsg" when every in-process replica (and, for multi-datagram bursts,
	// every client) stayed on the batched recvmmsg/sendmmsg cycle, "seq"
	// otherwise.
	BatchMode string  `json:"batch_mode"`
	DurationS float64 `json:"duration_s"`
	Queries   uint64  `json:"queries"`
	QPS       float64 `json:"qps"`
	Errors    uint64  `json:"errors"`
	// SyscallsPerQuery is the server-side kernel I/O operations per served
	// query across the in-process replicas (-1 when the servers are remote
	// and the counters unreachable).
	SyscallsPerQuery float64 `json:"syscalls_per_query"`
	// AllocsPerOp is the measured heap allocations per batched
	// drain-serve cycle (-1 when the build lacks the batched path or the
	// race detector perturbs the measurement).
	AllocsPerOp float64 `json:"allocs_per_op"`
	Violations  struct {
		Staleness  uint64 `json:"staleness"`
		Regression uint64 `json:"regression"`
	} `json:"violations"`
	LatencyUS struct {
		P50  float64 `json:"p50"`
		P99  float64 `json:"p99"`
		P999 float64 `json:"p999"`
	} `json:"latency_us"`
}

func run(cfg config) error {
	if cfg.batch < 1 || cfg.batch > timeserve.MaxBatch {
		return fmt.Errorf("-batch %d outside [1, %d]", cfg.batch, timeserve.MaxBatch)
	}
	if cfg.dgrams < 1 || cfg.dgrams > timeserve.MaxBurst {
		return fmt.Errorf("-dgrams %d outside [1, %d]", cfg.dgrams, timeserve.MaxBurst)
	}
	ioMode, err := timeserve.ParseIOMode(cfg.serveIO)
	if err != nil {
		return err
	}
	if cfg.mode != "closed" && cfg.mode != "open" {
		return fmt.Errorf("unknown -mode %q (want closed or open)", cfg.mode)
	}
	if cfg.maxSPQ > 0 && !cfg.inprocess {
		return fmt.Errorf("-max-syscalls-per-query needs -inprocess (remote server counters are unreachable)")
	}
	// Probe the serve cycle's allocations before any other goroutine of this
	// process exists: a live fleet's mallocs would land in the same counter.
	allocsPerOp := measureAllocs()
	var targetsByGroup [][]string
	var fl *fleet
	if cfg.inprocess {
		ngroups := cfg.fedGroups
		if ngroups < 1 {
			ngroups = 1
		}
		fl, err = startFleet(ngroups, cfg.replicas, cfg.shards, cfg.lease, cfg.serveIO)
		if err != nil {
			return err
		}
		defer fl.stop()
		for _, g := range fl.groups {
			targetsByGroup = append(targetsByGroup, g.targets)
		}
	} else {
		if cfg.fedGroups > 1 {
			return fmt.Errorf("-fed-groups needs -inprocess (remote groups are driven one at a time via -targets)")
		}
		if cfg.targets == "" {
			return fmt.Errorf("-targets or -inprocess is required")
		}
		targetsByGroup = [][]string{strings.Split(cfg.targets, ",")}
	}
	ntargets := 0
	for _, t := range targetsByGroup {
		ntargets += len(t)
	}

	fmt.Printf("ctsload: %s loop, %d workers x %d datagram(s) x batch %d against %d target(s) in %d group(s) for %v\n",
		cfg.mode, cfg.workers, cfg.dgrams, cfg.batch, ntargets, len(targetsByGroup), cfg.duration)

	// The staleness floor is global across replica groups: with -fed-groups
	// that is the federation's promise.
	chk := &invariant.Checker{}
	var (
		queries  atomic.Uint64
		errs     atomic.Uint64
		wg       sync.WaitGroup
		stop     atomic.Bool
		lats     = make([]*stats.Durations, cfg.workers)
		cliPaths = make([]string, cfg.workers)
	)
	baseSyscalls := uint64(0)
	if fl != nil {
		baseSyscalls = fl.syscalls()
	}
	for w := 0; w < cfg.workers; w++ {
		lats[w] = &stats.Durations{}
		cliPaths[w] = "seq"
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One client per replica group; the worker migrates across the
			// groups every exchange, carrying the happened-before floors with
			// it (the migrating-client pattern the federation must serve).
			clis := make([]*timeserve.Client, len(targetsByGroup))
			closeAll := func() {
				for _, c := range clis {
					if c != nil {
						_ = c.Close() // worker teardown; sockets are going away
					}
				}
			}
			for gi := range targetsByGroup {
				cli, err := timeserve.NewClient(timeserve.ClientConfig{
					Targets: rotated(targetsByGroup[gi], w),
					Timeout: 250 * time.Millisecond,
					IO:      ioMode,
				})
				if err != nil {
					errs.Add(1)
					closeAll()
					return
				}
				clis[gi] = cli
			}
			defer closeAll()
			interval := time.Duration(0)
			if cfg.mode == "open" && cfg.rate > 0 {
				perWorker := cfg.rate / float64(cfg.workers)
				interval = time.Duration(float64(cfg.batch*cfg.dgrams) / perWorker * float64(time.Second))
			}
			next := time.Now()
			var pre invariant.Snapshot
			gidx := w % len(clis)
			for !stop.Load() {
				if interval > 0 {
					next = next.Add(interval)
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
				}
				cli := clis[gidx]
				chk.Snap(&pre)
				t0 := time.Now()
				var resps []timeserve.Response
				var err error
				if cfg.dgrams > 1 {
					resps, err = cli.QueryBurst(cfg.dgrams, cfg.batch)
				} else {
					resps, err = cli.QueryBatch(cfg.batch)
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				lats[w].Add(time.Since(t0))
				served := uint64(0)
				for _, r := range resps {
					if !r.OK() {
						// Burst exchanges hand refusals back instead of
						// erroring the whole burst.
						errs.Add(1)
						continue
					}
					served++
					chk.Observe(&pre, invariant.Key{Group: uint32(gidx), Node: r.Node}, r.Group, r.Bound)
				}
				queries.Add(served)
				gidx++
				if gidx == len(clis) {
					gidx = 0
				}
			}
			path := "mmsg"
			for _, c := range clis {
				if c.IOPath() != "mmsg" {
					path = "seq"
				}
			}
			cliPaths[w] = path
		}(w)
	}

	start := time.Now()
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	syscallsPerQuery := -1.0
	if fl != nil && queries.Load() > 0 {
		syscallsPerQuery = float64(fl.syscalls()-baseSyscalls) / float64(queries.Load())
	}

	all := &stats.Durations{}
	for _, d := range lats {
		for _, v := range d.Values() {
			all.Add(v)
		}
	}
	var res result
	res.Scenario = "timeserve-" + cfg.mode
	res.Seed = cfg.seed
	res.Mode = cfg.mode
	res.Targets = ntargets
	if len(targetsByGroup) > 1 {
		res.FedGroups = len(targetsByGroup)
	}
	res.Workers = cfg.workers
	res.Batch = cfg.batch
	res.Dgrams = cfg.dgrams
	res.BatchMode = batchMode(fl, cliPaths, cfg.dgrams)
	res.DurationS = elapsed.Seconds()
	res.Queries = queries.Load()
	res.QPS = float64(res.Queries) / elapsed.Seconds()
	res.Errors = errs.Load()
	res.SyscallsPerQuery = syscallsPerQuery
	res.AllocsPerOp = allocsPerOp
	res.Violations.Staleness, res.Violations.Regression = chk.Violations()
	if all.N() > 0 {
		res.LatencyUS.P50 = float64(all.Percentile(50)) / float64(time.Microsecond)
		res.LatencyUS.P99 = float64(all.Percentile(99)) / float64(time.Microsecond)
		res.LatencyUS.P999 = float64(all.Percentile(99.9)) / float64(time.Microsecond)
	}

	fmt.Printf("ctsload: %d queries in %v = %.0f queries/s (%d errors, io=%s)\n",
		res.Queries, elapsed.Round(time.Millisecond), res.QPS, res.Errors, res.BatchMode)
	fmt.Printf("ctsload: latency per batched exchange p50=%.0fµs p99=%.0fµs p999=%.0fµs (%d samples)\n",
		res.LatencyUS.P50, res.LatencyUS.P99, res.LatencyUS.P999, all.N())
	fmt.Printf("ctsload: syscalls/query=%s allocs/op=%s\n",
		fmtGauge(res.SyscallsPerQuery), fmtGauge(res.AllocsPerOp))
	fmt.Printf("ctsload: violations: staleness=%d regression=%d\n",
		res.Violations.Staleness, res.Violations.Regression)

	if cfg.jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("ctsload: wrote %s\n", cfg.jsonOut)
	}

	if res.Violations.Staleness > 0 || res.Violations.Regression > 0 {
		return fmt.Errorf("lease invariants violated (staleness=%d regression=%d)",
			res.Violations.Staleness, res.Violations.Regression)
	}
	if cfg.minQPS > 0 && res.QPS < cfg.minQPS {
		return fmt.Errorf("sustained %.0f queries/s below -min-qps %.0f", res.QPS, cfg.minQPS)
	}
	if cfg.maxSPQ > 0 && res.SyscallsPerQuery > cfg.maxSPQ {
		return fmt.Errorf("server issued %.3f syscalls/query, above -max-syscalls-per-query %.3f",
			res.SyscallsPerQuery, cfg.maxSPQ)
	}
	if cfg.maxAllocs >= 0 {
		if res.AllocsPerOp < 0 {
			fmt.Println("ctsload: allocs/op gate skipped (no batched path on this build, or race detector active)")
		} else if res.AllocsPerOp > cfg.maxAllocs {
			return fmt.Errorf("batched serve cycle allocates %.2f allocs/op, above -max-allocs-per-op %.2f",
				res.AllocsPerOp, cfg.maxAllocs)
		}
	}
	return nil
}

// batchMode names the kernel I/O path the run actually exercised: the
// in-process servers' path, degraded to "seq" if any multi-datagram burst
// client fell off the batched syscalls. With remote targets only the client
// side is observable.
func batchMode(fl *fleet, cliPaths []string, dgrams int) string {
	mode := "mmsg"
	if fl != nil {
		mode = fl.ioPath()
	} else if !timeserve.MmsgSupported() {
		mode = "seq"
	}
	if dgrams > 1 {
		for _, p := range cliPaths {
			if p != "mmsg" {
				return "seq"
			}
		}
	}
	return mode
}

// measureAllocs probes the batched serve cycle's allocations per operation;
// -1 when unmeasurable (no batched path, or the race detector inflates
// allocation counts).
func measureAllocs() float64 {
	if testutil.RaceEnabled {
		return -1
	}
	return timeserve.ServeAllocsPerOp()
}

// fmtGauge renders a measured-or-unavailable gauge for the summary line.
func fmtGauge(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}

// rotated returns targets rotated by w, spreading workers across replicas.
func rotated(targets []string, w int) []string {
	n := len(targets)
	out := make([]string, n)
	for i := range targets {
		out[i] = targets[(i+w)%n]
	}
	return out
}

// fleet is one or more in-process replica groups; with more than one they
// are federated over loopback UDP summary links in a line topology.
type fleet struct {
	groups []*group
	links  [][]*federation.UDPLink // [group][replica]; nil for a single group
}

// fedLoadGroupID maps a fleet group index to its wire group identifier.
func fedLoadGroupID(gi int) cts.GroupID { return cts.DefaultGroup + cts.GroupID(gi) }

// startFleet brings up ngroups in-process replica groups. With ngroups > 1
// every node gets a federation summary link, groups are wired in a line
// (group i peers with i±1), and the facade's WithFederation keeps the
// inter-group skew bounded — which is what lets one worker migrate across
// groups and still see its happened-before floors respected.
func startFleet(ngroups, n, shards int, lease time.Duration, serveIO string) (*fleet, error) {
	fl := &fleet{}
	if ngroups > 1 {
		for gi := 0; gi < ngroups; gi++ {
			var row []*federation.UDPLink
			for i := 0; i < n; i++ {
				l, err := federation.NewUDPLink("127.0.0.1:0")
				if err != nil {
					fl.stop()
					return nil, err
				}
				row = append(row, l)
			}
			fl.links = append(fl.links, row)
		}
	}
	for gi := 0; gi < ngroups; gi++ {
		var links []*federation.UDPLink
		var neighbors []cts.GroupID
		if fl.links != nil {
			links = fl.links[gi]
			if gi > 0 {
				neighbors = append(neighbors, fedLoadGroupID(gi-1))
			}
			if gi < ngroups-1 {
				neighbors = append(neighbors, fedLoadGroupID(gi+1))
			}
		}
		g, err := startGroup(gi, n, shards, lease, serveIO, links, neighbors)
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.groups = append(fl.groups, g)
	}
	for gi, row := range fl.links {
		for _, l := range row {
			for _, nb := range []int{gi - 1, gi + 1} {
				if nb < 0 || nb >= ngroups {
					continue
				}
				var addrs []string
				for _, nl := range fl.links[nb] {
					addrs = append(addrs, nl.LocalAddr())
				}
				if err := l.AddRoute(fedLoadGroupID(nb), addrs); err != nil {
					fl.stop()
					return nil, err
				}
			}
		}
	}
	// Attach the receive sides only now that every agent exists; earlier
	// frames are dropped, which the loss-tolerant exchange plane absorbs.
	for gi, row := range fl.links {
		for i, l := range row {
			l.SetAgent(fl.groups[gi].svcs[i].Federation())
		}
	}
	return fl, nil
}

// ioPath reports the fleet-wide serving I/O path: "mmsg" only while every
// group's every frontend is on the batched cycle.
func (f *fleet) ioPath() string {
	for _, g := range f.groups {
		if g.ioPath() != "mmsg" {
			return "seq"
		}
	}
	return "mmsg"
}

// syscalls sums the serving-side kernel I/O counters across all groups.
func (f *fleet) syscalls() uint64 {
	var n uint64
	for _, g := range f.groups {
		n += g.syscalls()
	}
	return n
}

func (f *fleet) stop() {
	for _, g := range f.groups {
		g.stop()
	}
	for _, row := range f.links {
		for _, l := range row {
			_ = l.Close() // teardown; the process is exiting
		}
	}
}

// group is an in-process replica group for self-contained load runs.
type group struct {
	svcs    []*cts.Service
	loops   []*sim.Loop
	trs     []*udptransport.Transport
	targets []string
}

// ioPath reports the replicas' serving I/O path: "mmsg" only while every
// frontend is on the batched cycle.
func (g *group) ioPath() string {
	for _, svc := range g.svcs {
		if ts := svc.TimeServe(); ts == nil || ts.IOPath() != "mmsg" {
			return "seq"
		}
	}
	return "mmsg"
}

// syscalls sums the replicas' serving-side kernel I/O counters.
func (g *group) syscalls() uint64 {
	var n uint64
	for _, svc := range g.svcs {
		if ts := svc.TimeServe(); ts != nil {
			n += ts.Syscalls()
		}
	}
	return n
}

// startGroup brings up n actively replicated ctsnode-equivalents on
// loopback, each with the timeserve frontend on an ephemeral port, and
// waits until every replica holds a lease. A non-nil links slice (one
// summary link per replica) joins the group to a federation with the given
// neighbor groups.
func startGroup(gi, n, shards int, lease time.Duration, serveIO string, links []*federation.UDPLink, neighbors []cts.GroupID) (*group, error) {
	if n < 2 {
		return nil, fmt.Errorf("-replicas must be at least 2, got %d", n)
	}
	g := &group{}
	ring := make([]transport.NodeID, n)
	for i := 0; i < n; i++ {
		ring[i] = transport.NodeID(i + 1)
	}
	for _, id := range ring {
		tr, err := udptransport.New(id, "127.0.0.1:0")
		if err != nil {
			g.stop()
			return nil, err
		}
		g.trs = append(g.trs, tr)
	}
	for i, tr := range g.trs {
		for j, other := range g.trs {
			if i == j {
				continue
			}
			if err := tr.SetPeer(ring[j], other.LocalAddr()); err != nil {
				g.stop()
				return nil, err
			}
		}
	}
	for i, tr := range g.trs {
		loop := sim.NewLoop()
		g.loops = append(g.loops, loop)
		opts := []cts.Option{
			cts.WithRuntime(loop),
			cts.WithTransport(tr),
			cts.WithMembers(ring),
			cts.WithGroup(fedLoadGroupID(gi)),
			cts.WithTimeServe(cts.TimeServeConfig{
				Addr:        "127.0.0.1:0",
				Shards:      shards,
				LeaseWindow: lease,
				ServeIO:     serveIO,
			}),
		}
		if links != nil {
			opts = append(opts, cts.WithFederation(cts.FederationConfig{
				Link:      links[i],
				Neighbors: neighbors,
			}))
		}
		svc, err := cts.New(opts...)
		if err != nil {
			g.stop()
			return nil, err
		}
		if err := svc.Start(); err != nil {
			g.stop()
			return nil, err
		}
		g.svcs = append(g.svcs, svc)
		g.targets = append(g.targets, svc.TimeServeAddr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, svc := range g.svcs {
		for {
			if _, ok := svc.LeaseRead(); ok {
				break
			}
			if time.Now().After(deadline) {
				g.stop()
				return nil, fmt.Errorf("in-process group failed to establish leases within 10s")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fmt.Printf("ctsload: in-process group %d up: %d replicas, targets %s\n",
		gi, len(g.targets), strings.Join(g.targets, ","))
	return g, nil
}

func (g *group) stop() {
	for _, svc := range g.svcs {
		svc.Stop()
	}
	for _, loop := range g.loops {
		loop.Close()
	}
	for _, tr := range g.trs {
		_ = tr.Close() // teardown; the process is exiting
	}
}
