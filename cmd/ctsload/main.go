// Command ctsload drives the external time-serving frontend (internal/
// timeserve) with a closed-loop query load and verifies the lease plane's
// correctness guarantees while measuring throughput.
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
// Each of four workers keeps its own UDP client and batches eight queries
// per datagram (-dgrams datagrams per exchange). Two invariants are checked
// on every response, using only happened-before ordering (no global clock):
//
//   - staleness: a reading's interval [group−bound, group+bound] must reach
//     the highest lower bound of any reading that completed before this one
//     was sent — otherwise the advertised bound lies.
//   - per-replica monotonicity: a replica's group clock must never run
//     backwards between two of its responses ordered by the client.
//
// The run fails (exit 1) on any violation, when -min-qps is set and not
// met, or when -max-syscalls-per-query is set and exceeded.
//
// With -inprocess -fed-groups N the load runs against N federated groups
// (line topology over loopback summary links) and every worker migrates
// across the groups between exchanges, so both invariants are checked
// ACROSS groups: the staleness floor is global (federated bounds must cover
// inter-group skew) and the regression floors are keyed by (group, node) —
// node ids alone collide between groups.
package main

import (
	"errors"
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
	"cts/internal/timeserve"
	"cts/internal/transport"
	"cts/internal/udptransport"

	"cts/internal/sim"
)

// The load shape and the in-process group size. The in-process replicas
// serve with the timeserve defaults: one shard, a 1s lease window.
const (
	workers  = 4 // concurrent load workers
	batch    = 8 // queries per datagram
	replicas = 3 // replicas per in-process group
)

func main() {
	var (
		targets   = flag.String("targets", "", "comma-separated timeserve addresses of the replica group")
		inprocess = flag.Bool("inprocess", false, "start a local 3-replica group and load it (ignores -targets)")
		fedGroups = flag.Int("fed-groups", 0, "with -inprocess: start this many federated groups (line topology) and migrate each worker across them every exchange (0/1 = single group)")
		dgrams    = flag.Int("dgrams", 1, "datagrams per burst exchange (1..64; >1 drives the batched kernel I/O path)")
		serveIO   = flag.String("serve-io", "auto", "kernel I/O path for -inprocess replicas and burst clients: auto|seq|mmsg")
		duration  = flag.Duration("duration", 5*time.Second, "measurement duration")
		minQPS    = flag.Float64("min-qps", 0, "fail unless sustained queries/s reaches this (0 disables)")
		maxSPQ    = flag.Float64("max-syscalls-per-query", 0, "fail if server-side syscalls per query exceed this (0 disables; needs -inprocess)")
	)
	flag.Parse()
	if _, err := run(config{
		targets: *targets, inprocess: *inprocess, fedGroups: *fedGroups, dgrams: *dgrams,
		serveIO: *serveIO, duration: *duration, minQPS: *minQPS, maxSPQ: *maxSPQ,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ctsload:", err)
		os.Exit(1)
	}
}

type config struct {
	targets   string
	inprocess bool
	fedGroups int
	dgrams    int
	serveIO   string
	duration  time.Duration
	minQPS    float64
	maxSPQ    float64
}

// summary is what one run measured.
type summary struct {
	// refused counts FlagStale refusals (no valid lease at the replica): a
	// burst's refused responses, or a batch exchange every replica refused.
	// errors counts the rest: timeouts, socket failures, bad answers.
	queries, refused, errors uint64
	qps                      float64
	// syscallsPerQuery is the server-side kernel I/O operations per served
	// query across the in-process replicas (-1 when the servers are remote
	// and the counters unreachable).
	syscallsPerQuery      float64
	staleness, regression uint64 // invariant violations
}

func run(cfg config) (summary, error) {
	var sum summary
	if cfg.dgrams < 1 || cfg.dgrams > timeserve.MaxBurst {
		return sum, fmt.Errorf("-dgrams %d outside [1, %d]", cfg.dgrams, timeserve.MaxBurst)
	}
	ioMode, err := timeserve.ParseIOMode(cfg.serveIO)
	if err != nil {
		return sum, err
	}
	if cfg.maxSPQ > 0 && !cfg.inprocess {
		return sum, fmt.Errorf("-max-syscalls-per-query needs -inprocess (remote server counters are unreachable)")
	}
	var targetsByGroup [][]string
	var fl *fleet
	if cfg.inprocess {
		fl, err = startFleet(max(cfg.fedGroups, 1), cfg.serveIO)
		if err != nil {
			return sum, err
		}
		defer fl.stop()
		for _, g := range fl.groups {
			targetsByGroup = append(targetsByGroup, g.targets)
		}
	} else {
		if cfg.fedGroups > 1 {
			return sum, fmt.Errorf("-fed-groups needs -inprocess (remote groups are driven one at a time via -targets)")
		}
		if cfg.targets == "" {
			return sum, fmt.Errorf("-targets or -inprocess is required")
		}
		targetsByGroup = [][]string{strings.Split(cfg.targets, ",")}
	}
	ntargets := 0
	for _, t := range targetsByGroup {
		ntargets += len(t)
	}

	fmt.Printf("ctsload: %d workers x %d datagram(s) x batch %d against %d target(s) in %d group(s) for %v\n",
		workers, cfg.dgrams, batch, ntargets, len(targetsByGroup), cfg.duration)

	// The staleness floor is global across replica groups: with -fed-groups
	// that is the federation's promise.
	chk := &invariant.Checker{}
	var (
		queries  atomic.Uint64
		refused  atomic.Uint64
		errs     atomic.Uint64
		wg       sync.WaitGroup
		stop     atomic.Bool
		cliPaths = make([]string, workers)
	)
	baseSyscalls := uint64(0)
	if fl != nil {
		baseSyscalls = fl.syscalls()
	}
	for w := 0; w < workers; w++ {
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
			var pre invariant.Snapshot
			gidx := w % len(clis)
			for !stop.Load() {
				cli := clis[gidx]
				chk.Snap(&pre)
				var resps []timeserve.Response
				var err error
				if cfg.dgrams > 1 {
					resps, err = cli.QueryBurst(cfg.dgrams, batch)
				} else {
					resps, err = cli.QueryBatch(batch)
				}
				if errors.Is(err, timeserve.ErrStale) {
					refused.Add(1) // every replica tried refused
					continue
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				served := uint64(0)
				for _, r := range resps {
					if !r.OK() {
						// Burst exchanges hand refusals back instead of
						// erroring the whole burst.
						if r.Flags&timeserve.FlagStale != 0 {
							refused.Add(1)
						} else {
							errs.Add(1)
						}
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

	sum.queries = queries.Load()
	sum.refused = refused.Load()
	sum.errors = errs.Load()
	sum.qps = float64(sum.queries) / elapsed.Seconds()
	sum.syscallsPerQuery = -1
	if fl != nil && sum.queries > 0 {
		sum.syscallsPerQuery = float64(fl.syscalls()-baseSyscalls) / float64(sum.queries)
	}
	sum.staleness, sum.regression = chk.Violations()

	spq := "n/a"
	if sum.syscallsPerQuery >= 0 {
		spq = fmt.Sprintf("%.3f", sum.syscallsPerQuery)
	}
	fmt.Printf("ctsload: %d queries in %v = %.0f queries/s (%d refused, %d errors, io=%s, syscalls/query=%s)\n",
		sum.queries, elapsed.Round(time.Millisecond), sum.qps, sum.refused, sum.errors,
		batchMode(fl, cliPaths, cfg.dgrams), spq)
	// The first witness says which replica missed which floor, and by how
	// much: the evidence a staleness failure needs.
	violations := fmt.Sprintf("staleness=%d regression=%d", sum.staleness, sum.regression)
	if w, ok := chk.First(); ok {
		violations += ", first: " + w.String()
	}
	fmt.Printf("ctsload: violations: %s\n", violations)

	if sum.staleness > 0 || sum.regression > 0 {
		return sum, fmt.Errorf("lease invariants violated (%s)", violations)
	}
	if cfg.minQPS > 0 && sum.qps < cfg.minQPS {
		return sum, fmt.Errorf("sustained %.0f queries/s below -min-qps %.0f", sum.qps, cfg.minQPS)
	}
	if cfg.maxSPQ > 0 && sum.syscallsPerQuery > cfg.maxSPQ {
		return sum, fmt.Errorf("server issued %.3f syscalls/query, above -max-syscalls-per-query %.3f",
			sum.syscallsPerQuery, cfg.maxSPQ)
	}
	return sum, nil
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
func startFleet(ngroups int, serveIO string) (*fleet, error) {
	fl := &fleet{}
	if ngroups > 1 {
		for gi := 0; gi < ngroups; gi++ {
			var row []*federation.UDPLink
			for i := 0; i < replicas; i++ {
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
		g, err := startGroup(gi, serveIO, links, neighbors)
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

// startGroup brings up replicas actively replicated ctsnode-equivalents on
// loopback, each with the timeserve frontend on an ephemeral port, and
// waits until every replica holds a lease. A non-nil links slice (one
// summary link per replica) joins the group to a federation with the given
// neighbor groups.
func startGroup(gi int, serveIO string, links []*federation.UDPLink, neighbors []cts.GroupID) (*group, error) {
	g := &group{}
	ring := make([]transport.NodeID, replicas)
	for i := range ring {
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
				Addr:    "127.0.0.1:0",
				ServeIO: serveIO,
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
