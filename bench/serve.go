package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cts"
	"cts/internal/hwclock"
	"cts/internal/timeserve"
)

// serveShape is how one load worker talks to the frontends: dgrams request
// datagrams of batch queries each per exchange.
type serveShape struct{ dgrams, batch int }

func (s serveShape) queries() uint64 { return uint64(s.dgrams * s.batch) }

var serveShapes = map[string]serveShape{
	wlServeBurst:  {dgrams: 8, batch: 8},
	wlServeSingle: {dgrams: 1, batch: 1},
}

// Load phases, advanced by the coordinator and polled by the workers.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// serveLoad is the outcome of one closed-loop load phase.
type serveLoad struct {
	elapsed   time.Duration
	attempted uint64          // queries sent in measured exchanges
	ok        uint64          // OK answers that kept the staleness promise
	stale     uint64          // OK answers whose interval missed the pre-send floor
	regressed uint64          // answers below their replica's pre-send floor
	exchanges []time.Duration // ascending
	bounds    []time.Duration // ascending; one advertised bound per exchange
	proc      [2]procSnapshot
	counters  map[string]uint64 // group counter deltas; nil without snap
	spans     []*spanLog
}

func (l *serveLoad) failed() uint64 { return l.attempted - l.ok }

// rate is OK answers per second over the measured window.
func (l *serveLoad) rate() float64 { return ratio(float64(l.ok), l.elapsed.Seconds()) }

// runServeLoad drives W closed-loop workers, one connection each, against
// targets: warm for warm, then measure for dur. snap, if set, reads the
// group's counters at both edges of the measured window.
func runServeLoad(targets []string, shape serveShape, seed int64, warm, dur time.Duration,
	traced bool, snap func() map[string]uint64) (*serveLoad, error) {
	workers := loadWorkers()
	var (
		phase atomic.Int32
		chk   leaseChecker
		wg    sync.WaitGroup
		mu    sync.Mutex
		res   = &serveLoad{}
		first error
	)
	// Sized for the fastest loops seen (≈60k single exchanges/s, ≈20k bursts/s
	// per worker) so the slices do not grow inside the measured window and
	// the harness's own footprint stays small beside the servers'.
	perSecond := 80_000
	if shape.dgrams > 1 {
		perSecond = 30_000
	}
	capHint := int(dur.Seconds()*float64(perSecond)) + 1024
	for w := 0; w < workers; w++ {
		var log *spanLog
		if traced {
			log = newSpanLog()
		}
		res.spans = append(res.spans, log)
		cli, err := timeserve.NewClient(timeserve.ClientConfig{
			Targets: rotate(targets, int(seed)+w),
			Timeout: 250 * time.Millisecond,
		})
		if err != nil {
			phase.Store(phaseStop)
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer cli.Close()
			var (
				pre       floors
				lat       = make([]time.Duration, 0, capHint)
				bounds    = make([]time.Duration, 0, capHint)
				attempted uint64
				ok, stale uint64
				regressed uint64
				werr      error
				node      = uint32(100 + w)
			)
			for seq := uint64(1); ; seq++ {
				ph := phase.Load()
				if ph == phaseStop {
					break
				}
				chk.preSend(&pre)
				t0 := mono()
				var resps []timeserve.Response
				var err error
				if shape.dgrams > 1 {
					resps, err = cli.QueryBurst(shape.dgrams, shape.batch)
				} else {
					resps, err = cli.QueryBatch(shape.batch)
				}
				t1 := mono()
				measured := ph == phaseMeasure && phase.Load() == phaseMeasure
				if measured {
					attempted += shape.queries()
				}
				if err != nil {
					werr = err // every query of the exchange counts as failed
					continue
				}
				log.add(span{Name: spanExchange, ID: spanID(spanExchange, node, seq), Req: seq, Node: node, Start: t0, End: t1})
				gotBound := false
				for _, r := range resps {
					if !r.OK() {
						continue // a FlagStale refusal: attempted, not served
					}
					fresh, monotone := chk.onResponse(r.Node, r.Group, r.Bound, &pre)
					if !measured {
						continue
					}
					if !monotone {
						regressed++
					}
					if fresh {
						ok++
					} else {
						stale++
					}
					if !gotBound {
						bounds = append(bounds, r.Bound)
						gotBound = true
					}
				}
				if measured {
					lat = append(lat, t1-t0)
				}
			}
			mu.Lock()
			res.attempted += attempted
			res.ok += ok
			res.stale += stale
			res.regressed += regressed
			res.exchanges = append(res.exchanges, lat...)
			res.bounds = append(res.bounds, bounds...)
			if werr != nil && first == nil {
				first = werr
			}
			mu.Unlock()
		}(w)
	}
	sleep(warm)
	var before map[string]uint64
	if snap != nil {
		before = snap()
	}
	res.proc[0] = readProc()
	t0 := mono()
	phase.Store(phaseMeasure)
	sleep(dur)
	phase.Store(phaseStop)
	res.elapsed = mono() - t0
	res.proc[1] = readProc()
	if snap != nil {
		res.counters = delta(snap(), before)
	}
	wg.Wait()
	if res.ok == 0 {
		return res, fmt.Errorf("zero OK answers in %v (last client error: %v)", res.elapsed, first)
	}
	sortDurations(res.exchanges)
	sortDurations(res.bounds)
	return res, nil
}

func rotate(targets []string, by int) []string {
	n := len(targets)
	out := make([]string, n)
	for i := range targets {
		out[i] = targets[((i+by)%n+n)%n]
	}
	return out
}

// serveGroup starts a timeserve-fronted group and waits until every replica
// serves from a lease and a first query has been answered.
func serveGroup(traced bool) (*group, error) {
	g, err := startGroup(groupConfig{traced: traced, timeserve: true})
	if err != nil {
		return nil, err
	}
	if err := waitReady("every replica holds a lease", g.leased); err != nil {
		g.stop()
		return nil, err
	}
	cli, err := timeserve.NewClient(timeserve.ClientConfig{Targets: g.serveTargets()})
	if err == nil {
		_, err = cli.Query()
		_ = cli.Close() // probe socket; nothing to lose
	}
	if err != nil {
		g.stop()
		return nil, fmt.Errorf("first query: %w", err)
	}
	return g, nil
}

func (g *group) serveTargets() []string {
	var t []string
	for _, n := range g.replicas {
		t = append(t, n.svc.TimeServeAddr())
	}
	return t
}

// serveE2E fills the end-to-end metrics and the counter-derived layer
// metrics of one serve load.
func serveE2E(l *serveLoad, e2e, layers metrics) {
	secs := l.elapsed.Seconds()
	n := len(l.exchanges)
	e2e.set("qps", l.rate(), "1/s")
	e2e.setN("exchange_p50_us", us(percentile(l.exchanges, 50)), "us", n)
	e2e.setN("exchange_p99_us", us(percentile(l.exchanges, 99)), "us", n)
	e2e.set("fail_share", ratio(float64(l.failed()), float64(l.attempted)), "share")
	procMetrics(l.proc[0], l.proc[1], l.ok, e2e, layers)
	layers.setN("client.exchange_pmax_us", us(percentile(l.exchanges, supportedPercentile(n))), "us", n)
	layers.setN("core.bound_p50_us", us(percentile(l.bounds, 50)), "us", len(l.bounds))
	layers.setN("core.bound_p99_us", us(percentile(l.bounds, 99)), "us", len(l.bounds))
	layers.set("core.staleness_violations", float64(l.stale), "count")
	layers.set("core.regression_violations", float64(l.regressed), "count")
	if c := l.counters; c != nil {
		q := float64(c["timeserve.queries"])
		drains := float64(c["timeserve.mmsg_drains"])
		if drains == 0 {
			drains = float64(c["timeserve.datagrams"]) // sequential path: a drain is one datagram
		}
		layers.set("timeserve.syscalls_per_query", ratio(float64(c["timeserve.syscalls"]), q), "count")
		layers.set("timeserve.queries_per_drain", ratio(q, drains), "count")
		layers.set("timeserve.dgrams_per_drain", ratio(float64(c["timeserve.datagrams"]), drains), "count")
		layers.set("timeserve.stale_share", ratio(float64(c["timeserve.stale_rejected"]), q), "share")
		layers.set("timeserve.drop_share", ratio(float64(c["timeserve.drops"]), q+float64(c["timeserve.drops"])), "share")
		layers.set("timeserve.mmsg_fallbacks", float64(c["timeserve.mmsg_fallback"]), "count")
		layers.set("core.lease_refreshes_per_s", ratio(float64(c["core.lease_refreshes"]), secs), "1/s")
		layers.set("hwclock.reads_per_op", ratio(float64(c["bench.clock_reads"]), float64(l.ok)), "count")
		stackCounters(c, layers)
	}
}

// stackCounters reports the health counters every socket workload shares:
// any of them above 0 explains a fail_share above 0.
func stackCounters(c map[string]uint64, layers metrics) {
	layers.set("core.lease_invalidations", float64(c["core.lease_invalidations"]), "count")
	layers.set("totem.token_losses", float64(c["totem.token_losses"]), "count")
	layers.set("totem.memberships", float64(c["totem.memberships"]), "count")
	layers.set("gcs.views_emitted", float64(c["gcs.views_emitted"]), "count")
	layers.set("udptransport.read_errors", float64(c["udp.read_errors"]), "count")
	layers.set("udptransport.send_errors", float64(c["udp.send_errors"]), "count")
}

// runServe is the serve-burst / serve-single workload.
func runServe(workload string, o runOpts) (*runResult, error) {
	shape := serveShapes[workload]
	res := newResult(workload, o)
	if o.traced {
		return res, runServeTraced(shape, o, res)
	}
	g, err := repeatSetup(o.setups, res, func() (*group, error) { return serveGroup(false) })
	if err != nil {
		return res, err
	}
	defer g.stop()
	l, err := runServeLoad(g.serveTargets(), shape, o.seed, o.warm(), o.measure(), false, g.counters)
	if err != nil {
		return res, err
	}
	res.Layers.set("proc.live_heap_mb", liveHeapMB(), "MB")
	res.account(l.attempted, l.failed())
	serveE2E(l, res.E2E, res.Layers)
	if l.regressed > 0 {
		res.fail("a replica's served clock regressed %d time(s)", l.regressed)
	}
	return res, nil
}

// stubSource is a constant lease: the serve path with core bypassed.
type stubSource struct{}

func (stubSource) LeaseRead() (timeserve.Reading, bool) {
	return timeserve.Reading{GroupClock: time.Hour, Bound: time.Millisecond, Epoch: 1, Node: 1}, true
}

// leaseProbe wraps a replica's lease at the timeserve.LeaseSource boundary.
// The shards call it on the allocation-free serve path, so it only touches
// atomics and preallocated arrays, and it reads time through the static
// SystemClock (µs-truncated: single reads are coarse, but truncation is
// unbiased, so the sum over millions of reads is not).
type leaseProbe struct {
	svc   *cts.Service
	node  uint32
	clock hwclock.SystemClock

	reads  atomic.Uint64
	busyNs atomic.Int64
	// starts/ends hold the first len(starts) reads as wall-clock span edges.
	starts, ends []time.Duration
}

func (p *leaseProbe) LeaseRead() (timeserve.Reading, bool) {
	t0 := p.clock.Read()
	r, ok := p.svc.LeaseRead()
	t1 := p.clock.Read()
	p.busyNs.Add(int64(t1 - t0))
	if i := p.reads.Add(1) - 1; i < uint64(len(p.starts)) {
		p.starts[i], p.ends[i] = t0, t1
	}
	if !ok {
		return timeserve.Reading{}, false
	}
	return timeserve.Reading{GroupClock: r.GroupClock, Bound: r.Bound, Epoch: r.Epoch, Node: p.node}, true
}

// spanLog converts the sampled reads to spans on the benchmark's timebase.
func (p *leaseProbe) spanLog() *spanLog {
	wallToMono := mono() - p.clock.Read()
	log := newSpanLog()
	n := min(p.reads.Load(), uint64(len(p.starts)))
	for i := uint64(0); i < n; i++ {
		log.add(span{Name: spanLeaseRead, ID: spanID(spanLeaseRead, p.node, i+1), Node: p.node,
			Start: p.starts[i] + wallToMono, End: p.ends[i] + wallToMono})
	}
	return log
}

// startFrontends starts one bench-owned timeserve server per source, with
// the facade's configuration, and returns their addresses.
func startFrontends(sources []timeserve.LeaseSource, g *group) ([]*timeserve.Server, []string, error) {
	var servers []*timeserve.Server
	var targets []string
	for i, src := range sources {
		cfg := timeserve.Config{Addr: "127.0.0.1:0", Node: uint32(i + 1), Source: src, IO: timeserve.IOAuto}
		if g != nil {
			cfg.Obs = g.replicas[i].rec
		}
		s, err := timeserve.Start(cfg)
		if err != nil {
			closeFrontends(servers)
			return nil, nil, err
		}
		servers = append(servers, s)
		targets = append(targets, s.Addr().String())
	}
	return servers, targets, nil
}

func closeFrontends(servers []*timeserve.Server) {
	for _, s := range servers {
		_ = s.Close() // teardown: the sockets are going away either way
	}
}

// runServeTraced produces the per-layer numbers of a serve workload: the
// quiescent micro pass, an untraced reference phase (counter-derived
// metrics), a traced phase behind lease probes, and the stub-source phase.
func runServeTraced(shape serveShape, o runOpts, res *runResult) error {
	if err := res.micro(o); err != nil {
		return err
	}
	part := o.measure() * 2 / 5

	// Reference phase: untraced, facade servers.
	g, err := repeatSetup(1, res, func() (*group, error) { return serveGroup(false) })
	if err != nil {
		return err
	}
	leaseReadMicro(g.replicas[0].svc, o.microIters, res.Layers)
	ref, err := runServeLoad(g.serveTargets(), shape, o.seed, o.warm(), part, false, g.counters)
	res.Layers.set("proc.live_heap_mb", liveHeapMB(), "MB")
	g.stop()
	if err != nil {
		return fmt.Errorf("reference phase: %w", err)
	}
	res.account(ref.attempted, ref.failed())
	serveE2E(ref, res.E2E, res.Layers)

	// Traced phase: obs sinks on, bench-owned frontends behind lease probes.
	g, err = serveGroup(true)
	if err != nil {
		return err
	}
	defer g.stop()
	probes := make([]*leaseProbe, len(g.replicas))
	sources := make([]timeserve.LeaseSource, len(g.replicas))
	for i, n := range g.replicas {
		probes[i] = &leaseProbe{svc: n.svc, node: uint32(n.id),
			starts: make([]time.Duration, maxSpansPerName), ends: make([]time.Duration, maxSpansPerName)}
		sources[i] = probes[i]
	}
	servers, targets, err := startFrontends(sources, g)
	if err != nil {
		return err
	}
	tr, err := runServeLoad(targets, shape, o.seed, o.warm(), part, true, g.counters)
	closeFrontends(servers)
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	var reads uint64
	var busy time.Duration
	logs := append(g.spanLogs(), tr.spans...)
	for _, p := range probes {
		reads += p.reads.Load()
		busy += time.Duration(p.busyNs.Load())
		logs = append(logs, p.spanLog())
	}
	served := float64(tr.counters["timeserve.queries"])
	res.Layers.set("timeserve.lease_reads_per_query", ratio(float64(reads), served), "count")
	// Busy share of the serving goroutines: one shard per replica.
	res.Layers.set("timeserve.lease_read_busy_share",
		ratio(busy.Seconds(), tr.elapsed.Seconds()*float64(len(probes))), "share")
	res.Layers.set("obs.events_per_read", ratio(float64(tr.counters["bench.obs_events"]), float64(tr.ok)), "count")
	res.Layers.set("obs.trace_overhead_share", 1-ratio(tr.rate(), ref.rate()), "share")
	if err := res.writeTrace(o, logs); err != nil {
		return err
	}

	// Stub phase: the same servers over a constant source.
	stub := []timeserve.LeaseSource{stubSource{}, stubSource{}, stubSource{}}
	servers, targets, err = startFrontends(stub, nil)
	if err != nil {
		return err
	}
	sl, err := runServeLoad(targets, shape, o.seed, o.warm(), o.measure()-2*part, false, nil)
	closeFrontends(servers)
	if err != nil {
		return fmt.Errorf("stub phase: %w", err)
	}
	res.Layers.set("timeserve.stub_source_qps", sl.rate(), "1/s")
	return nil
}

// leaseReadMicro times core's LeaseRead on a live leased service before any
// load runs against it.
func leaseReadMicro(svc *cts.Service, iters int, layers metrics) {
	read := func() {
		r, _ := svc.LeaseRead()
		sinkInt = int64(r.GroupClock)
	}
	layers.set("core.lease_read_ns", timeOp(iters, read), "ns")
	// The group's token loop allocates beside the probe; the lowest of three
	// short windows is the read's own count.
	allocs := allocsPerOp(max(iters/100, 100), read)
	for i := 0; i < 2; i++ {
		allocs = min(allocs, allocsPerOp(max(iters/100, 100), read))
	}
	layers.set("core.lease_read_allocs", allocs, "count")
}
