package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"cts"
	"cts/internal/rpc"
)

// readApp is the replicated application of read-rpc, at the
// replication.Application boundary: one consistent clock read per
// invocation, returned as a big-endian nanosecond count. The request body
// carries the client's request id, so spans on both sides of the wire share
// it without the stack knowing.
type readApp struct{ n *node }

func (a *readApp) Invoke(ctx *cts.Ctx, _ string, body []byte) []byte {
	out := make([]byte, 8)
	if a.n.spans == nil {
		binary.BigEndian.PutUint64(out, uint64(a.n.svc.Gettimeofday(ctx)))
		return out
	}
	t0 := mono()
	v := a.n.svc.Gettimeofday(ctx)
	t1 := mono()
	binary.BigEndian.PutUint64(out, uint64(v))
	var req uint64
	if len(body) == 8 {
		req = binary.BigEndian.Uint64(body)
	}
	node := uint32(a.n.id)
	app := spanID(spanAppInvoke, node, req)
	a.n.spans.add(span{Name: spanCoreRead, ID: spanID(spanCoreRead, node, req), Parent: app, Req: req, Node: node, Start: t0, End: t1})
	a.n.spans.add(span{Name: spanAppInvoke, ID: app, Parent: spanID(spanRPCInvoke, uint32(clientNodeID), req),
		Req: req, Node: node, Start: t0, End: mono()})
	return out
}

func (a *readApp) Snapshot() []byte { return nil }
func (a *readApp) Restore([]byte)   {}

// readLoad is the outcome of one read phase (either read workload).
type readLoad struct {
	elapsed   time.Duration
	attempted uint64
	ok        uint64
	lat       []time.Duration // ascending
	proc      [2]procSnapshot
	counters  map[string]uint64
}

// rate is reads per second over the measured window.
func (l *readLoad) rate() float64 { return ratio(float64(l.ok), l.elapsed.Seconds()) }

// rpcGroup starts replicas running readApp plus the client ring member, and
// waits until a first invocation has been answered.
func rpcGroup(traced bool) (*group, error) {
	g, err := startGroup(groupConfig{traced: traced, client: true,
		app: func(n *node) cts.Application { return &readApp{n: n} }})
	if err != nil {
		return nil, err
	}
	if err := waitReady("every replica is live", g.live); err != nil {
		g.stop()
		return nil, err
	}
	if _, err := g.client.client.InvokeSync("CurrentTime", make([]byte, 8)); err != nil {
		g.stop()
		return nil, fmt.Errorf("first invocation: %w", err)
	}
	return g, nil
}

// runRPCLoad issues sequential CurrentTime invocations, one outstanding, for
// warm (unrecorded) and then dur, and checks that the group clock the client
// sees only increases.
func runRPCLoad(g *group, warm, dur time.Duration, res *runResult) (*readLoad, error) {
	cn := g.client
	l := &readLoad{lat: make([]time.Duration, 0, int(dur.Seconds()*20_000)+1024)}
	reply := make(chan rpc.Reply, 1)
	body := make([]byte, 8)
	node := uint32(cn.id)
	var (
		req     uint64
		prev    time.Duration
		lastErr error
	)
	// invoke performs one invocation and reports its latency, 0 on failure.
	invoke := func() time.Duration {
		req++
		binary.BigEndian.PutUint64(body, req)
		t0 := mono()
		cn.client.Invoke("CurrentTime", body, func(r rpc.Reply) { reply <- r })
		r := <-reply
		t1 := mono()
		cn.spans.add(span{Name: spanRPCInvoke, ID: spanID(spanRPCInvoke, node, req), Req: req, Node: node, Start: t0, End: t1})
		if r.Err != nil || len(r.Body) != 8 {
			lastErr = r.Err
			return 0
		}
		v := time.Duration(binary.BigEndian.Uint64(r.Body))
		if v <= prev {
			res.fail("read-rpc: group clock not strictly increasing: invocation %d read %v after %v", req, v, prev)
		}
		prev = v
		return t1 - t0
	}
	for end := mono() + warm; mono() < end; {
		invoke()
	}
	before := g.counters()
	l.proc[0] = readProc()
	start := mono()
	for mono()-start < dur {
		l.attempted++
		if d := invoke(); d > 0 {
			l.ok++
			l.lat = append(l.lat, d)
		}
	}
	l.elapsed = mono() - start
	l.proc[1] = readProc()
	l.counters = delta(g.counters(), before)
	if l.ok == 0 {
		return l, fmt.Errorf("zero invocations answered in %v (last error: %v)", l.elapsed, lastErr)
	}
	sortDurations(l.lat)
	return l, nil
}

// readThreads is how many logical threads read concurrently per replica.
const readThreads = 8

// threadWarmReads is how many leading reads of each thread go unrecorded.
const threadWarmReads = 200

// threadLog is what one logical thread of one replica recorded. Threads run
// in strict alternation with their node's loop, and the logs are read only
// after every thread has finished, so no lock is needed.
type threadLog struct {
	values     []time.Duration // group clock per recorded round
	lat        []time.Duration // replica 1 only: wall time of each Gettimeofday call
	start, end time.Duration   // mono readings after the last warm-up read and the last read
}

// threadsGroup starts the replicas (facade default application, no client)
// and waits until all are live.
func threadsGroup(traced bool) (*group, error) {
	g, err := startGroup(groupConfig{traced: traced})
	if err != nil {
		return nil, err
	}
	if err := waitReady("every replica is live", g.live); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// threadReadsPerSecond sizes read-threads: 8 threads × 100 000 reads take
// ≈14s at the baseline, so a run of s seconds gives each thread s/14 of that.
const threadReadsPerSecond = 100_000 / 14.0

// runThreadsLoad spawns readThreads logical threads on every replica, in the
// same order everywhere, each reading the group clock back to back. The work
// is fixed, not the time: every thread stops after the same number of reads
// at every replica, which is what lets the sequences be compared round by
// round afterwards. (Stopping on a wall-clock deadline would stop replicas at
// different rounds; stopping on the group clock itself — identical at every
// replica — works, but that clock runs ≈20% slow under this load.)
func runThreadsLoad(g *group, dur time.Duration, res *runResult) (*readLoad, error) {
	logs := make([][]threadLog, len(g.replicas))
	reads := max(int(dur.Seconds()*threadReadsPerSecond), 50)
	var done sync.WaitGroup
	before := g.counters()
	l := &readLoad{}
	l.proc[0] = readProc()
	for ri, n := range g.replicas {
		logs[ri] = make([]threadLog, readThreads)
		for t := 0; t < readThreads; t++ {
			tl := &logs[ri][t]
			tl.values = make([]time.Duration, 0, reads)
			if ri == 0 {
				tl.lat = make([]time.Duration, 0, reads)
			}
			done.Add(1)
			n.svc.Manager().SpawnThread(func(ctx *cts.Ctx) {
				defer done.Done()
				node := uint32(n.id)
				for i := 0; i < threadWarmReads+reads; i++ {
					t0 := mono()
					v := n.svc.Gettimeofday(ctx)
					t1 := mono()
					if n.spans != nil {
						seq := ctx.ThreadID()<<32 | uint64(i)
						n.spans.add(span{Name: spanCoreRead, ID: spanID(spanCoreRead, node, seq), Req: seq, Node: node, Start: t0, End: t1})
					}
					if i < threadWarmReads {
						tl.start = t1
						continue
					}
					tl.values = append(tl.values, v)
					if tl.lat != nil {
						tl.lat = append(tl.lat, t1-t0)
					}
					tl.end = t1
				}
			})
		}
	}
	done.Wait()
	l.proc[1] = readProc()
	l.counters = delta(g.counters(), before)

	seqs := make([][][]time.Duration, len(logs))
	for ri := range logs {
		for t := range logs[ri] {
			seqs[ri] = append(seqs[ri], logs[ri][t].values)
		}
	}
	if err := checkAgreement(seqs); err != nil {
		res.fail("read-threads: replicas disagree: %v", err)
	}
	first, last := logs[0][0].start, logs[0][0].end
	for t := range logs[0] {
		tl := &logs[0][t]
		if i := checkIncreasing(tl.values, false); i >= 0 {
			res.fail("read-threads: thread %d round %d read %v after %v: the group clock regressed", t, i+1, tl.values[i], tl.values[i-1])
		}
		first, last = min(first, tl.start), max(last, tl.end)
		l.ok += uint64(len(tl.values))
		l.lat = append(l.lat, tl.lat...)
	}
	l.attempted = l.ok // a read that does not complete hangs the thread; none fails
	l.elapsed = last - first
	if l.ok == 0 {
		return l, fmt.Errorf("no thread completed a read")
	}
	sortDurations(l.lat)
	return l, nil
}

// readE2E fills the end-to-end metrics and the counter-derived layer metrics
// of one read load. Counters are summed over every ring member and divided
// by logical reads: a read is one (thread, round), executed at all replicas.
func readE2E(l *readLoad, e2e, layers metrics) {
	reads := float64(l.ok)
	n := len(l.lat)
	e2e.set("reads_per_s", l.rate(), "1/s")
	e2e.setN("read_p50_us", us(percentile(l.lat, 50)), "us", n)
	e2e.setN("read_p99_us", us(percentile(l.lat, 99)), "us", n)
	e2e.set("fail_share", ratio(float64(l.attempted-l.ok), float64(l.attempted)), "share")
	procMetrics(l.proc[0], l.proc[1], l.ok, e2e, layers)
	layers.setN("client.read_pmax_us", us(percentile(l.lat, supportedPercentile(n))), "us", n)

	c := l.counters
	f := func(name string) float64 { return float64(c[name]) }
	sent, suppressed := f("core.ccs_sent"), f("core.ccs_suppressed")
	rounds := f("core.rounds_initiated") + f("core.rounds_observed")
	layers.set("core.ccs_sent_per_read", ratio(sent, reads), "count")
	layers.set("core.suppressed_share", ratio(suppressed, sent+suppressed), "share")
	layers.set("core.coalesced_share", ratio(f("core.rounds_coalesced"), f("core.rounds_initiated")), "share")
	layers.set("core.entries_per_batch", ratio(f("core.batch_entries"), f("core.batches_sent")), "count")
	layers.set("core.monotonicity_fix_share", ratio(f("core.monotonicity_fixes"), rounds), "share")
	layers.set("totem.broadcasts_per_read", ratio(f("totem.broadcasts"), reads), "count")
	layers.set("totem.tokens_per_read", ratio(f("totem.tokens_handled"), reads), "count")
	layers.set("totem.retrans_share", ratio(f("totem.retransmissions"), f("totem.broadcasts")), "share")
	layers.set("gcs.multicasts_per_read", ratio(f("gcs.multicasts"), reads), "count")
	layers.set("gcs.delivered_per_read", ratio(f("gcs.app_delivered"), reads), "count")
	layers.set("replication.executed_per_read", ratio(f("repl.executed"), reads), "count")
	layers.set("replication.replies_suppressed_share",
		ratio(f("repl.replies_suppressed"), f("repl.replies_sent")+f("repl.replies_suppressed")), "share")
	layers.set("rpc.retries", f("rpc.retries"), "count")
	layers.set("rpc.timeouts", f("rpc.timeouts"), "count")
	layers.set("rpc.dup_replies_share", ratio(f("rpc.dup_replies"), f("rpc.replies")+f("rpc.dup_replies")), "share")
	layers.set("udptransport.sends_per_read", ratio(f("bench.udp_sends"), reads), "count")
	layers.set("udptransport.bytes_per_read", ratio(f("bench.udp_bytes"), reads), "B")
	layers.set("udptransport.recv_per_read", ratio(f("bench.udp_recvs"), reads), "count")
	layers.set("udptransport.send_busy_us_per_read", ratio(f("bench.udp_busy_ns")/1e3, reads), "us")
	layers.set("hwclock.reads_per_op", ratio(f("bench.clock_reads"), reads), "count")
	stackCounters(c, layers)
}

// readWorkload is what differs between read-rpc and read-threads.
type readWorkload struct {
	start func(traced bool) (*group, error)
	load  func(g *group, o runOpts, dur time.Duration, res *runResult) (*readLoad, error)
}

var readWorkloadsByName = map[string]readWorkload{
	wlReadRPC: {
		start: rpcGroup,
		load: func(g *group, o runOpts, dur time.Duration, res *runResult) (*readLoad, error) {
			return runRPCLoad(g, o.warm(), dur, res)
		},
	},
	wlReadThreads: {
		start: threadsGroup,
		load: func(g *group, _ runOpts, dur time.Duration, res *runResult) (*readLoad, error) {
			return runThreadsLoad(g, dur, res)
		},
	},
}

// runRead is the read-rpc / read-threads workload.
func runRead(workload string, o runOpts) (*runResult, error) {
	w := readWorkloadsByName[workload]
	res := newResult(workload, o)
	if !o.traced {
		g, err := repeatSetup(o.setups, res, func() (*group, error) { return w.start(false) })
		if err != nil {
			return res, err
		}
		defer g.stop()
		l, err := w.load(g, o, o.measure(), res)
		if err != nil {
			return res, err
		}
		res.Layers.set("proc.live_heap_mb", liveHeapMB(), "MB")
		res.account(l.attempted, l.attempted-l.ok)
		readE2E(l, res.E2E, res.Layers)
		return res, nil
	}

	// Traced: micro pass, an untraced reference phase for the counters and
	// the throughput base, then the traced phase for spans and stages.
	if err := res.micro(o); err != nil {
		return res, err
	}
	half := o.measure() / 2
	g, err := repeatSetup(1, res, func() (*group, error) { return w.start(false) })
	if err != nil {
		return res, err
	}
	ref, err := w.load(g, o, half, res)
	res.Layers.set("proc.live_heap_mb", liveHeapMB(), "MB")
	g.stop()
	if err != nil {
		return res, fmt.Errorf("reference phase: %w", err)
	}
	res.account(ref.attempted, ref.attempted-ref.ok)
	readE2E(ref, res.E2E, res.Layers)

	g, err = w.start(true)
	if err != nil {
		return res, err
	}
	defer g.stop()
	tr, err := w.load(g, o, half, res)
	if err != nil {
		return res, fmt.Errorf("traced phase: %w", err)
	}
	res.Layers.set("obs.events_per_read", ratio(float64(tr.counters["bench.obs_events"]), float64(tr.ok)), "count")
	res.Layers.set("obs.trace_overhead_share", 1-ratio(tr.rate(), ref.rate()), "share")
	first := g.replicas[0]
	stages := deriveStages(first.sink.keep.Events(), uint32(first.id))
	stages.report(res.Layers)
	if g.client != nil {
		pathSelf(g.client.spans.snapshot(), first.spans.snapshot(), res.Layers)
		printRoundTable(res.Layers, us(percentile(tr.lat, 50)))
	}
	return res, res.writeTrace(o, g.spanLogs())
}

// pathSelf reports rpc.path_self_p50_us: per request, the self time of the
// client's rpc.invoke span with replica 1's app.invoke span as its child —
// everything the read spent outside the replicated application (rpc,
// replication, gcs, the request's and the reply's own trips through the
// total order).
func pathSelf(client, replica []span, layers metrics) {
	served := make(map[uint64]bool, len(replica))
	var pairs []span
	for _, s := range replica {
		if s.Name == spanAppInvoke {
			served[s.Req] = true
			pairs = append(pairs, s)
		}
	}
	var invokes []span
	for _, s := range client {
		if s.Name == spanRPCInvoke && served[s.Req] {
			invokes = append(invokes, s)
		}
	}
	self := selfTimes(append(pairs, invokes...))
	out := make([]time.Duration, 0, len(invokes))
	for _, s := range invokes {
		out = append(out, self[s.ID])
	}
	sortDurations(out)
	layers.setN("rpc.path_self_p50_us", us(percentile(out, 50)), "us", len(out))
}

// printRoundTable prints the read-rpc decomposition next to the traced
// phase's own read_p50_us: the parts should add up to the whole.
func printRoundTable(layers metrics, readP50 float64) {
	parts := []string{"rpc.path_self_p50_us", "core.stage_queue_p50_us", "core.stage_send_p50_us",
		"order.stage_order_p50_us", "core.stage_adopt_p50_us", "core.stage_resume_p50_us"}
	sum := 0.0
	fmt.Println("read-rpc round decomposition (traced phase, p50 µs):")
	for _, p := range parts {
		fmt.Printf("  %-28s %9.1f\n", p, layers[p].Value)
		sum += layers[p].Value
	}
	fmt.Printf("  %-28s %9.1f\n  %-28s %9.1f  (sum/whole = %.2f)\n", "sum of parts", sum, "read_p50_us (traced)", readP50, ratio(sum, readP50))
}
