package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"cts/internal/core"
	"cts/internal/faultinject"
	"cts/internal/invariant"
	"cts/internal/obs"
	"cts/internal/replication"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/stats"
	"cts/internal/totem"
	"cts/internal/transport"
)

// testbedClocks reproduces the testbed's slightly disagreeing hardware
// clocks: phase offsets of a few ms and drifts of tens of ppm, typical of
// commodity PC oscillators.
func testbedClocks() []ClockSpec {
	return []ClockSpec{
		{Offset: 0, DriftPPM: 12},
		{Offset: 3 * time.Millisecond, DriftPPM: -9},
		{Offset: -2 * time.Millisecond, DriftPPM: 21},
	}
}

// ---------------------------------------------------------------------------
// E1 — Figure 5: PDF of end-to-end latency, with and without the service.
// ---------------------------------------------------------------------------

// Figure5Result holds the two latency samples of Figure 5.
type Figure5Result struct {
	With    stats.Durations // consistent time service active
	Without stats.Durations // raw local clocks
	// Metrics carries the stack-wide counters of the traced (ModeCTS) run,
	// gathered through the obs.Source registry. Empty unless the run was
	// started with RunFigure5Traced.
	Metrics []obs.Sample
}

// Overhead reports the added mean latency (the paper measures ≈300µs, one
// extra token circulation).
func (r *Figure5Result) Overhead() time.Duration {
	return r.With.Mean() - r.Without.Mean()
}

// RunFigure5 measures the end-to-end latency of a CurrentTime invocation on
// a three-way actively replicated server, over `invocations` sequential
// calls, with and without the consistent time service (§4.2 application 1).
// A small random client think time between invocations de-phases the client
// from the token rotation, so the latency sample covers all rotation phases
// (back-to-back invocations lock onto the rotation and hide stage costs in
// the wait for the client node's token visit).
func RunFigure5(seed int64, invocations int) (*Figure5Result, error) {
	return runFigure5(seed, invocations, nil, false)
}

// RunFigure5Traced is RunFigure5 with the observability layer enabled on the
// ModeCTS cluster: round trace events go to sink (which may be nil for
// metrics only) and Figure5Result.Metrics carries the gathered stack-wide
// counters. The measurement (ModeLocal) cluster stays uninstrumented.
func RunFigure5Traced(seed int64, invocations int, sink obs.TraceSink) (*Figure5Result, error) {
	return runFigure5(seed, invocations, sink, true)
}

func runFigure5(seed int64, invocations int, sink obs.TraceSink, observe bool) (*Figure5Result, error) {
	res := &Figure5Result{}
	err := eachMode([]TimeMode{ModeCTS, ModeLocal}, func(mode TimeMode) error {
		cc := ClusterConfig{
			Seed:   seed,
			Clocks: testbedClocks(),
			Style:  replication.Active,
			Mode:   mode,
		}
		if mode == ModeCTS && observe {
			cc.Observe = true
			cc.TraceSink = sink
		}
		c, err := NewCluster(cc)
		if err != nil {
			return err
		}
		lat, err := c.invokeSeq(invocations, rand.New(rand.NewSource(seed+77)), 10*time.Millisecond)
		if err != nil {
			return fmt.Errorf("figure5 (mode %d): %w", mode, err)
		}
		if mode == ModeLocal {
			res.Without = lat
			return nil
		}
		res.With = lat
		if c.Obs != nil {
			res.Metrics = c.Obs.Samples()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// eachMode runs fn once per mode, each on its own goroutine, and waits for
// all of them; it returns the first error in mode order. Every call builds
// and drives its own cluster (kernel, network, RNG), and nothing mutable in
// the packages a cluster runs is shared, so the paired clusters of one
// experiment run side by side and give the results they give one after the
// other. fn writes only the result fields of its own mode.
func eachMode(modes []TimeMode, fn func(TimeMode) error) error {
	errs := make([]error, len(modes))
	var wg sync.WaitGroup
	for i, mode := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(mode)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Render formats the two PDFs side by side, 50µs bins, as the paper plots,
// followed by the stack-wide counters of a traced run.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — end-to-end latency at the client (n=%d per mode)\n", r.With.N())
	fmt.Fprintf(&b, "  with CTS:    %s\n", r.With.Summary())
	fmt.Fprintf(&b, "  without CTS: %s\n", r.Without.Summary())
	fmt.Fprintf(&b, "  overhead (mean): %v\n", r.Overhead())
	bin := 50 * time.Microsecond
	hw := r.With.Histogram(0, bin)
	ho := r.Without.Histogram(0, bin)
	bw, bo := hw.Bins(), ho.Bins()
	n := len(bw)
	if len(bo) > n {
		n = len(bo)
	}
	fmt.Fprintf(&b, "  %-16s %-22s %-22s\n", "latency bin", "P(with) density/ms", "P(without) density/ms")
	for i := 0; i < n; i++ {
		lo := time.Duration(i) * bin
		var dw, do float64
		if i < len(bw) {
			dw = bw[i].Density / 1000 // per ms for readability
		}
		if i < len(bo) {
			do = bo[i].Density / 1000
		}
		if dw == 0 && do == 0 {
			continue
		}
		fmt.Fprintf(&b, "  [%6v,%6v) %-22.4f %-22.4f\n", lo, lo+bin, dw, do)
	}
	if len(r.Metrics) > 0 {
		m := obs.SampleMap(r.Metrics)
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("\nstack metrics (summed across nodes):\n")
		for _, name := range names {
			fmt.Fprintf(&b, "  %-28s %d\n", name, m[name])
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E2 — §4.3 CCS message counts: duplicate suppression on the wire.
// ---------------------------------------------------------------------------

// MsgCountsResult reports, per replica node, how many CCS messages reached
// the network during a run of the skew/drift application.
type MsgCountsResult struct {
	Rounds    int
	PerNode   map[transport.NodeID]uint64
	TotalSent uint64
}

// RunMessageCounts drives `ops` sequential CurrentTime invocations on a
// three-way active server — the Figure 5 workload, whose run the paper's
// CCS counts are reported for — and counts the CCS messages each node put
// on the wire (paper: 1 / 9,977 / 22 for 10,000 rounds — about one message
// per round in total, thanks to duplicate suppression, and heavily skewed
// toward the replica whose token visit follows the request delivery).
func RunMessageCounts(seed int64, ops int) (*MsgCountsResult, error) {
	c, err := NewCluster(ClusterConfig{
		Seed:    seed,
		Clocks:  testbedClocks(),
		Style:   replication.Active,
		Mode:    ModeCTS,
		Observe: true,
	})
	if err != nil {
		return nil, err
	}
	if _, err := c.invokeSeq(ops, nil, 10*time.Millisecond); err != nil {
		return nil, fmt.Errorf("msgcounts: %w", err)
	}
	c.K.RunFor(10 * time.Millisecond) // let straggler suppression settle
	res := &MsgCountsResult{Rounds: ops, PerNode: make(map[transport.NodeID]uint64)}
	c.K.Post(func() {
		for _, s := range c.Obs.Samples() {
			if s.Name == "core.ccs_sent" {
				res.PerNode[transport.NodeID(s.Node)] += s.Value
				res.TotalSent += s.Value
			}
		}
	})
	c.K.RunFor(time.Millisecond)
	return res, nil
}

// Render formats the per-node counts.
func (r *MsgCountsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CCS message counts (§4.3) — %d rounds\n", r.Rounds)
	ids := make([]transport.NodeID, 0, len(r.PerNode))
	for id := range r.PerNode {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "  %v sent %d CCS messages\n", id, r.PerNode[id])
	}
	fmt.Fprintf(&b, "  total on wire: %d (vs %d without suppression)\n",
		r.TotalSent, 3*r.Rounds)
	return b.String()
}

// ---------------------------------------------------------------------------
// E3/E4/E5 — Figure 6: read intervals, winner offset, group clock drift.
// ---------------------------------------------------------------------------

// Figure6Result holds the three series of Figure 6.
type Figure6Result struct {
	Rounds int
	// IntervalGroup[r] is the group-clock interval between reads r and r+1
	// (identical at every replica).
	IntervalGroup []time.Duration
	// IntervalPhys[id][r] is the physical-clock interval at replica id.
	IntervalPhys map[transport.NodeID][]time.Duration
	// Winner[r] is the synchronizer of round r+1.
	Winner []transport.NodeID
	// FirstWinner is the synchronizer of round 1.
	FirstWinner transport.NodeID
	// WinnerOffset[r] is the first-round winner's clock offset after round r+1.
	WinnerOffset []time.Duration
	// NormPhys[id][r] is replica id's physical clock at round r+1, normalized
	// by subtracting its value in the initial round; NormGroup likewise for
	// the group clock.
	NormPhys  map[transport.NodeID][]time.Duration
	NormGroup []time.Duration
}

// RunFigure6 runs the skew/drift application (§4.2 application 2): each
// replica performs `ops` clock operations separated by random busy-wait
// delays, and the first `rounds` rounds are reported as in Figure 6.
func RunFigure6(seed int64, ops, rounds int) (*Figure6Result, error) {
	c, err := NewCluster(ClusterConfig{
		Seed:   seed,
		Clocks: testbedClocks(),
		Style:  replication.Active,
		Mode:   ModeCTS,
	})
	if err != nil {
		return nil, err
	}
	if err := driveReadSequence(c, ops); err != nil {
		return nil, err
	}
	if rounds > ops-1 {
		rounds = ops - 1
	}
	res := &Figure6Result{
		Rounds:       rounds,
		IntervalPhys: make(map[transport.NodeID][]time.Duration),
		NormPhys:     make(map[transport.NodeID][]time.Duration),
	}
	ids := []transport.NodeID{1, 2, 3}
	app1 := c.Apps[1]
	for r := 0; r < rounds; r++ {
		res.IntervalGroup = append(res.IntervalGroup, app1.Readings[r+1]-app1.Readings[r])
	}
	for _, id := range ids {
		app := c.Apps[id]
		for r := 0; r < rounds; r++ {
			res.IntervalPhys[id] = append(res.IntervalPhys[id],
				app.PhysBefore[r+1]-app.PhysBefore[r])
			res.NormPhys[id] = append(res.NormPhys[id],
				app.PhysBefore[r+1]-app.PhysBefore[0])
		}
	}
	for r := 0; r < rounds; r++ {
		res.NormGroup = append(res.NormGroup, app1.Readings[r+1]-app1.Readings[0])
	}
	// Winners and the first-round winner's offset trajectory.
	reps := c.Reports[1] // all replicas agree on the winner sequence
	if len(reps) == 0 {
		return nil, fmt.Errorf("figure6: no round reports")
	}
	res.FirstWinner = reps[0].Winner
	for r := 0; r < rounds && r < len(reps); r++ {
		res.Winner = append(res.Winner, reps[r].Winner)
	}
	winnerReps := c.Reports[res.FirstWinner]
	for r := 0; r < rounds && r < len(winnerReps); r++ {
		res.WinnerOffset = append(res.WinnerOffset, winnerReps[r].Offset)
	}
	return res, nil
}

// Render formats the three panels of Figure 6.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6(a) — clock-read intervals, first %d rounds\n", r.Rounds)
	fmt.Fprintf(&b, "  %-6s %-12s %-12s %-12s %-12s %-8s\n",
		"round", "group", "phys P1", "phys P2", "phys P3", "winner")
	for i := 0; i < r.Rounds; i++ {
		fmt.Fprintf(&b, "  %-6d %-12v %-12v %-12v %-12v %-8v\n",
			i+1, r.IntervalGroup[i],
			r.IntervalPhys[1][i], r.IntervalPhys[2][i], r.IntervalPhys[3][i],
			r.Winner[i])
	}
	fmt.Fprintf(&b, "Figure 6(b) — offset of the first-round winner (%v)\n", r.FirstWinner)
	for i, off := range r.WinnerOffset {
		fmt.Fprintf(&b, "  round %-4d offset %v\n", i+1, off)
	}
	fmt.Fprintf(&b, "Figure 6(c) — normalized clocks (group runs slow)\n")
	fmt.Fprintf(&b, "  %-6s %-12s %-12s %-12s %-12s\n",
		"round", "group", "phys P1", "phys P2", "phys P3")
	for i := 0; i < r.Rounds; i++ {
		fmt.Fprintf(&b, "  %-6d %-12v %-12v %-12v %-12v\n",
			i+1, r.NormGroup[i],
			r.NormPhys[1][i], r.NormPhys[2][i], r.NormPhys[3][i])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E6 — Figure 1: raw clock reads are inconsistent across replicas.
// ---------------------------------------------------------------------------

// Figure1Result quantifies replica clock inconsistency per operation.
type Figure1Result struct {
	Ops       int
	SpreadRaw stats.Durations // max−min across replicas, raw local clocks
	SpreadCTS stats.Durations // same with the consistent time service
}

// RunFigure1 performs the same clock-operation sequence on three replicas
// whose physical clocks are perfectly synchronized, first with raw local
// clocks and then with the consistent time service. Even with synchronized
// clocks, the raw readings differ across replicas because the operations
// execute at different real times (Figure 1); the group clock removes the
// inconsistency entirely.
func RunFigure1(seed int64, ops int) (*Figure1Result, error) {
	res := &Figure1Result{Ops: ops}
	replicaIDs := []transport.NodeID{1, 2, 3}
	err := eachMode([]TimeMode{ModeLocal, ModeCTS}, func(mode TimeMode) error {
		c, err := NewCluster(ClusterConfig{
			Seed:   seed,
			Clocks: make([]ClockSpec, 3), // perfectly synchronized clocks
			Style:  replication.Active,
			Mode:   mode,
		})
		if err != nil {
			return err
		}
		if err := driveReadSequence(c, ops); err != nil {
			return err
		}
		sample := &res.SpreadRaw
		if mode == ModeCTS {
			sample = &res.SpreadCTS
		}
		n := ops
		for _, id := range replicaIDs {
			if got := len(c.Apps[id].Readings); got < n {
				n = got
			}
		}
		for i := 0; i < n; i++ {
			lo, hi := time.Duration(1<<62), time.Duration(-1<<62)
			for _, id := range replicaIDs {
				v := c.Apps[id].Readings[i]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			sample.Add(hi - lo)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the inconsistency comparison.
func (r *Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — per-operation clock-reading spread across replicas (n=%d)\n", r.Ops)
	fmt.Fprintf(&b, "  raw local clocks (synchronized hardware): %s\n", r.SpreadRaw.Summary())
	fmt.Fprintf(&b, "  consistent time service:                  %s\n", r.SpreadCTS.Summary())
	return b.String()
}

// ---------------------------------------------------------------------------
// E7 — §1 motivation: roll-back / fast-forward on primary failure.
// ---------------------------------------------------------------------------

// RollbackResult compares the clock across a primary failure for the
// primary/backup baseline vs the consistent time service.
type RollbackResult struct {
	BackupSkew     time.Duration // backup clock − primary clock
	BaselineBefore time.Duration // last reading before the failure (baseline)
	BaselineAfter  time.Duration // first reading after (baseline)
	CTSBefore      time.Duration
	CTSAfter       time.Duration
}

// BaselineJump reports the baseline's discontinuity (negative = roll-back).
func (r *RollbackResult) BaselineJump() time.Duration {
	return r.BaselineAfter - r.BaselineBefore
}

// CTSJump reports the consistent time service's discontinuity.
func (r *RollbackResult) CTSJump() time.Duration {
	return r.CTSAfter - r.CTSBefore
}

// RunRollback reads the clock through a passive-replicated server, crashes
// the primary, and reads again. backupSkew is the backup's physical clock
// offset relative to the primary's: negative reproduces roll-back, positive
// fast-forward (§1).
func RunRollback(seed int64, backupSkew time.Duration) (*RollbackResult, error) {
	res := &RollbackResult{BackupSkew: backupSkew}
	err := eachMode([]TimeMode{ModePrimaryBackup, ModeCTS}, func(mode TimeMode) error {
		c, err := NewCluster(ClusterConfig{
			Seed: seed,
			Clocks: []ClockSpec{
				{Offset: 10 * time.Second},              // primary (node 1)
				{Offset: 10*time.Second + backupSkew},   // backup (node 2)
				{Offset: 10*time.Second + backupSkew/2}, // backup (node 3)
			},
			Style:           replication.Passive,
			Mode:            mode,
			CheckpointEvery: 2,
		})
		if err != nil {
			return err
		}
		var last time.Duration
		for i := 0; i < 5; i++ {
			if last, err = c.ReadOnce(); err != nil {
				return fmt.Errorf("rollback: %w", err)
			}
		}
		c.Inject.Apply(faultinject.Event{Kind: faultinject.Crash, At: c.K.Now(), Nodes: []transport.NodeID{1}})
		after, err := c.ReadOnce()
		if err != nil {
			return fmt.Errorf("rollback: %w", err)
		}
		if mode == ModePrimaryBackup {
			res.BaselineBefore, res.BaselineAfter = last, after
		} else {
			res.CTSBefore, res.CTSAfter = last, after
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the failover comparison.
func (r *RollbackResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Roll-back on failover (backup clock skew %v)\n", r.BackupSkew)
	fmt.Fprintf(&b, "  primary/backup baseline: %v -> %v  (jump %v)\n",
		r.BaselineBefore, r.BaselineAfter, r.BaselineJump())
	fmt.Fprintf(&b, "  consistent time service: %v -> %v  (jump %v)\n",
		r.CTSBefore, r.CTSAfter, r.CTSJump())
	return b.String()
}

// ---------------------------------------------------------------------------
// E8 — §3.2: integration of a new clock via the special round.
// ---------------------------------------------------------------------------

// RecoveryResult reports the group clock around a replica recovery.
type RecoveryResult struct {
	NewClockOffset time.Duration // the newcomer's physical clock offset
	Before         time.Duration // last group clock before the join
	After          time.Duration // first group clock after the newcomer is live
	SpecialRounds  uint64
	NewcomerMatch  bool // the newcomer shared rounds with the others and the round oracle saw them agree
}

// RunRecovery starts two replicas, reads, joins a third replica whose clock
// is far off, and reads again; monotonicity and consistency must hold.
func RunRecovery(seed int64, newClockOffset time.Duration) (*RecoveryResult, error) {
	c, err := NewCluster(ClusterConfig{
		Seed:    seed,
		Clocks:  []ClockSpec{{Offset: 0}, {Offset: 2 * time.Second}},
		Style:   replication.Active,
		Mode:    ModeCTS,
		Observe: true,
	})
	if err != nil {
		return nil, err
	}
	if err := driveReadSequence(c, 6); err != nil {
		return nil, err
	}
	res := &RecoveryResult{NewClockOffset: newClockOffset}
	res.Before = c.Apps[1].Readings[len(c.Apps[1].Readings)-1]

	id, err := c.AddRecoveringReplica(ClockSpec{Offset: newClockOffset})
	if err != nil {
		return nil, err
	}
	live := false
	ok := c.RunUntil(10*time.Second, func() bool {
		c.K.Post(func() { live = c.Nodes[id].Manager().Live() })
		c.K.RunFor(50 * time.Microsecond)
		return live
	})
	if !ok {
		return nil, fmt.Errorf("recovery: replica never went live")
	}
	if err := driveReadSequence(c, 6); err != nil {
		return nil, err
	}
	res.After = c.Apps[id].Readings[0]
	c.K.Post(func() {
		for _, s := range c.Obs.Samples() {
			if s.Name == "core.special_rounds" && (s.Node == 1 || s.Node == 2) {
				res.SpecialRounds += s.Value
			}
		}
	})
	c.K.RunFor(time.Millisecond)
	res.NewcomerMatch = c.rounds.Shared(invariant.Key{Group: uint32(ServerGroup), Node: uint32(id)}) > 0 && c.Err() == nil
	return res, nil
}

// Render formats the recovery report.
func (r *RecoveryResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery with new clock (offset %v from group)\n", r.NewClockOffset)
	fmt.Fprintf(&b, "  group clock before join: %v\n", r.Before)
	fmt.Fprintf(&b, "  first reading after:     %v (monotone: %v)\n", r.After, r.After >= r.Before)
	fmt.Fprintf(&b, "  special rounds taken:    %d\n", r.SpecialRounds)
	fmt.Fprintf(&b, "  newcomer consistent:     %v\n", r.NewcomerMatch)
	return b.String()
}

// ---------------------------------------------------------------------------
// E9 — §3.3: drift-compensation strategies.
// ---------------------------------------------------------------------------

// DriftResult compares the group clock's lag behind real time for each
// compensation strategy.
type DriftResult struct {
	Ops      int
	RealSpan time.Duration
	// LagPerMode[c] = realSpan − groupSpan at the end of the run.
	LagPerMode map[core.Compensation]time.Duration
}

// RunDrift measures group-clock drift for CompNone, CompMeanDelay and
// CompExternal over `ops` rounds.
func RunDrift(seed int64, ops int) (*DriftResult, error) {
	res := &DriftResult{Ops: ops, LagPerMode: make(map[core.Compensation]time.Duration)}
	for _, comp := range []core.Compensation{core.CompNone, core.CompMeanDelay, core.CompExternal} {
		c, err := NewCluster(ClusterConfig{
			Seed:         seed,
			Clocks:       testbedClocks(),
			Style:        replication.Active,
			Mode:         ModeCTS,
			Compensation: comp,
			MeanDelay:    40 * time.Microsecond,
			ExternalGain: 0.2,
		})
		if err != nil {
			return nil, err
		}
		realStart := c.K.Now()
		if err := driveReadSequence(c, ops); err != nil {
			return nil, err
		}
		app := c.Apps[1]
		groupSpan := app.Readings[len(app.Readings)-1] - app.Readings[0]
		realSpan := c.K.Now() - realStart
		res.RealSpan = realSpan
		res.LagPerMode[comp] = realSpan - groupSpan
	}
	return res, nil
}

// Render formats the drift comparison.
func (r *DriftResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Drift compensation (§3.3) — %d rounds over %v of real time\n",
		r.Ops, r.RealSpan)
	for _, comp := range []core.Compensation{core.CompNone, core.CompMeanDelay, core.CompExternal} {
		fmt.Fprintf(&b, "  %-12s group clock lag: %v\n", comp, r.LagPerMode[comp])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E10 — [20] calibration: token-passing time distribution.
// ---------------------------------------------------------------------------

// TokenTimingResult is the distribution of per-hop token-passing times.
type TokenTimingResult struct {
	Hops     stats.Durations
	Mode     time.Duration // lower edge of the peak-density bin
	BinWidth time.Duration
}

// RunTokenTiming runs an idle four-node Totem ring and measures the time
// between consecutive token receipts across the ring (one hop each). The
// paper's testbed measured a peak probability density near 51µs.
func RunTokenTiming(seed int64, circulations int) (*TokenTimingResult, error) {
	k := sim.NewKernel(seed)
	net := simnet.NewNetwork(k, nil)
	type receipt struct {
		seq uint64
		at  time.Duration
	}
	var receipts []receipt
	ids := []transport.NodeID{0, 1, 2, 3}
	var nodes []*totem.Node
	for _, id := range ids {
		n, err := totem.New(totem.Config{
			Runtime:   k,
			Transport: net.Endpoint(id),
			Members:   ids,
			Bootstrap: true,
			Deliver:   func(totem.Delivery) {},
			OnToken: func(tk totem.Token) {
				receipts = append(receipts, receipt{seq: tk.TokenSeq, at: k.Now()})
			},
		})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.Start()
	}
	target := circulations * len(ids)
	deadline := k.Now() + time.Duration(target)*time.Millisecond + time.Second
	for k.Now() < deadline && len(receipts) < target {
		k.RunFor(time.Millisecond)
	}
	if len(receipts) < target {
		return nil, fmt.Errorf("token timing: only %d/%d receipts", len(receipts), target)
	}
	sort.Slice(receipts, func(i, j int) bool { return receipts[i].seq < receipts[j].seq })
	res := &TokenTimingResult{BinWidth: 10 * time.Microsecond}
	for i := 1; i < len(receipts); i++ {
		if receipts[i].seq == receipts[i-1].seq+1 {
			res.Hops.Add(receipts[i].at - receipts[i-1].at)
		}
	}
	res.Mode = res.Hops.Histogram(0, res.BinWidth).Mode().Lo
	return res, nil
}

// Render formats the token-passing distribution.
func (r *TokenTimingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Token-passing time (calibration vs paper's ≈51µs peak)\n")
	fmt.Fprintf(&b, "  %s\n", r.Hops.Summary())
	fmt.Fprintf(&b, "  peak density bin: [%v, %v)\n", r.Mode, r.Mode+r.BinWidth)
	h := r.Hops.Histogram(0, r.BinWidth)
	for _, bin := range h.Bins() {
		if bin.Mass < 0.005 {
			continue
		}
		fmt.Fprintf(&b, "  [%6v,%6v) %6.2f%%\n", bin.Lo, bin.Hi, bin.Mass*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E11 — extension: CCS round latency vs group size.
// ---------------------------------------------------------------------------

// ScalingResult reports clock-read invocation latency per group size.
type ScalingResult struct {
	Sizes     []int
	MeanLat   map[int]time.Duration
	P99Lat    map[int]time.Duration
	RoundsSec map[int]float64
}

// RunScaling measures CurrentTime latency on actively replicated servers of
// increasing size.
func RunScaling(seed int64, sizes []int, invocations int) (*ScalingResult, error) {
	res := &ScalingResult{
		Sizes:     sizes,
		MeanLat:   make(map[int]time.Duration),
		P99Lat:    make(map[int]time.Duration),
		RoundsSec: make(map[int]float64),
	}
	for _, size := range sizes {
		specs := make([]ClockSpec, size)
		for i := range specs {
			specs[i] = ClockSpec{Offset: time.Duration(i) * time.Millisecond,
				DriftPPM: float64(i*7%40) - 20}
		}
		c, err := NewCluster(ClusterConfig{
			Seed:   seed,
			Clocks: specs,
			Style:  replication.Active,
			Mode:   ModeCTS,
		})
		if err != nil {
			return nil, err
		}
		start := c.K.Now()
		lat, err := c.invokeSeq(invocations, nil, 20*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("scaling size %d: %w", size, err)
		}
		res.MeanLat[size] = lat.Mean()
		res.P99Lat[size] = lat.Percentile(99)
		elapsed := (c.K.Now() - start).Seconds()
		if elapsed > 0 {
			res.RoundsSec[size] = float64(invocations) / elapsed
		}
	}
	return res, nil
}

// Render formats the scaling table.
func (r *ScalingResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Group-size scaling — CurrentTime invocation latency\n")
	fmt.Fprintf(&b, "  %-8s %-12s %-12s %-12s\n", "replicas", "mean", "p99", "rounds/s")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, "  %-8d %-12v %-12v %-12.0f\n",
			size, r.MeanLat[size], r.P99Lat[size], r.RoundsSec[size])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E15 — concurrent readers: batched CCS rounds amortize the per-read cost.
// ---------------------------------------------------------------------------

// ConcurrentRun reports one side of the concurrent-reader variant of
// Figure 5: `Readers` logical threads per replica each perform
// `OpsPerReader` clock reads back to back, with and without the consistent
// time service.
type ConcurrentRun struct {
	Readers      int
	OpsPerReader int
	// WallWith/WallWithout are the virtual times from spawning the readers to
	// the last thread's completion, with the time service and with raw local
	// clocks respectively.
	WallWith    time.Duration
	WallWithout time.Duration
	// Coalescing counters of the ModeCTS run, summed over the replicas.
	RoundsCoalesced uint64
	BatchesSent     uint64
	BatchEntries    uint64
	CCSSent         uint64
}

// PerReadOverhead reports the mean time the service adds per logical read
// (the workload is Readers×OpsPerReader logical reads, each executed by
// every replica).
func (r *ConcurrentRun) PerReadOverhead() time.Duration {
	total := r.Readers * r.OpsPerReader
	if total == 0 {
		return 0
	}
	d := r.WallWith - r.WallWithout
	if d < 0 {
		d = 0
	}
	return d / time.Duration(total)
}

// Figure5ConcurrentResult pairs the multi-reader run with its single-reader
// baseline. With round coalescing, concurrent rounds share CCS-batch
// messages, so the wall time for the whole workload stays close to a single
// reader's and the mean per-read overhead drops roughly by the reader count.
type Figure5ConcurrentResult struct {
	Multi, Single *ConcurrentRun
}

// RunFigure5Concurrent measures the amortized per-read cost of the time
// service under `readers` concurrent reader threads per replica, each
// performing `opsPerReader` consecutive reads, against the same workload
// with a single reader.
func RunFigure5Concurrent(seed int64, readers, opsPerReader int) (*Figure5ConcurrentResult, error) {
	if readers < 1 || opsPerReader < 1 {
		return nil, fmt.Errorf("figure5-concurrent: readers (%d) and ops per reader (%d) must be positive",
			readers, opsPerReader)
	}
	multi, err := runConcurrent(seed, readers, opsPerReader)
	if err != nil {
		return nil, err
	}
	single, err := runConcurrent(seed, 1, opsPerReader)
	if err != nil {
		return nil, err
	}
	return &Figure5ConcurrentResult{Multi: multi, Single: single}, nil
}

// runConcurrent measures one side of E15 on a ModeCTS and a ModeLocal
// cluster.
func runConcurrent(seed int64, readers, opsPerReader int) (*ConcurrentRun, error) {
	res := &ConcurrentRun{Readers: readers, OpsPerReader: opsPerReader}
	err := eachMode([]TimeMode{ModeCTS, ModeLocal}, func(mode TimeMode) error {
		c, err := NewCluster(ClusterConfig{
			Seed:    seed,
			Clocks:  testbedClocks(),
			Style:   replication.Active,
			Mode:    mode,
			Observe: mode == ModeCTS,
		})
		if err != nil {
			return err
		}
		start := c.K.Now()
		run := spawnReaders(c, readers, func(transport.NodeID) int { return opsPerReader })
		budget := time.Duration(readers*opsPerReader)*10*time.Millisecond + 5*time.Second
		if !c.RunUntil(budget, run.done) {
			return errors.Join(c.Err(),
				fmt.Errorf("concurrent readers: finished %v of %d per replica", run.finished, readers))
		}
		wall := run.last - start
		if mode == ModeLocal {
			res.WallWithout = wall
			return nil
		}
		res.WallWith = wall
		m := obs.SampleMap(c.Obs.Samples())
		res.RoundsCoalesced = m["core.rounds_coalesced"]
		res.BatchesSent = m["core.batches_sent"]
		res.BatchEntries = m["core.batch_entries"]
		res.CCSSent = m["core.ccs_sent"]
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Ratio is the amortization ratio: the multi-reader per-read overhead over
// the single-reader one (lower is better; 1/Readers is ideal).
func (r *Figure5ConcurrentResult) Ratio() float64 {
	base := r.Single.PerReadOverhead()
	if base <= 0 {
		return 1
	}
	return float64(r.Multi.PerReadOverhead()) / float64(base)
}

// Gate reports an error unless the concurrent readers coalesced rounds and,
// with two or more readers, their per-read overhead is at most half the
// single-reader overhead.
func (r *Figure5ConcurrentResult) Gate() error {
	m := r.Multi
	if m.RoundsCoalesced == 0 || m.BatchesSent == 0 {
		return fmt.Errorf("no round coalescing under %d concurrent readers (coalesced=%d batches=%d)",
			m.Readers, m.RoundsCoalesced, m.BatchesSent)
	}
	if m.Readers >= 2 && r.Ratio() > 0.5 {
		return fmt.Errorf("per-read overhead %v with %d readers is more than half the single-reader overhead %v",
			m.PerReadOverhead(), m.Readers, r.Single.PerReadOverhead())
	}
	return nil
}

// readerRun is the completion record of spawnReaders' threads. The threads
// write it; read it between RunUntil steps, which the strict thread/loop
// alternation makes race-free.
type readerRun struct {
	readers  int
	finished map[transport.NodeID]int // per replica, threads done
	last     time.Duration            // when the latest thread finished
}

// spawnReaders spawns `readers` logical threads on every replica of c — in
// ascending node order, so thread identifiers agree across replicas — and
// has each thread on node id perform opsFor(id) consecutive clock reads. The
// round oracle checks every value read, so only completion is recorded.
func spawnReaders(c *Cluster, readers int, opsFor func(transport.NodeID) int) *readerRun {
	run := &readerRun{readers: readers, finished: make(map[transport.NodeID]int)}
	for _, id := range c.nodes[1:] {
		app, ops := c.Apps[id], opsFor(id)
		run.finished[id] = 0
		for r := 0; r < readers; r++ {
			c.Nodes[id].Manager().SpawnThread(func(ctx *replication.Ctx) {
				for j := 0; j < ops; j++ {
					app.read(ctx)
				}
				run.finished[id]++
				run.last = c.K.Now()
			})
		}
	}
	return run
}

// done reports whether every replica's readers have finished.
func (r *readerRun) done() bool {
	for _, n := range r.finished {
		if n < r.readers {
			return false
		}
	}
	return true
}

// Render formats one side of the concurrent-reader measurement.
func (r *ConcurrentRun) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (concurrent) — %d readers × %d reads per replica\n",
		r.Readers, r.OpsPerReader)
	fmt.Fprintf(&b, "  with CTS:    %v wall\n", r.WallWith)
	fmt.Fprintf(&b, "  without CTS: %v wall\n", r.WallWithout)
	fmt.Fprintf(&b, "  mean per-read overhead: %v\n", r.PerReadOverhead())
	fmt.Fprintf(&b, "  rounds coalesced: %d, batches: %d (entries %d), CCS messages sent: %d\n",
		r.RoundsCoalesced, r.BatchesSent, r.BatchEntries, r.CCSSent)
	return b.String()
}

// Render formats both sides and the amortization ratio.
func (r *Figure5ConcurrentResult) Render() string {
	return r.Multi.Render() + r.Single.Render() +
		fmt.Sprintf("  amortization ratio (concurrent/single per-read overhead): %.3f\n", r.Ratio())
}

// ---------------------------------------------------------------------------
// Ablation — safe vs agreed delivery for CCS messages.
// ---------------------------------------------------------------------------

// AblationResult compares Figure 5's invocation latency when CCS messages
// use the paper's safe delivery versus plain agreed delivery.
type AblationResult struct {
	Baseline   time.Duration // mean latency without the time service
	SafeMean   time.Duration // mean latency, safe CCS delivery (the paper)
	AgreedMean time.Duration // mean latency, agreed CCS delivery
}

// RunCCSAblation quantifies the design choice behind the paper's ≈300µs
// overhead: the safe-delivery property of CCS messages ("if the message is
// delivered to any non-faulty replica, it will be delivered to all") costs
// roughly one extra token circulation; agreed delivery is cheaper but gives
// up that guarantee under partitions.
func RunCCSAblation(seed int64, invocations int) (*AblationResult, error) {
	measure := func(mode TimeMode, agreed bool) (time.Duration, error) {
		c, err := NewCluster(ClusterConfig{
			Seed:      seed,
			Clocks:    testbedClocks(),
			Style:     replication.Active,
			Mode:      mode,
			AgreedCCS: agreed,
		})
		if err != nil {
			return 0, err
		}
		lat, err := c.invokeSeq(invocations, rand.New(rand.NewSource(seed+99)), 10*time.Millisecond)
		if err != nil {
			return 0, fmt.Errorf("ablation: %w", err)
		}
		return lat.Mean(), nil
	}
	res := &AblationResult{}
	var err error
	if res.Baseline, err = measure(ModeLocal, false); err != nil {
		return nil, err
	}
	if res.SafeMean, err = measure(ModeCTS, false); err != nil {
		return nil, err
	}
	if res.AgreedMean, err = measure(ModeCTS, true); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the ablation comparison.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CCS delivery ablation — mean CurrentTime latency\n")
	fmt.Fprintf(&b, "  no time service:       %v\n", r.Baseline)
	fmt.Fprintf(&b, "  CTS, agreed delivery:  %v  (overhead %v)\n",
		r.AgreedMean, r.AgreedMean-r.Baseline)
	fmt.Fprintf(&b, "  CTS, safe delivery:    %v  (overhead %v — the paper's configuration)\n",
		r.SafeMean, r.SafeMean-r.Baseline)
	return b.String()
}
