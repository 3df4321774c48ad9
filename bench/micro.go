package main

import (
	"fmt"
	"runtime"
	"time"

	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/timeserve"
	"cts/internal/transport"
	"cts/internal/wire"
)

// The micro pass times the exported codec and kernel entry points of each
// layer in a process that has not started a cluster yet: a token loop
// running beside the measurement inflates both ns/op and the process-wide
// malloc counter (timeserve.ServeAllocsPerOp reads ≈95 allocs/op on two CPUs
// next to a live fleet, 0 alone).

// microBatches is how many equal batches an iteration budget is split into;
// the reported ns/op is the median batch, which a single preemption cannot
// move.
const microBatches = 5

// sinks keep the compiler from discarding the timed calls.
var (
	sinkBytes []byte
	sinkInt   int64
	sinkErr   error
)

// timeOp reports the median ns per call of fn over iters calls.
func timeOp(iters int, fn func()) float64 {
	per := max(iters/microBatches, 1)
	costs := make([]float64, 0, microBatches)
	for b := 0; b < microBatches; b++ {
		t0 := mono()
		for i := 0; i < per; i++ {
			fn()
		}
		costs = append(costs, float64(mono()-t0)/float64(per))
	}
	return median(costs)
}

// allocsPerOp reports mean heap allocations per call of fn, measured the way
// testing.AllocsPerRun does: one warm-up call, GOMAXPROCS pinned to 1, the
// process-wide Mallocs delta over runs calls.
func allocsPerOp(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(runs)
}

// runMicro measures every (m) per-layer metric. iters is the per-metric
// iteration budget (1e6 for a real run, small for the smoke test).
func runMicro(iters int) (metrics, error) {
	out := metrics{}
	ns := func(name string, fn func()) { out.set(name, timeOp(iters, fn), "ns") }

	// wire: the CCS round path's codecs.
	ccs := wire.CCSPayload{ThreadID: 7, Proposed: 1234567 * time.Microsecond, Op: wire.OpGettimeofday}
	ccsBytes := wire.MarshalCCS(ccs)
	ns("wire.ccs_marshal_ns", func() { sinkBytes = wire.MarshalCCS(ccs) })
	unmarshalCCS := func() {
		p, err := wire.UnmarshalCCS(ccsBytes)
		sinkInt, sinkErr = int64(p.Proposed), err
	}
	ns("wire.ccs_unmarshal_ns", unmarshalCCS)
	entries := make([]wire.CCSBatchEntry, 8)
	for i := range entries {
		entries[i] = wire.CCSBatchEntry{ThreadID: uint64(i + 2), Round: 99, Proposed: ccs.Proposed, Op: wire.OpGettimeofday}
	}
	batchBytes, err := wire.MarshalCCSBatch(entries)
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	ns("wire.ccsbatch8_marshal_ns", func() { sinkBytes, sinkErr = wire.MarshalCCSBatch(entries) })
	unmarshalBatch := func() {
		es, err := wire.UnmarshalCCSBatch(batchBytes)
		sinkInt, sinkErr = int64(len(es)), err
	}
	ns("wire.ccsbatch8_unmarshal_ns", unmarshalBatch)
	msg := wire.Message{
		Header:  wire.Header{Type: wire.TypeCCS, SrcGroup: 100, DstGroup: 100, Conn: 1, Seq: 42},
		Payload: ccsBytes,
	}
	msgBytes, err := wire.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	ns("wire.msg_marshal_ns", func() { sinkBytes, sinkErr = wire.Marshal(msg) })
	ns("wire.msg_unmarshal_ns", func() {
		m, err := wire.Unmarshal(msgBytes)
		sinkInt, sinkErr = int64(m.Seq), err
	})
	key := []byte("cts-federation")
	sum := wire.GroupSummary{Group: 100, Sender: 1, Epoch: 3, Seq: 9, GroupClock: ccs.Proposed, Bound: time.Millisecond}
	sumBytes := wire.MarshalGroupSummary(sum, key)
	ns("wire.summary_marshal_ns", func() { sinkBytes = wire.MarshalGroupSummary(sum, key) })
	ns("wire.summary_unmarshal_ns", func() {
		s, err := wire.UnmarshalGroupSummary(sumBytes, key)
		sinkInt, sinkErr = int64(s.Seq), err
	})
	allocRuns := max(iters/100, 100)
	out.set("wire.ccs_unmarshal_allocs", allocsPerOp(allocRuns, unmarshalCCS), "count")
	out.set("wire.ccsbatch8_unmarshal_allocs", allocsPerOp(allocRuns, unmarshalBatch), "count")

	// timeserve: the serve path's per-query codecs and its drain cycle.
	req := timeserve.Request{Nonce: 77, Echo: 5}
	var reqBuf [timeserve.ReqSize]byte
	var respBuf [timeserve.RespSize]byte
	resp := timeserve.Response{Flags: timeserve.FlagOK, Node: 1, Nonce: 77, Echo: 5,
		Group: ccs.Proposed, Bound: time.Millisecond, Epoch: 3}
	timeserve.PutRequest(reqBuf[:], req)
	timeserve.PutResponse(respBuf[:], resp)
	ns("timeserve.put_request_ns", func() { timeserve.PutRequest(reqBuf[:], req) })
	ns("timeserve.parse_request_ns", func() {
		q, err := timeserve.ParseRequest(reqBuf[:])
		sinkInt, sinkErr = int64(q.Nonce), err
	})
	ns("timeserve.put_response_ns", func() { timeserve.PutResponse(respBuf[:], resp) })
	ns("timeserve.parse_response_ns", func() {
		r, err := timeserve.ParseResponse(respBuf[:])
		sinkInt, sinkErr = int64(r.Group), err
	})
	// -1 (no batched path on this platform) reads as 0: nothing to allocate.
	out.set("timeserve.serve_allocs_per_drain", max(timeserve.ServeAllocsPerOp(), 0), "count")

	// hwclock: one physical clock read, paid per query or per drain.
	clock := hwclock.SystemClock{}
	ns("hwclock.system_read_ns", func() { sinkInt = int64(clock.Read()) })

	// sim: schedule-and-dispatch cost of one kernel event, and one cross-
	// goroutine post to the real-time loop every socket workload runs on.
	out.set("sim.kernel_event_ns", microKernelEvents(iters), "ns")
	out.set("sim.loop_post_ns", microLoopPosts(iters), "ns")
	out.set("simnet.deliver_ns", microSimnetDeliver(iters), "ns")

	// obs: the disabled path every workload pays and the enabled path only
	// traced runs pay.
	var off *obs.Recorder
	ns("obs.trace_nil_ns", func() { off.Trace(obs.ScopeCore, obs.EvReadStart, 2, 9, 1, "") })
	traceMem, err := microTraceMem(iters)
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	out.set("obs.trace_mem_ns", traceMem, "ns")
	rec, err := obs.New(obs.Config{Now: mono})
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	ns("obs.observe_ns", func() { rec.Observe("bench.micro", time.Microsecond) })
	return out, nil
}

// microChunk bounds how much work is queued at once, so the measured cost is
// the steady-state one, not heap growth.
const microChunk = 1 << 12

func microKernelEvents(iters int) float64 {
	k := sim.NewKernel(1)
	fired := 0
	fn := func() { fired++ }
	t0 := mono()
	for done := 0; done < iters; done += microChunk {
		for i := 0; i < microChunk; i++ {
			k.After(time.Duration(i)*time.Nanosecond, fn)
		}
		k.Run()
	}
	sinkInt = int64(fired)
	return float64(mono()-t0) / float64(fired)
}

func microLoopPosts(iters int) float64 {
	loop := sim.NewLoop()
	defer loop.Close()
	ran := 0
	fn := func() { ran++ }
	drained := make(chan struct{})
	t0 := mono()
	n := 0
	for ; n < iters; n += microChunk {
		for i := 0; i < microChunk-1; i++ {
			loop.Post(fn)
		}
		loop.Post(func() { drained <- struct{}{} })
		<-drained
	}
	return float64(mono()-t0) / float64(n)
}

func microSimnetDeliver(iters int) float64 {
	k := sim.NewKernel(1)
	net := simnet.NewNetwork(k, simnet.Fixed(10*time.Microsecond))
	a, b := net.Endpoint(transport.NodeID(1)), net.Endpoint(transport.NodeID(2))
	got := 0
	b.SetReceiver(func(transport.NodeID, []byte) { got++ })
	payload := make([]byte, 64)
	t0 := mono()
	for done := 0; done < iters; done += microChunk {
		for i := 0; i < microChunk; i++ {
			sinkErr = a.Send(2, payload)
		}
		k.Run()
	}
	sinkInt = int64(got)
	return float64(mono()-t0) / float64(max(got, 1))
}

func microTraceMem(iters int) (float64, error) {
	var total time.Duration
	n := 0
	for n < iters {
		// A fresh unbounded sink per chunk: a bounded MemorySink shifts its
		// whole buffer on every emit once full.
		rec, err := obs.New(obs.Config{Now: mono, Sink: obs.NewMemorySink(0)})
		if err != nil {
			return 0, err
		}
		t0 := mono()
		for i := 0; i < microChunk; i++ {
			rec.Trace(obs.ScopeCore, obs.EvReadStart, 2, uint64(i), 1, "")
		}
		total += mono() - t0
		n += microChunk
	}
	return float64(total) / float64(n), nil
}
