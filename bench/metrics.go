package main

// value is one reported metric. N is the sample count behind a percentile
// (0 where the metric is not a percentile).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metrics maps a metric name to its value.
type metrics map[string]value

func (m metrics) set(name string, v float64, unit string) { m[name] = value{Value: v, Unit: unit} }

func (m metrics) setN(name string, v float64, unit string, n int) {
	m[name] = value{Value: v, Unit: unit, N: n}
}

// merge copies src into m, overwriting.
func (m metrics) merge(src metrics) {
	for k, v := range src {
		m[k] = v
	}
}

// Workload names.
const (
	wlServeBurst  = "serve-burst"
	wlServeSingle = "serve-single"
	wlReadRPC     = "read-rpc"
	wlReadThreads = "read-threads"
	wlSimCells    = "sim-cells"
	// wlMicro is the quiescent micro pass run as its own child by the full
	// run; it is not a workload of BENCHMARK.json.
	wlMicro = "micro"
)

// workloadDef names a workload and why it exists (BENCHMARK.json carries the
// same text).
type workloadDef struct{ name, why string }

var workloads = []workloadDef{
	{wlServeBurst, "closed loop of 8x8-query bursts against the timeserve frontends: the lease plane's batched recvmmsg/sendmmsg fast path, one LeaseRead per drain"},
	{wlServeSingle, "same servers, one 24-byte query per datagram: drain of one, LeaseRead per query, so per-datagram cost shows undiluted"},
	{wlReadRPC, "the paper's Fig. 5 on real sockets: sequential CurrentTime invocations, one full CCS round per read through rpc, replication, gcs, totem and udptransport; latency-bound"},
	{wlReadThreads, "8 logical threads per replica reading back to back: concurrent rounds coalesce into CCSBatch proposals; throughput-bound where read-rpc is latency-bound"},
	{wlSimCells, "virtual time, single-threaded: churn-storm and partition-heal campaign cells plus Fig. 5 over simnet; wall cost of sim, simnet, campaign and core, bypassing sockets"},
}

// metricDef describes one metric of a table.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: tolerated worsening of the median
	// absolute marks a bound that is a difference, not a share of the base
	// (fail_share: its base is 0).
	absolute bool
	// on lists the workloads that report the metric; nil means all.
	on []string
}

func (d metricDef) reportedBy(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	serveWorkloads = []string{wlServeBurst, wlServeSingle}
	readWorkloads  = []string{wlReadRPC, wlReadThreads}
	simWorkloads   = []string{wlSimCells}
)

// e2eDefs are the 14 end-to-end metrics of the full run, by the names the
// issue fixed. Each workload reports the ones a user of that path would see.
var e2eDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "qps", unit: "1/s", better: "higher", bound: 0.10, on: serveWorkloads},
	{name: "exchange_p50_us", unit: "us", better: "lower", bound: 0.10, on: serveWorkloads},
	{name: "exchange_p99_us", unit: "us", better: "lower", bound: 0.20, on: serveWorkloads},
	{name: "reads_per_s", unit: "1/s", better: "higher", bound: 0.10, on: readWorkloads},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.10, on: readWorkloads},
	{name: "read_p99_us", unit: "us", better: "lower", bound: 0.20, on: readWorkloads},
	{name: "fail_share", unit: "share", better: "lower", bound: 0.001, absolute: true},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.10},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "sim_wall_s", unit: "s", better: "lower", bound: 0.10, on: simWorkloads},
	{name: "virtual_read_overhead_us", unit: "us", better: "lower", bound: 0.01, on: simWorkloads},
	{name: "virtual_reconverge_ms", unit: "ms", better: "lower", bound: 0.01, on: simWorkloads},
	{name: "virtual_mean_bound_us", unit: "us", better: "lower", bound: 0.01, on: simWorkloads},
}

// contractDefs are the end-to-end metrics of BENCHMARK.json. The driver's
// contract wants every end-to-end metric from every workload, never 0, and a
// run-to-run spread well inside the bound, on a VM whose speed wanders by
// 5–15% over tens of minutes. So the per-path names above are projected onto
// workload-neutral ones (see contractMetrics), every bound is the widest the
// contract allows, and what is too unsteady to gate on is listed per layer
// instead: the p99s (spread up to 26% in a noisy quarter of an hour) and peak
// RSS (set by where in a GC cycle the run ends). fail_share travels as the
// attempted/failed counts.
var contractDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "mem_mb", unit: "MB", better: "lower", bound: 0.25},
}

// contractSource maps a contract metric to the full-run metric it projects,
// per workload. A sim-cells "op" is one simulated CCS round, and its latency
// is the Fig. 5 with-CTS median in virtual time (the reproduction's headline
// number). mem_mb is what the deployment retains — the live heap after a
// forced collection while it is still up — except on sim-cells, whose
// deployments live and die inside each cell: there it is the peak RSS.
var contractSource = map[string]map[string]string{
	"ops_per_s": {wlServeBurst: "qps", wlServeSingle: "qps", wlReadRPC: "reads_per_s",
		wlReadThreads: "reads_per_s", wlSimCells: "sim.rounds_per_wall_s"},
	"op_p50_us": {wlServeBurst: "exchange_p50_us", wlServeSingle: "exchange_p50_us", wlReadRPC: "read_p50_us",
		wlReadThreads: "read_p50_us", wlSimCells: "experiment.fig5_with_p50_us"},
	"mem_mb": {wlServeBurst: "proc.live_heap_mb", wlServeSingle: "proc.live_heap_mb", wlReadRPC: "proc.live_heap_mb",
		wlReadThreads: "proc.live_heap_mb", wlSimCells: "peak_rss_mb"},
}

// contractMetrics projects a run's metrics onto the BENCHMARK.json names.
func contractMetrics(workload string, e2e, layers metrics) metrics {
	out := metrics{}
	for _, d := range contractDefs {
		src := d.name
		if by, ok := contractSource[d.name]; ok {
			src = by[workload]
		}
		v, ok := e2e[src]
		if !ok {
			v = layers[src]
		}
		out[d.name] = value{Value: v.Value, Unit: d.unit, N: v.N}
	}
	return out
}

// layerDefs are the per-layer metrics, prefix = module. A workload that does
// not exercise a layer reports 0 for its metrics.
var layerDefs = []metricDef{
	// wire (micro)
	{name: "wire.ccs_marshal_ns", unit: "ns", better: "lower"},
	{name: "wire.ccs_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "wire.ccsbatch8_marshal_ns", unit: "ns", better: "lower"},
	{name: "wire.ccsbatch8_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "wire.msg_marshal_ns", unit: "ns", better: "lower"},
	{name: "wire.msg_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "wire.summary_marshal_ns", unit: "ns", better: "lower"},
	{name: "wire.summary_unmarshal_ns", unit: "ns", better: "lower"},
	{name: "wire.ccs_unmarshal_allocs", unit: "count", better: "lower"},
	{name: "wire.ccsbatch8_unmarshal_allocs", unit: "count", better: "lower"},
	// timeserve
	{name: "timeserve.put_request_ns", unit: "ns", better: "lower"},
	{name: "timeserve.parse_request_ns", unit: "ns", better: "lower"},
	{name: "timeserve.put_response_ns", unit: "ns", better: "lower"},
	{name: "timeserve.parse_response_ns", unit: "ns", better: "lower"},
	{name: "timeserve.serve_allocs_per_drain", unit: "count", better: "lower"},
	{name: "timeserve.syscalls_per_query", unit: "count", better: "lower"},
	{name: "timeserve.queries_per_drain", unit: "count", better: "higher"},
	{name: "timeserve.dgrams_per_drain", unit: "count", better: "higher"},
	{name: "timeserve.stale_share", unit: "share", better: "lower"},
	{name: "timeserve.drop_share", unit: "share", better: "lower"},
	{name: "timeserve.mmsg_fallbacks", unit: "count", better: "lower"},
	{name: "timeserve.lease_reads_per_query", unit: "count", better: "lower"},
	{name: "timeserve.lease_read_busy_share", unit: "share", better: "lower"},
	{name: "timeserve.stub_source_qps", unit: "1/s", better: "higher"},
	// core
	{name: "core.lease_read_ns", unit: "ns", better: "lower"},
	{name: "core.lease_read_allocs", unit: "count", better: "lower"},
	{name: "core.ccs_sent_per_read", unit: "count", better: "lower"},
	{name: "core.suppressed_share", unit: "share", better: "higher"},
	{name: "core.coalesced_share", unit: "share", better: "higher"},
	{name: "core.entries_per_batch", unit: "count", better: "higher"},
	{name: "core.monotonicity_fix_share", unit: "share", better: "lower"},
	{name: "core.lease_refreshes_per_s", unit: "1/s", better: "lower"},
	{name: "core.lease_invalidations", unit: "count", better: "lower"},
	{name: "core.bound_p50_us", unit: "us", better: "lower"},
	{name: "core.bound_p99_us", unit: "us", better: "lower"},
	{name: "core.staleness_violations", unit: "count", better: "lower"},
	{name: "core.regression_violations", unit: "count", better: "lower"},
	{name: "core.stage_queue_p50_us", unit: "us", better: "lower"},
	{name: "core.stage_send_p50_us", unit: "us", better: "lower"},
	{name: "core.stage_adopt_p50_us", unit: "us", better: "lower"},
	{name: "core.stage_resume_p50_us", unit: "us", better: "lower"},
	// order / totem
	{name: "order.stage_order_p50_us", unit: "us", better: "lower"},
	{name: "order.stage_order_p99_us", unit: "us", better: "lower"},
	{name: "totem.broadcasts_per_read", unit: "count", better: "lower"},
	{name: "totem.tokens_per_read", unit: "count", better: "lower"},
	{name: "totem.retrans_share", unit: "share", better: "lower"},
	{name: "totem.token_losses", unit: "count", better: "lower"},
	{name: "totem.memberships", unit: "count", better: "lower"},
	// gcs, replication, rpc
	{name: "gcs.multicasts_per_read", unit: "count", better: "lower"},
	{name: "gcs.delivered_per_read", unit: "count", better: "lower"},
	{name: "gcs.views_emitted", unit: "count", better: "lower"},
	{name: "replication.executed_per_read", unit: "count", better: "lower"},
	{name: "replication.replies_suppressed_share", unit: "share", better: "higher"},
	{name: "rpc.retries", unit: "count", better: "lower"},
	{name: "rpc.timeouts", unit: "count", better: "lower"},
	{name: "rpc.dup_replies_share", unit: "share", better: "lower"},
	{name: "rpc.path_self_p50_us", unit: "us", better: "lower"},
	// udptransport
	{name: "udptransport.sends_per_read", unit: "count", better: "lower"},
	{name: "udptransport.bytes_per_read", unit: "B", better: "lower"},
	{name: "udptransport.recv_per_read", unit: "count", better: "lower"},
	{name: "udptransport.send_busy_us_per_read", unit: "us", better: "lower"},
	{name: "udptransport.read_errors", unit: "count", better: "lower"},
	{name: "udptransport.send_errors", unit: "count", better: "lower"},
	// hwclock
	{name: "hwclock.system_read_ns", unit: "ns", better: "lower"},
	{name: "hwclock.reads_per_op", unit: "count", better: "lower"},
	// sim, simnet, campaign, experiment
	{name: "sim.kernel_event_ns", unit: "ns", better: "lower"},
	{name: "sim.loop_post_ns", unit: "ns", better: "lower"},
	{name: "simnet.deliver_ns", unit: "ns", better: "lower"},
	{name: "sim.rounds_per_wall_s", unit: "1/s", better: "higher"},
	{name: "campaign.churn1000_wall_s", unit: "s", better: "lower"},
	{name: "campaign.partheal100_wall_s", unit: "s", better: "lower"},
	{name: "experiment.fig5_wall_s", unit: "s", better: "lower"},
	{name: "campaign.rounds", unit: "count", better: "higher"},
	{name: "campaign.ccs_sent_per_round", unit: "count", better: "lower"},
	{name: "campaign.net_dropped", unit: "count", better: "lower"},
	{name: "campaign.max_bound_us", unit: "us", better: "lower"},
	{name: "campaign.max_spread_us", unit: "us", better: "lower"},
	{name: "campaign.lease_samples", unit: "count", better: "higher"},
	{name: "experiment.fig5_with_p50_us", unit: "us", better: "lower"},
	{name: "experiment.fig5_with_p99_us", unit: "us", better: "lower"},
	// obs
	{name: "obs.trace_nil_ns", unit: "ns", better: "lower"},
	{name: "obs.trace_mem_ns", unit: "ns", better: "lower"},
	{name: "obs.observe_ns", unit: "ns", better: "lower"},
	{name: "obs.events_per_read", unit: "count", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "share", better: "lower"},
	// proc
	{name: "proc.sys_cpu_share", unit: "share", better: "lower"},
	{name: "proc.mallocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.live_heap_mb", unit: "MB", better: "lower"},
	// client-side tails: the highest percentile the sample supports. Not
	// end-to-end: on this box it is the 4ms scheduler quantum.
	{name: "client.exchange_pmax_us", unit: "us", better: "lower"},
	{name: "client.read_pmax_us", unit: "us", better: "lower"},
	// End-to-end metrics of the full run that BENCHMARK.json cannot carry as
	// end-to-end: 0 at the baseline, defined on one workload only, or too
	// unsteady on a shared box to gate on.
	{name: "exchange_p99_us", unit: "us", better: "lower"},
	{name: "read_p99_us", unit: "us", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "fail_share", unit: "share", better: "lower"},
	{name: "sim_wall_s", unit: "s", better: "lower"},
	{name: "virtual_read_overhead_us", unit: "us", better: "lower"},
	{name: "virtual_reconverge_ms", unit: "ms", better: "lower"},
	{name: "virtual_mean_bound_us", unit: "us", better: "lower"},
}

// fillLayers returns m with every per-layer metric present, 0 where the
// workload did not produce it.
func fillLayers(m metrics) metrics {
	out := metrics{}
	for _, d := range layerDefs {
		v, ok := m[d.name]
		if !ok {
			v = value{Unit: d.unit}
		}
		out[d.name] = v
	}
	return out
}
