// Package cts is the public facade of the consistent time service — the
// supported API for embedding the paper's CCS algorithm (Design and
// Implementation of a Consistent Time Service for Fault-Tolerant Distributed
// Systems, DSN 2003) in an application.
//
// A Service bundles a replication manager and a consistent time service on
// top of a group-communication stack; it is internal/node's Node, the one
// assembly every harness in this repository also builds its replicas with.
// The caller supplies an event loop and either a ready gcs stack (WithStack)
// or a transport plus membership (WithTransport, WithMembers) from which the
// facade builds one; WithOrderer selects the total-order protocol underneath
// (Totem single ring by default, or the leader sequencer for low-latency LAN
// groups):
//
//	svc, err := cts.New(
//		cts.WithRuntime(loop),
//		cts.WithTransport(tr),
//		cts.WithMembers(members),
//		cts.WithOrderer(cts.OrdererOptions{Kind: cts.OrdererSeq}),
//	)
//	...
//	err = svc.Start()
//
// Clock readings go through Service.Clock (or Gettimeofday/Time/Ftime)
// bound to a logical thread Ctx inside the replicated application.
// Observability — the CCS round trace and the stack-wide metrics registry —
// hangs off Service.Observability.
package cts

import (
	"io"
	"time"

	"cts/internal/core"
	"cts/internal/federation"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/node"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/replication"
	"cts/internal/sim"
	"cts/internal/timeserve"
	"cts/internal/transport"
	"cts/internal/wire"
)

// DefaultGroup is the server group identifier used when WithGroup is not
// given (the experiment deployments' ServerGroup).
const DefaultGroup = node.DefaultGroup

// Re-exported types, so applications embed the service without importing
// internal packages.
type (
	// Ctx is a logical thread context inside the replicated application.
	Ctx = replication.Ctx
	// Application is the replicated state machine interface.
	Application = replication.Application
	// Style selects the replication style.
	Style = replication.Style
	// Status mirrors the replica's role.
	Status = replication.Status
	// RoundReport describes one completed CCS round.
	RoundReport = core.RoundReport
	// Compensation selects the drift-compensation strategy (§3.3).
	Compensation = core.Compensation
	// Clock is the interposition facade bound to a logical thread.
	Clock = core.Clock
	// HardwareClock is a physical clock source.
	HardwareClock = hwclock.Clock
	// GroupID identifies a process group.
	GroupID = wire.GroupID
	// NodeID identifies a processor of the component.
	NodeID = transport.NodeID
	// Runtime is the event loop abstraction the stack runs on.
	Runtime = sim.Runtime

	// OrdererOptions selects and tunes the total-order protocol (see
	// WithOrderer): the kind, the primary-component quorum and the
	// per-orderer tuning structs.
	OrdererOptions = order.Options
	// OrdererKind names a total-order protocol implementation.
	OrdererKind = order.Kind
	// TotemTuning tunes the Totem single-ring orderer.
	TotemTuning = order.TotemTuning
	// SeqTuning tunes the leader-sequencer orderer.
	SeqTuning = order.SeqTuning
	// ViewID identifies one membership configuration of the ordering layer.
	ViewID = order.ViewID

	// Recorder is the observability handle: round traces, counters,
	// histograms. A nil *Recorder is valid and fully disabled.
	Recorder = obs.Recorder
	// TraceSink consumes trace events.
	TraceSink = obs.TraceSink
	// Event is one structured trace event.
	Event = obs.Event
	// Sample is one gathered metric value.
	Sample = obs.Sample
	// Logger writes structured key=value lines.
	Logger = obs.Logger
	// JSONLinesSink exports trace events as JSON lines.
	JSONLinesSink = obs.JSONLinesSink
	// MemorySink retains trace events in memory.
	MemorySink = obs.MemorySink
	// KV is one structured logging field.
	KV = obs.KV

	// LeaseConfig configures the core lease plane backing timeserve.
	LeaseConfig = core.LeaseConfig
	// LeaseReading is one leased group-clock read.
	LeaseReading = core.LeaseReading
	// TimeServeServer is the external UDP time-serving frontend.
	TimeServeServer = timeserve.Server
	// TimeServeClient queries the replica group's timeserve frontends with
	// cached leases and retry-across-replicas.
	TimeServeClient = timeserve.Client
	// TimeServeClientConfig configures a TimeServeClient.
	TimeServeClientConfig = timeserve.ClientConfig
	// TimeServeReading is one reading returned to an external client.
	TimeServeReading = timeserve.Reading

	// FederationLink transmits inter-group summary frames (see
	// WithFederation); federation.NewUDPLink is the deployment
	// implementation.
	FederationLink = federation.Link
	// FederationAgent is one group member's inter-group exchange endpoint.
	FederationAgent = federation.Agent
	// FederationTopology is the parsed federation topology document
	// (groups, edges, exchange tuning) consumed by ctsnode -topology.
	FederationTopology = federation.Topology

	// Service is one replica of a consistent-time server group.
	Service = node.Node
	// TimeServeConfig configures the external time-serving frontend enabled
	// by WithTimeServe.
	TimeServeConfig = node.TimeServeConfig
	// FederationConfig configures the inter-group federation plane enabled
	// by WithFederation (which requires WithTimeServe).
	FederationConfig = node.FederationConfig
)

// NewFederationUDPLink binds the federation exchange socket on bindAddr and
// starts its receive loop. Wire received frames to the service's agent with
// SetAgent(svc.Federation()) after Start.
func NewFederationUDPLink(bindAddr string) (*federation.UDPLink, error) {
	return federation.NewUDPLink(bindAddr)
}

// ParseFederationTopology decodes and validates a federation topology
// document.
func ParseFederationTopology(b []byte) (*FederationTopology, error) {
	return federation.ParseTopology(b)
}

// NewTimeServeClient creates a client over the given replica timeserve
// addresses.
func NewTimeServeClient(cfg TimeServeClientConfig) (*TimeServeClient, error) {
	return timeserve.NewClient(cfg)
}

// F builds a structured logging field.
func F(k string, v any) KV { return obs.F(k, v) }

// MultiSink fans trace events out to every given sink.
func MultiSink(sinks ...TraceSink) TraceSink { return obs.MultiSink(sinks...) }

// SampleMap aggregates gathered samples by metric name, summing across nodes.
func SampleMap(samples []Sample) map[string]uint64 { return obs.SampleMap(samples) }

// Replication styles.
const (
	Active     = replication.Active
	Passive    = replication.Passive
	SemiActive = replication.SemiActive
)

// Drift-compensation strategies.
const (
	CompNone      = core.CompNone
	CompMeanDelay = core.CompMeanDelay
	CompExternal  = core.CompExternal
)

// Orderer kinds accepted by WithOrderer.
const (
	// OrdererTotem runs the Totem single ring (the paper's protocol).
	OrdererTotem = order.KindTotem
	// OrdererSeq runs the leader sequencer (lowest view member sequences;
	// elections on leader timeout).
	OrdererSeq = order.KindSeq
	// OrdererInstant runs the sim-instant orderer (simulation only).
	OrdererInstant = order.KindInstant
)

// ParseOrdererKind parses a user-supplied orderer name ("totem", "seq",
// "instant"; empty selects totem), as used by the ctsnode -orderer flag.
func ParseOrdererKind(s string) (OrdererKind, error) { return order.ParseKind(s) }

// NewRecorder creates an observability recorder stamping events with the
// given node identity. sink may be nil for metrics without tracing.
func NewRecorder(node uint32, sink TraceSink) (*Recorder, error) {
	return obs.New(obs.Config{Node: node, Sink: sink})
}

// NewLogger creates a structured key=value logger writing to w.
func NewLogger(w io.Writer) (*Logger, error) { return obs.NewLogger(w) }

// NewJSONLinesSink creates a trace sink writing one JSON event per line.
func NewJSONLinesSink(w io.Writer) (*JSONLinesSink, error) { return obs.NewJSONLinesSink(w) }

// NewMemorySink creates a trace sink retaining events in memory; limit <= 0
// retains everything.
func NewMemorySink(limit int) *MemorySink { return obs.NewMemorySink(limit) }

// DecodeJSONLines parses a JSON-lines trace back into events.
func DecodeJSONLines(r io.Reader) ([]Event, error) { return obs.DecodeJSONLines(r) }

// Option configures New.
type Option func(*node.Config)

// WithRuntime sets the event loop the service runs on (sim.NewLoop for real
// deployments, a simulation kernel for tests). Required.
func WithRuntime(rt Runtime) Option { return func(c *node.Config) { c.Runtime = rt } }

// WithStack uses an existing group-communication stack. The caller keeps
// ownership: Start/Stop of the stack stay with the caller.
func WithStack(s *gcs.Stack) Option { return func(c *node.Config) { c.Stack = s } }

// WithTransport sets the datagram transport from which the facade builds its
// own stack (ignored when WithStack is given). The built stack is started
// and stopped by the Service.
func WithTransport(tr transport.Transport) Option {
	return func(c *node.Config) { c.Transport = tr }
}

// WithMembers sets the initial component membership for a facade-built
// stack.
func WithMembers(members []NodeID) Option {
	return func(c *node.Config) { c.Members = append([]NodeID(nil), members...) }
}

// WithOrderer selects and tunes the total-order protocol underneath a
// facade-built stack (see OrdererOptions). Conflicts with WithStack, whose
// stack already owns an orderer.
func WithOrderer(opts OrdererOptions) Option {
	return func(c *node.Config) { c.Order = opts; c.OrderSet = true }
}

// WithGroup sets the server group identifier. Default DefaultGroup.
func WithGroup(g GroupID) Option { return func(c *node.Config) { c.Group = g } }

// WithStyle sets the replication style. Default Active.
func WithStyle(s Style) Option { return func(c *node.Config) { c.Style = s } }

// WithApplication sets the replicated state machine. Default: a built-in
// application answering "CurrentTime" with the group clock as a big-endian
// uint64 nanosecond count.
func WithApplication(app Application) Option { return func(c *node.Config) { c.App = app } }

// WithClock sets the physical hardware clock. Default the system clock.
func WithClock(clk HardwareClock) Option { return func(c *node.Config) { c.Clock = clk } }

// WithRecovering marks a replica that joins an existing group via state
// transfer. A facade-built stack forms the initial ring directly unless the
// replica is recovering.
func WithRecovering(r bool) Option { return func(c *node.Config) { c.Recovering = r } }

// WithCheckpointEvery sets the passive primary's checkpoint interval.
func WithCheckpointEvery(n int) Option { return func(c *node.Config) { c.CheckpointEvery = n } }

// WithOnStatus observes replica role changes. Called on the loop.
func WithOnStatus(fn func(Status)) Option { return func(c *node.Config) { c.OnStatus = fn } }

// WithCompensation selects the drift-compensation strategy (§3.3).
func WithCompensation(comp Compensation) Option {
	return func(c *node.Config) { c.Compensation = comp }
}

// WithMeanDelay sets the per-round offset bias for CompMeanDelay.
func WithMeanDelay(d time.Duration) Option { return func(c *node.Config) { c.MeanDelay = d } }

// WithExternalReference sets the reference clock and gain for CompExternal.
// gain 0 takes the default (0.1).
func WithExternalReference(ref HardwareClock, gain float64) Option {
	return func(c *node.Config) { c.External = ref; c.ExternalGain = gain }
}

// WithAgreedCCS trades the safe-delivery guarantee for lower round latency
// (ablation of §4.3).
func WithAgreedCCS(a bool) Option { return func(c *node.Config) { c.AgreedCCS = a } }

// WithOnRound observes every completed CCS round. Called on the loop.
func WithOnRound(fn func(RoundReport)) Option { return func(c *node.Config) { c.OnRound = fn } }

// WithObservability plumbs the recorder through every layer of the service's
// stack: round traces go to its sink, and each layer registers its counters
// with its registry. Without this option the Service still creates a
// sink-less recorder, so Observability() and metrics always work.
func WithObservability(r *Recorder) Option { return func(c *node.Config) { c.Obs = r } }

// WithTimeServe enables the external time-serving frontend: Start enables
// the core lease plane, binds the sharded UDP listeners, and keeps the lease
// fresh with background refresh CCS rounds. In groups of more than three
// replicas refresh duty rotates, three proposers per tick.
func WithTimeServe(cfg TimeServeConfig) Option {
	return func(c *node.Config) { c.TimeServe = &cfg }
}

// WithFederation joins this group to an inter-group federation: Start spawns
// the exchange agent, which periodically summarizes the group's lease to
// every neighbor group and adopts bounded federated nudges when a neighbor
// is confidently ahead. Published staleness bounds then also cover the
// residual inter-group skew.
func WithFederation(cfg FederationConfig) Option {
	return func(c *node.Config) { c.Federation = &cfg }
}

// New assembles a Service from the options. It validates the configuration
// of every layer; Start begins protocol activity.
func New(opts ...Option) (*Service, error) {
	var cfg node.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Obs == nil {
		// A sink-less recorder: tracing stays off (nil sink fast path), but
		// the metrics registry works, so Observability() is always usable.
		rec, err := obs.New(obs.Config{})
		if err != nil {
			return nil, err
		}
		cfg.Obs = rec
	}
	return node.New(cfg)
}
