// Package node is the one place a replica of the paper's stack (§4.1) is
// wired: application → consistent time service → replication manager →
// group communication → orderer → transport. The public cts facade, the
// simulation campaigns and the experiment clusters all assemble their
// replicas through New, so what the harnesses gate is what deploys.
//
// Assembly is two-phase. New validates and constructs every layer bottom-up
// (gcs stack, replication manager, time service) without starting any
// protocol activity; Start joins the group, starts the stack, enables the
// lease plane, binds the serving frontend, spawns the federation agent and
// arms the periodic timers, in that order. A harness that builds many nodes
// on one simulation kernel therefore still decides when each of them starts.
package node

import (
	"errors"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"cts/internal/core"
	"cts/internal/federation"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/replication"
	"cts/internal/sim"
	"cts/internal/timeserve"
	"cts/internal/transport"
	"cts/internal/wire"
)

// DefaultGroup is the server group identifier used when Config.Group is zero
// (the experiment deployments' ServerGroup).
const DefaultGroup wire.GroupID = 100

// Config is everything that decides how a replica is wired. The cts
// functional options fill it field by field; harnesses set it directly.
type Config struct {
	// Runtime is the event loop the node runs on. Required.
	Runtime sim.Runtime
	// Transport (required), Members and Order are what the node builds its
	// group-communication stack from; Start and Stop start and stop it. The
	// stack forms the initial membership directly unless the node is
	// Recovering.
	Transport transport.Transport
	Members   []transport.NodeID
	Order     order.Options

	Group           wire.GroupID            // default DefaultGroup
	Style           replication.Style       // default Active
	App             replication.Application // default answers "CurrentTime"
	Clock           hwclock.Clock           // default the system clock
	Recovering      bool
	CheckpointEvery int
	OnStatus        func(replication.Status)

	Compensation core.Compensation
	MeanDelay    time.Duration
	External     hwclock.Clock
	ExternalGain float64
	AgreedCCS    bool
	OnRound      func(core.RoundReport)

	// TimeServe enables the lease plane, its refresher and the serving
	// frontend; Federation (which requires TimeServe) the inter-group plane.
	TimeServe  *TimeServeConfig
	Federation *FederationConfig

	// Obs is plumbed through every layer. A nil recorder disables
	// instrumentation at no cost.
	Obs *obs.Recorder

	// The remaining fields serve harnesses only; the public API has no option
	// for them.

	// LeaseOnly brings up TimeServe's lease plane and refresher without
	// binding the UDP frontend: simulated cells read leases in-process.
	LeaseOnly bool
	// NoTimeService stops the wiring at the replication manager, for the
	// baseline clocks that install their own hooks on it. Core() is then nil.
	NoTimeService bool
}

// TimeServeConfig configures the external time-serving frontend enabled by
// WithTimeServe.
type TimeServeConfig struct {
	// Addr is the UDP address the frontend listens on (e.g. ":4460",
	// "127.0.0.1:0"). Required.
	Addr string
	// Shards is the number of listener shards (SO_REUSEPORT sockets on
	// Linux). Default 1.
	Shards int
	// LeaseWindow is how long after a CCS adoption external reads may be
	// answered from the lease. Default 1s.
	LeaseWindow time.Duration
	// DriftPPM widens the advertised staleness bound as the lease ages.
	// Default 100 ppm (or the simulated clock's own drift if larger).
	DriftPPM float64
	// RefreshEvery is the cadence of the background lease-refresh CCS
	// rounds keeping the lease alive between client-driven rounds.
	// Default LeaseWindow/4. The refresher also proposes a round whenever
	// the replica goes live in a primary view, re-leasing after the view
	// change that invalidated the lease. Negative disables the refresher
	// (the caller drives RefreshLease itself).
	RefreshEvery time.Duration
	// ServeIO selects the shards' kernel I/O path: "auto" (batched
	// recvmmsg/sendmmsg where supported; the default), "seq" (one datagram
	// per syscall), or "mmsg" (require batching; Start fails on platforms
	// without it).
	ServeIO string
	// OnFallback, when set, is called once per degradation event: the
	// batched syscalls proving unavailable at runtime, or a refused
	// SO_REUSEPORT bind collapsing the shards onto one socket.
	OnFallback func(reason string)
}

// FederationConfig configures the inter-group federation plane enabled by
// WithFederation. The local group identifier comes from WithGroup; the
// summaries themselves come from the lease plane, so WithFederation requires
// WithTimeServe (which owns the lease and its refresher).
type FederationConfig struct {
	// Link transmits summary frames toward neighbor groups. Required.
	// For deployments use NewFederationUDPLink and, after Start, attach the
	// receive side with link.SetAgent(svc.Federation()).
	Link federation.Link
	// Neighbors lists the adjacent groups' identifiers.
	Neighbors []wire.GroupID
	// Key authenticates summary frames; every group of one federation must
	// share it. Default "cts-federation".
	Key []byte
	// The exchange-plane tuning; zero fields take federation's defaults
	// (see federation.Config).
	ExchangeEvery time.Duration
	MaxStep       time.Duration
	Precision     time.Duration
	InitialSlack  time.Duration
}

// Node is one replica of a consistent-time server group.
type Node struct {
	cfg   Config
	mgr   *replication.Manager
	svc   *core.TimeService
	stack *gcs.Stack

	ts  *timeserve.Server
	fed *federation.Agent
	// The pending timers of the two periodic chains (see every) and the
	// refresh tick count for the duty rotation. Loop-only.
	refreshTimer, fedTimer sim.Canceler
	refreshTicks           uint64
	// The configured membership is the node's presumptive view for refresh
	// duty until the group's first view installs: bootRank is this node's
	// index in it (sorted; -1 when absent) and bootN its size.
	bootRank, bootN int
	stopped         atomic.Bool
}

// leaseSource adapts the core lease plane to the timeserve frontend.
type leaseSource struct {
	svc  *core.TimeService
	node uint32
}

func (l leaseSource) LeaseRead() (timeserve.Reading, bool) {
	r, ok := l.svc.LeaseRead()
	if !ok {
		return timeserve.Reading{}, false
	}
	return timeserve.Reading{GroupClock: r.GroupClock, Bound: r.Bound, Epoch: r.Epoch, Node: l.node}, true
}

// defaultApp answers CurrentTime with the group clock — enough to run a
// time server with no custom application.
type defaultApp struct{ svc *core.TimeService }

func (a *defaultApp) Invoke(ctx *replication.Ctx, method string, _ []byte) []byte {
	if method != "CurrentTime" || a.svc == nil {
		return nil
	}
	return wire.MarshalCurrentTime(a.svc.Gettimeofday(ctx))
}
func (a *defaultApp) Snapshot() []byte { return nil }
func (a *defaultApp) Restore([]byte)   {}

// New assembles a Node from cfg. It validates the configuration of every
// layer; Start begins protocol activity.
func New(cfg Config) (*Node, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("cts: WithRuntime is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("cts: WithTransport is required")
	}
	if cfg.Group == 0 {
		cfg.Group = DefaultGroup
	}
	if cfg.Clock == nil {
		cfg.Clock = hwclock.SystemClock{}
	}
	if cfg.Federation != nil {
		if cfg.Federation.Link == nil {
			return nil, errors.New("cts: FederationConfig.Link is required")
		}
		if cfg.TimeServe == nil {
			return nil, errors.New("cts: WithFederation requires WithTimeServe (the lease plane supplies the summaries)")
		}
	}

	st, err := gcs.New(gcs.Config{
		Runtime:   cfg.Runtime,
		Transport: cfg.Transport,
		Members:   cfg.Members,
		Bootstrap: !cfg.Recovering,
		Order:     cfg.Order,
		Obs:       cfg.Obs.ForNode(uint32(cfg.Transport.LocalID())),
	})
	if err != nil {
		return nil, err
	}
	n := &Node{stack: st, bootRank: -1, bootN: len(cfg.Members)}
	boot := cfg.Members
	if !slices.IsSorted(boot) {
		boot = slices.Clone(boot)
		slices.Sort(boot)
	}
	if r, ok := slices.BinarySearch(boot, n.stack.LocalID()); ok {
		n.bootRank = r
	}

	dapp := &defaultApp{}
	if cfg.App == nil {
		cfg.App = dapp
	}
	mgr, err := replication.New(replication.Config{
		Runtime:         cfg.Runtime,
		Stack:           n.stack,
		Group:           cfg.Group,
		Style:           cfg.Style,
		App:             cfg.App,
		Recovering:      cfg.Recovering,
		CheckpointEvery: cfg.CheckpointEvery,
		OnStatus:        n.onStatus,
		Obs:             cfg.Obs.ForNode(uint32(n.stack.LocalID())),
	})
	if err != nil {
		return nil, err
	}
	n.mgr = mgr
	if !cfg.NoTimeService {
		svc, err := core.New(core.Config{
			Manager:      mgr,
			Clock:        cfg.Clock,
			Compensation: cfg.Compensation,
			MeanDelay:    cfg.MeanDelay,
			External:     cfg.External,
			ExternalGain: cfg.ExternalGain,
			AgreedCCS:    cfg.AgreedCCS,
			OnRound:      cfg.OnRound,
		})
		if err != nil {
			return nil, err
		}
		dapp.svc = svc
		n.svc = svc
	}
	n.cfg = cfg
	return n, nil
}

// Start joins the server group and starts the stack's ordering activity.
// With TimeServe it also enables the lease plane, binds the serving
// frontend, and starts the background lease refresher. Safe to call from any
// goroutine.
func (n *Node) Start() error {
	if err := n.mgr.Start(); err != nil {
		return err
	}
	n.stack.Start()
	if n.cfg.TimeServe != nil {
		if err := n.startTimeServe(*n.cfg.TimeServe); err != nil {
			n.Stop()
			return err
		}
	}
	if n.cfg.Federation != nil {
		if err := n.startFederation(*n.cfg.Federation); err != nil {
			n.Stop()
			return err
		}
	}
	return nil
}

// startTimeServe brings up the serving plane of TimeServe.
func (n *Node) startTimeServe(cfg TimeServeConfig) error {
	if cfg.LeaseWindow == 0 {
		cfg.LeaseWindow = time.Second
	}
	if err := n.svc.EnableLease(core.LeaseConfig{
		Window:   cfg.LeaseWindow,
		DriftPPM: cfg.DriftPPM,
	}); err != nil {
		return err
	}
	if !n.cfg.LeaseOnly {
		io, err := timeserve.ParseIOMode(cfg.ServeIO)
		if err != nil {
			return err
		}
		id := uint32(n.stack.LocalID())
		srv, err := timeserve.Start(timeserve.Config{
			Addr:       cfg.Addr,
			Shards:     cfg.Shards,
			Node:       id,
			Source:     leaseSource{svc: n.svc, node: id},
			IO:         io,
			OnFallback: cfg.OnFallback,
			Obs:        n.cfg.Obs.ForNode(id),
		})
		if err != nil {
			return err
		}
		n.ts = srv
	}
	every := cfg.RefreshEvery
	if every == 0 {
		every = cfg.LeaseWindow / 4
	}
	if every > 0 {
		n.every(&n.refreshTimer, every, n.refreshTick)
	}
	return nil
}

// refreshTick is the refresher's periodic trigger: it proposes a
// lease-refresh round on each tick the node is on duty. Loop-only.
func (n *Node) refreshTick() {
	tick := n.refreshTicks
	n.refreshTicks++
	n.refreshOnDuty(tick)
}

// onStatus passes the status on to Config.OnStatus and is the refresher's
// second trigger (armed once its ticker is: never with RefreshEvery < 0). A
// view install invalidates the lease (core's onLeaseView), so when
// replication reports the replica live in a primary view — every view
// install while live, and the live transition after a GET_STATE transfer —
// the node proposes a refresh round at once instead of serving nothing
// until its next tick. Duty is the tick's rule over the new view, so a view
// of up to three re-leases from every member and a larger one from at most
// three. Loop-only.
func (n *Node) onStatus(st replication.Status) {
	if n.cfg.OnStatus != nil {
		n.cfg.OnStatus(st)
	}
	if n.refreshTimer != nil && st.Live && st.InPrimary && !n.stopped.Load() {
		n.refreshOnDuty(n.refreshTicks)
	}
}

// refreshOnDuty proposes a lease-refresh round when this node is live and on
// duty for tick (core.RefreshDuty: every member of a view of at most three,
// a rotating three of a larger one). The first tick fires at Start, before
// any view exists; duty is then taken over the configured membership, so a
// three-replica group proposes at once and a thousand-node cell does not
// open with a thousand proposals. RefreshLease starts no round while one is
// in flight. Loop-only.
func (n *Node) refreshOnDuty(tick uint64) {
	rank, size := n.mgr.Rank(), len(n.mgr.Members())
	if size == 0 {
		rank, size = n.bootRank, n.bootN
	}
	if n.mgr.Live() && core.RefreshDuty(rank, size, tick) {
		n.svc.RefreshLease()
	}
}

// startFederation brings up the inter-group exchange plane of Federation.
func (n *Node) startFederation(cfg FederationConfig) error {
	agent, err := federation.New(federation.Config{
		Runtime:       n.cfg.Runtime,
		Service:       n.svc,
		Manager:       n.mgr,
		Clock:         n.cfg.Clock,
		Link:          cfg.Link,
		Group:         n.cfg.Group,
		Neighbors:     cfg.Neighbors,
		Key:           cfg.Key,
		ExchangeEvery: cfg.ExchangeEvery,
		MaxStep:       cfg.MaxStep,
		Precision:     cfg.Precision,
		InitialSlack:  cfg.InitialSlack,
		Obs:           n.cfg.Obs.ForNode(uint32(n.stack.LocalID())),
	})
	if err != nil {
		return err
	}
	n.fed = agent
	agent.Start()
	n.every(&n.fedTimer, agent.ExchangeEvery(), agent.ExchangeTick)
	return nil
}

// Stop leaves the group, halts the serving frontend, the federation agent,
// the periodic timers and the stack. Idempotent: Start already stops the
// node when a later phase (e.g. the serving frontend) fails to come up, and
// callers typically also hold a deferred Stop.
func (n *Node) Stop() {
	if !n.stopped.CompareAndSwap(false, true) {
		return
	}
	n.cfg.Runtime.Post(func() {
		for _, t := range []sim.Canceler{n.refreshTimer, n.fedTimer} {
			if t != nil {
				t.Cancel()
			}
		}
	})
	if n.fed != nil {
		n.fed.Stop()
	}
	if n.ts != nil {
		_ = n.ts.Close() // sockets are going away with the process
		n.ts = nil
	}
	n.mgr.Stop()
	n.stack.Stop()
}

// every is the node's one periodic-timer idiom: fn runs on the loop right
// away and then every period until Stop, the chain's pending timer kept in
// *pending (loop-only) for Stop to cancel. The chain re-arms itself after
// each run, so a slow loop delays ticks instead of piling them up.
func (n *Node) every(pending *sim.Canceler, period time.Duration, fn func()) {
	var tick func()
	tick = func() {
		if n.stopped.Load() {
			return
		}
		fn()
		*pending = n.cfg.Runtime.After(period, tick)
	}
	n.cfg.Runtime.Post(tick)
}

// TimeServe exposes the serving frontend (nil without WithTimeServe or
// before Start).
func (n *Node) TimeServe() *timeserve.Server { return n.ts }

// Federation exposes the inter-group exchange agent (nil without
// WithFederation or before Start). Deployments attach the receive side of
// their link to it: link.SetAgent(svc.Federation()).
func (n *Node) Federation() *federation.Agent { return n.fed }

// TimeServeAddr reports the frontend's bound UDP address ("" when not
// serving). Useful with ":0".
func (n *Node) TimeServeAddr() string {
	if n.ts == nil {
		return ""
	}
	return n.ts.Addr().String()
}

// LeaseRead answers one external read from the replica's current lease.
// Safe from any goroutine; ok=false when no valid lease is held.
func (n *Node) LeaseRead() (core.LeaseReading, bool) { return n.svc.LeaseRead() }

// RefreshLease starts a lease-refresh CCS round unless one is in flight.
// Safe from any goroutine.
func (n *Node) RefreshLease() { n.svc.RefreshLease() }

// Clock returns the interposition facade bound to a logical thread context.
func (n *Node) Clock(ctx *replication.Ctx) *core.Clock { return n.svc.Clock(ctx) }

// Gettimeofday performs a consistent clock read at µs granularity.
func (n *Node) Gettimeofday(ctx *replication.Ctx) time.Duration { return n.svc.Gettimeofday(ctx) }

// Time performs a consistent clock read at second granularity.
func (n *Node) Time(ctx *replication.Ctx) time.Duration { return n.svc.Time(ctx) }

// Ftime performs a consistent clock read at millisecond granularity.
func (n *Node) Ftime(ctx *replication.Ctx) time.Duration { return n.svc.Ftime(ctx) }

// Timestamp reports the group clock value to stamp into outgoing
// inter-group messages (§5). Loop-only.
func (n *Node) Timestamp() time.Duration { return n.svc.Timestamp() }

// ObserveTimestamp records a group clock value carried by a delivered
// inter-group message (§5). Loop-only.
func (n *Node) ObserveTimestamp(t time.Duration) { n.svc.ObserveTimestamp(t) }

// Observability returns the node's recorder: trace control, the metrics
// registry, and histograms. Never nil for a node built by cts.New.
func (n *Node) Observability() *obs.Recorder { return n.cfg.Obs }

// DumpMetrics writes a text dump of every registered counter and histogram.
// Loop-only, like the counters it gathers.
func (n *Node) DumpMetrics(w io.Writer) { n.cfg.Obs.DumpMetrics(w) }

// Stack exposes the group-communication endpoint.
func (n *Node) Stack() *gcs.Stack { return n.stack }

// Manager exposes the replication manager.
func (n *Node) Manager() *replication.Manager { return n.mgr }

// Core exposes the consistent time service (nil with NoTimeService).
func (n *Node) Core() *core.TimeService { return n.svc }
