// Package experiment reconstructs the paper's testbed and evaluation (§4):
// a client on node P0 invoking a replicated server on nodes P1..Pn over a
// Totem ring on simulated 100 Mb/s Ethernet, plus the measurement harnesses
// that regenerate every figure and table. See DESIGN.md for the experiment
// index (E1–E17) and EXPERIMENTS.md for paper-vs-measured results.
package experiment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cts/internal/baseline"
	"cts/internal/campaign"
	"cts/internal/core"
	"cts/internal/faultinject"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/invariant"
	"cts/internal/node"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/replication"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/stats"
	"cts/internal/timesource"
	"cts/internal/transport"
	"cts/internal/wire"
)

// Group identifiers used by the experiment deployments.
const (
	ServerGroup wire.GroupID = 100
	ClientGroup wire.GroupID = 900
)

// externalSkew is the maximum transient skew of the CompExternal reference.
const externalSkew = 500 * time.Microsecond

// TimeMode selects which time service the replicas run.
type TimeMode int

// Time service modes.
const (
	// ModeCTS is the paper's consistent time service.
	ModeCTS TimeMode = iota
	// ModeLocal reads raw physical clocks (no coordination) — the
	// "without consistent time service" configuration.
	ModeLocal
	// ModePrimaryBackup is the primary/backup conveyance baseline.
	ModePrimaryBackup
)

// ClockSpec describes one replica's physical hardware clock: its initial
// offset from true time and its rate error. Campaign cells describe their
// clocks with the same type.
type ClockSpec = campaign.ClockSpec

// ClusterConfig configures a simulated deployment.
type ClusterConfig struct {
	Seed int64
	// Clocks declares one replica per spec, on nodes 1..n; the client rides
	// node 0. Links are the calibrated Ethernet model, and the replicas
	// order over DefaultOrderer.
	Clocks []ClockSpec
	Style  replication.Style
	Mode   TimeMode
	// AgreedCCS selects agreed instead of safe delivery for CCS messages
	// (ModeCTS only; ablation of the paper's safe-delivery requirement).
	AgreedCCS bool
	// Compensation options (ModeCTS only). CompExternal steers toward a
	// reference with at most externalSkew of transient skew.
	Compensation core.Compensation
	MeanDelay    time.Duration
	ExternalGain float64
	// CheckpointEvery for passive replication; default 10.
	CheckpointEvery int
	// ClientTimeout bounds each invocation; zero = none.
	ClientTimeout time.Duration
	// Observe enables the observability layer: a cluster-wide obs.Recorder
	// (virtual-time clock) is plumbed through every stack layer and exposed
	// as Cluster.Obs. Off by default so measurement runs pay nothing.
	Observe bool
	// TraceSink, when set, receives the round trace events (implies Observe).
	TraceSink obs.TraceSink
}

// DefaultOrderer is the ordering protocol clusters run. The experiment
// package's -orderer test flag overrides it, so the whole experiment suite
// can be exercised against a different orderer (`go test
// ./internal/experiment -orderer=seq`).
var DefaultOrderer = order.KindTotem

// Cluster is a running simulated deployment: client on node 0, replicas on
// nodes 1..n.
type Cluster struct {
	K      *sim.Kernel
	Net    *simnet.Network
	Inject *faultinject.Injector
	Client *rpc.Client
	// ClientStack is the client's group stack on node 0, the one stack the
	// cluster builds itself.
	ClientStack *gcs.Stack

	// Nodes are the replicas; each builds its own stack and exposes it with
	// its Manager and Core (nil outside ModeCTS).
	Nodes map[transport.NodeID]*node.Node
	PBs   map[transport.NodeID]*baseline.PrimaryBackup
	Apps  map[transport.NodeID]*ReaderApp

	// Reports collects core round reports per replica (ModeCTS).
	Reports map[transport.NodeID][]core.RoundReport
	// PBReports collects baseline read reports per replica.
	PBReports map[transport.NodeID][]baseline.Report
	// rounds is the round oracle every core round report goes through.
	rounds invariant.Rounds
	// clients is the client oracle every clock read's reply goes through
	// (ModeCTS; the baselines exist to roll back). clientAt holds the invoke
	// and reply times of its first witness.
	clients  invariant.Checker
	clientAt [2]time.Duration

	// Obs is the cluster-wide recorder (nil unless ClusterConfig.Observe or
	// TraceSink is set). Gather its Samples between RunUntil steps — sources
	// are loop-confined and the kernel only runs inside Run calls.
	Obs *obs.Recorder

	cfg   ClusterConfig
	nodes []transport.NodeID
}

// NewCluster builds and starts the deployment, then lets the ring settle.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	n := len(cfg.Clocks)
	if n == 0 {
		return nil, fmt.Errorf("experiment: at least one replica required")
	}
	if cfg.Style == 0 {
		cfg.Style = replication.Active
	}
	k := sim.NewKernel(cfg.Seed)
	c := &Cluster{
		K:         k,
		Net:       simnet.NewNetwork(k, nil),
		Nodes:     make(map[transport.NodeID]*node.Node),
		PBs:       make(map[transport.NodeID]*baseline.PrimaryBackup),
		Apps:      make(map[transport.NodeID]*ReaderApp),
		Reports:   make(map[transport.NodeID][]core.RoundReport),
		PBReports: make(map[transport.NodeID][]baseline.Report),
		cfg:       cfg,
	}
	c.Inject = faultinject.New(k, c.Net)
	if cfg.Observe || cfg.TraceSink != nil {
		rec, err := obs.New(obs.Config{Now: k.Now, Sink: cfg.TraceSink})
		if err != nil {
			return nil, err
		}
		c.Obs = rec
	}
	for i := 0; i <= n; i++ {
		c.nodes = append(c.nodes, transport.NodeID(i))
	}
	// The client on node 0.
	cs, err := gcs.New(gcs.Config{
		Runtime:   k,
		Transport: c.Net.Endpoint(0),
		Members:   c.nodes,
		Bootstrap: true,
		Order:     order.Options{Kind: DefaultOrderer},
		Obs:       c.Obs.ForNode(0),
	})
	if err != nil {
		return nil, err
	}
	c.ClientStack = cs
	c.Inject.Register(0, cs)
	cl, err := rpc.NewClient(rpc.ClientConfig{
		Runtime: k, Stack: cs,
		ClientGroup: ClientGroup, ServerGroup: ServerGroup,
		Timeout: cfg.ClientTimeout,
		Obs:     c.Obs.ForNode(0),
	})
	if err != nil {
		return nil, err
	}
	c.Client = cl
	// Replicas on nodes 1..n.
	for i := 0; i < n; i++ {
		if err := c.addReplica(transport.NodeID(i+1), cfg.Clocks[i], false); err != nil {
			return nil, err
		}
	}
	// In id order, the client's stack first: a seed must fix the order of
	// the time-0 sends.
	c.ClientStack.Start()
	for _, id := range c.nodes[1:] {
		if err := c.Nodes[id].Start(); err != nil {
			return nil, err
		}
	}
	c.K.RunFor(3 * time.Millisecond) // ring + group views settle
	return c, nil
}

// addReplica builds one replica on node id through internal/node, without
// starting it, and registers its stack with the fault injector. The
// baseline modes stop the node's wiring at the replication manager and
// install their own clock on it.
func (c *Cluster) addReplica(id transport.NodeID, spec ClockSpec, recovering bool) error {
	clock := hwclock.NewSim(c.K.Now,
		hwclock.WithOffset(spec.Offset), hwclock.WithDriftPPM(spec.DriftPPM))
	app := &ReaderApp{
		rng:   rand.New(rand.NewSource(c.cfg.Seed*1000 + int64(id))),
		clock: clock,
	}
	// The time-service fields are inert in the baseline modes.
	ncfg := node.Config{
		Runtime:         c.K,
		Transport:       c.Net.Endpoint(id),
		Members:         c.nodes,
		Order:           order.Options{Kind: DefaultOrderer},
		Group:           ServerGroup,
		Style:           c.cfg.Style,
		App:             app,
		Clock:           clock,
		Recovering:      recovering,
		CheckpointEvery: c.cfg.CheckpointEvery,
		Obs:             c.Obs,
		NoTimeService:   c.cfg.Mode != ModeCTS,
		AgreedCCS:       c.cfg.AgreedCCS,
		Compensation:    c.cfg.Compensation,
		MeanDelay:       c.cfg.MeanDelay,
		ExternalGain:    c.cfg.ExternalGain,
		OnRound: func(r core.RoundReport) {
			c.Reports[id] = append(c.Reports[id], r)
			c.rounds.Report(invariant.RoundReport{Group: uint32(ServerGroup), Node: uint32(id), Thread: r.ThreadID, Round: r.Round,
				Value: r.GroupClock, Winner: uint32(r.Winner), Physical: r.Physical})
		},
	}
	if c.cfg.Mode == ModeCTS && c.cfg.Compensation == core.CompExternal {
		ncfg.External = timesource.New(c.K.Now, c.cfg.Seed+int64(id),
			timesource.WithMaxSkew(externalSkew))
	}
	n, err := node.New(ncfg)
	if err != nil {
		return err
	}
	switch c.cfg.Mode {
	case ModeCTS:
		app.read = n.Gettimeofday
	case ModePrimaryBackup:
		pb, err := baseline.NewPrimaryBackup(n.Manager(), clock, func(r baseline.Report) {
			c.PBReports[id] = append(c.PBReports[id], r)
		})
		if err != nil {
			return err
		}
		c.PBs[id] = pb
		app.read = pb.Gettimeofday
	case ModeLocal:
		lc := baseline.NewLocalClock(clock)
		app.read = lc.Gettimeofday
	}
	c.Nodes[id] = n
	c.Apps[id] = app
	c.Inject.Register(id, n.Stack())
	return nil
}

// AddRecoveringReplica joins a fresh replica (new clock) on the next node id
// and returns its id. It recovers state through GET_STATE (§3.2).
func (c *Cluster) AddRecoveringReplica(spec ClockSpec) (transport.NodeID, error) {
	id := transport.NodeID(len(c.nodes))
	c.nodes = append(c.nodes, id)
	if err := c.addReplica(id, spec, true); err != nil {
		return 0, err
	}
	return id, c.Nodes[id].Start()
}

// RunUntil advances the simulation until cond holds or max virtual time
// passes, reporting whether cond held. It also stops, reporting false, at
// either oracle's first violation, which Err then names.
func (c *Cluster) RunUntil(max time.Duration, cond func() bool) bool {
	deadline := c.K.Now() + max
	for c.Err() == nil {
		if cond() {
			return true
		}
		if c.K.Now() >= deadline {
			return false
		}
		c.K.RunFor(200 * time.Microsecond)
	}
	return false
}

// Err is nil while both oracles are clean: every replica completed each
// round it reported once, in thread order, with the value every other
// replica reported for it, and no clock read returned less than a read that
// returned before it was invoked. Otherwise it names the client oracle's
// first witness, with that read's invoke and reply times, then the round
// oracle's.
func (c *Cluster) Err() error {
	var client error
	if err := c.clients.Err(); err != nil {
		client = fmt.Errorf("%w (invoked at %v, replied at %v)", err, c.clientAt[0], c.clientAt[1])
	}
	return errors.Join(client, c.rounds.Err())
}

// invoke issues one clock-reading invocation, CurrentTime or ReadSequence,
// and calls done with its reply. In ModeCTS the reply goes through the
// client oracle: Snap before the invocation, Observe on the reply keyed by
// the replica that served it, with bound 0 (a CCS read is exact).
func (c *Cluster) invoke(method string, body []byte, done func(rpc.Reply)) {
	if c.cfg.Mode != ModeCTS {
		c.Client.Invoke(method, body, done)
		return
	}
	pre := new(invariant.Snapshot)
	c.clients.Snap(pre)
	at := c.K.Now()
	c.Client.Invoke(method, body, func(rep rpc.Reply) {
		if v, err := DecodeTimeval(rep.Body); rep.Err == nil && err == nil {
			c.clients.Observe(pre, invariant.Key{Group: uint32(ServerGroup), Node: rep.Replica}, v, 0)
			if c.clientAt[1] == 0 && c.clients.Err() != nil {
				c.clientAt = [2]time.Duration{at, c.K.Now()}
			}
		}
		done(rep)
	})
}

// invokeSeq issues n sequential CurrentTime invocations from the client and
// returns the latencies of those that succeeded. With think == nil each
// invocation follows the previous reply immediately; otherwise the client
// first waits a uniform [0, 1ms) think time drawn from think. The run fails
// unless all n complete within n·per + 1s of virtual time.
func (c *Cluster) invokeSeq(n int, think *rand.Rand, per time.Duration) (stats.Durations, error) {
	var lat stats.Durations
	done := 0
	var start time.Duration
	var invoke func()
	invoke = func() {
		start = c.K.Now()
		c.invoke(MethodCurrentTime, nil, func(rep rpc.Reply) {
			if rep.Err == nil {
				lat.Add(c.K.Now() - start)
			}
			done++
			if done >= n {
				return
			}
			if think == nil {
				invoke()
			} else {
				c.K.After(time.Duration(think.Intn(1000))*time.Microsecond, invoke)
			}
		})
	}
	invoke()
	if !c.RunUntil(time.Duration(n)*per+time.Second, func() bool { return done >= n }) {
		return lat, errors.Join(c.Err(), fmt.Errorf("%d/%d invocations completed", done, n))
	}
	return lat, nil
}

// ReadOnce invokes CurrentTime once and returns the decoded reading. It
// fails if no reply arrives within 10s of virtual time, or if the reply
// carries an error or does not decode.
func (c *Cluster) ReadOnce() (time.Duration, error) {
	var v time.Duration
	var err error
	got := false
	c.invoke(MethodCurrentTime, nil, func(rep rpc.Reply) {
		got = true
		if err = rep.Err; err == nil {
			v, err = DecodeTimeval(rep.Body)
		}
	})
	if !c.RunUntil(10*time.Second, func() bool { return got }) {
		return 0, errors.Join(c.Err(), fmt.Errorf("read timed out"))
	}
	return v, err
}

// driveReadSequence invokes MethodReadSequence once with the given count
// and runs the simulation to completion.
func driveReadSequence(c *Cluster, ops int) error {
	before := make(map[transport.NodeID]int, len(c.Apps))
	for id, app := range c.Apps {
		before[id] = len(app.Readings)
	}
	body := make([]byte, 4)
	binary.BigEndian.PutUint32(body, uint32(ops))
	done := false
	c.invoke(MethodReadSequence, body, func(rpc.Reply) { done = true })
	// Each round costs a few hundred µs of delay plus the ordering latency.
	budget := time.Duration(ops)*2*time.Millisecond + time.Second
	if !c.RunUntil(budget, func() bool { return done }) {
		return errors.Join(c.Err(), fmt.Errorf("read sequence of %d ops did not complete", ops))
	}
	// The reply comes from the fastest replica; give stragglers (which may
	// not block on rounds, e.g. raw local clocks) time to finish their
	// sequences. Best-effort: crashed or passive replicas never will.
	c.RunUntil(2*time.Second, func() bool {
		for id, app := range c.Apps {
			if len(app.Readings)-before[id] < ops {
				return false
			}
		}
		return true
	})
	return c.Err()
}

// ReaderApp is the replicated server of §4.2: "the server simply calls
// gettimeofday()" for the latency application, and performs a sequence of
// clock operations separated by random busy-wait delays for the skew/drift
// application.
type ReaderApp struct {
	rng   *rand.Rand
	clock hwclock.Clock
	read  func(*replication.Ctx) time.Duration

	// Readings are the group clock values returned, in order.
	Readings []time.Duration
	// PhysBefore records the replica's raw physical clock just before each
	// operation (used by Figure 6's physical-interval series).
	PhysBefore []time.Duration
}

// Methods understood by ReaderApp.
const (
	// MethodCurrentTime returns the current time in two CORBA longs
	// (seconds and microseconds), exactly the paper's first application.
	MethodCurrentTime = "CurrentTime"
	// MethodReadSequence performs N clock operations separated by random
	// busy-wait delays (the paper's second application); the body carries N
	// as a big-endian uint32. The reply is the last reading.
	MethodReadSequence = "ReadSequence"
)

// Invoke implements replication.Application.
func (a *ReaderApp) Invoke(ctx *replication.Ctx, method string, body []byte) []byte {
	switch method {
	case MethodCurrentTime:
		v := a.record(ctx)
		return encodeTimeval(v)
	case MethodReadSequence:
		n := 1
		if len(body) >= 4 {
			n = int(binary.BigEndian.Uint32(body))
		}
		var v time.Duration
		for i := 0; i < n; i++ {
			// The paper inserts an empty iteration loop of 30k/60k/90k
			// iterations, yielding delays of roughly 60–400µs depending on
			// scheduling; sleep system calls are too coarse (10ms ticks).
			// The random choice is per replica, so the synchronizer
			// rotates randomly among the server replicas.
			iters := 30000 * (1 + a.rng.Intn(3))
			delay := time.Duration(float64(iters) * 2 * float64(time.Nanosecond) *
				(1 + 1.2*a.rng.Float64()))
			ctx.Sleep(delay)
			v = a.record(ctx)
		}
		return encodeTimeval(v)
	}
	return nil
}

func (a *ReaderApp) record(ctx *replication.Ctx) time.Duration {
	a.PhysBefore = append(a.PhysBefore, a.clock.Read())
	v := a.read(ctx)
	a.Readings = append(a.Readings, v)
	return v
}

// Snapshot implements replication.Application. The readings are
// measurement state, not replicated state; the replicated state is empty.
func (a *ReaderApp) Snapshot() []byte { return nil }

// Restore implements replication.Application.
func (a *ReaderApp) Restore([]byte) {}

// encodeTimeval packs a duration as the paper's "two CORBA longs":
// seconds and microseconds.
func encodeTimeval(v time.Duration) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint32(out[0:], uint32(v/time.Second))
	binary.BigEndian.PutUint32(out[4:], uint32((v%time.Second)/time.Microsecond))
	return out
}

// DecodeTimeval unpacks a CurrentTime reply.
func DecodeTimeval(b []byte) (time.Duration, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("experiment: timeval reply %d bytes, want 8", len(b))
	}
	sec := time.Duration(binary.BigEndian.Uint32(b[0:])) * time.Second
	usec := time.Duration(binary.BigEndian.Uint32(b[4:])) * time.Microsecond
	return sec + usec, nil
}
