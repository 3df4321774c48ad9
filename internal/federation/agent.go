package federation

import (
	"errors"
	"fmt"
	"time"

	"cts/internal/core"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/replication"
	"cts/internal/sim"
	"cts/internal/wire"
)

// Link transmits encoded summary frames toward every member of a neighbor
// group. Sends are best effort and unordered; the merge rule tolerates loss,
// reordering and replay (frames are authenticated and sequence-checked).
type Link interface {
	Send(dst wire.GroupID, frame []byte)
}

// Config configures an Agent. One agent runs on every group member; the
// member whose turn it is (duty rotates through the current view, like the
// lease-refresh duty) reads the group's lease, sends summaries to each
// neighbor group, and evaluates the merge rule.
type Config struct {
	// Runtime is the replica's event loop. Required.
	Runtime sim.Runtime
	// Service is the replica's time service. Required; the agent enables its
	// federation half.
	Service *core.TimeService
	// Manager is the replica's replication manager. Required.
	Manager *replication.Manager
	// Clock is the replica's physical hardware clock, used for summary aging
	// — never the wall clock, so simulated campaigns stay deterministic.
	// Required.
	Clock hwclock.Clock
	// Link transmits summary frames. Required.
	Link Link
	// Group is the local group's wire identifier. Required.
	Group wire.GroupID
	// Neighbors lists the adjacent groups' wire identifiers.
	Neighbors []wire.GroupID
	// Key authenticates summary frames. Default "cts-federation".
	Key []byte
	// ExchangeEvery is the cadence the caller drives ExchangeTick at; the
	// agent uses it to derive the honest slack aging rate. Default
	// DefaultExchangeEvery.
	ExchangeEvery time.Duration
	// MaxStep bounds the forward nudge of one federated round
	// (bounded influence). Default DefaultMaxStep.
	MaxStep time.Duration
	// Precision is the inter-group transit uncertainty: how stale a summary
	// already is when it arrives. Added to every merge computation and slack
	// term. Default DefaultPrecision.
	Precision time.Duration
	// InitialSlack pads published bounds until the first exchange reaches a
	// neighbor; it must cover the worst plausible initial inter-group
	// offset. Default DefaultInitialSlack.
	InitialSlack time.Duration
	// Obs registers the agent's counters. Optional.
	Obs *obs.Recorder

	// agingPPM is the slack growth rate between federated rounds, derived
	// by Validate: MaxStep/ExchangeEvery (the neighbors' bounded nudge
	// rate) plus 200 ppm of mutual drift.
	agingPPM float64
}

// The exchange-plane tuning defaults, applied by Config.Validate to every
// zero field.
const (
	DefaultExchangeEvery = 50 * time.Millisecond
	DefaultMaxStep       = 500 * time.Microsecond
	DefaultPrecision     = time.Millisecond
	DefaultInitialSlack  = 10 * time.Millisecond
)

// Validate checks cfg and fills defaults.
func (c Config) Validate() (Config, error) {
	if c.Runtime == nil {
		return c, errors.New("federation: Config.Runtime is required")
	}
	if c.Service == nil {
		return c, errors.New("federation: Config.Service is required")
	}
	if c.Manager == nil {
		return c, errors.New("federation: Config.Manager is required")
	}
	if c.Clock == nil {
		return c, errors.New("federation: Config.Clock is required")
	}
	if c.Link == nil {
		return c, errors.New("federation: Config.Link is required")
	}
	if c.Group == 0 {
		return c, errors.New("federation: Config.Group is required")
	}
	for _, nb := range c.Neighbors {
		if nb == c.Group {
			return c, fmt.Errorf("federation: group %d lists itself as a neighbor", c.Group)
		}
	}
	if len(c.Key) == 0 {
		c.Key = []byte("cts-federation")
	}
	for _, d := range []struct {
		name string
		v    *time.Duration
		def  time.Duration
	}{
		{"ExchangeEvery", &c.ExchangeEvery, DefaultExchangeEvery},
		{"MaxStep", &c.MaxStep, DefaultMaxStep},
		{"Precision", &c.Precision, DefaultPrecision},
		{"InitialSlack", &c.InitialSlack, DefaultInitialSlack},
	} {
		if *d.v < 0 {
			return c, fmt.Errorf("federation: Config.%s must not be negative (got %v)", d.name, *d.v)
		}
		if *d.v == 0 {
			*d.v = d.def
		}
	}
	c.agingPPM = float64(c.MaxStep)/float64(c.ExchangeEvery)*1e6 + 200
	return c, nil
}

// neighborState is the latest authenticated summary from one neighbor group.
type neighborState struct {
	sum    wire.GroupSummary
	recvAt time.Duration // local physical clock at receipt
}

// senderKey identifies a summary sender for replay rejection.
type senderKey struct {
	group  wire.GroupID
	sender uint32
}

// Stats counts agent activity.
type Stats struct {
	SummariesSent uint64
	SummariesRecv uint64
	Rejected      uint64 // bad MAC, unknown group, or replayed sequence
	Proposals     uint64 // federated rounds proposed (nudging or re-anchoring)
	Nudges        uint64 // proposals with a positive nudge
}

// Agent is one group member's federation endpoint. All state is confined to
// the replica's runtime loop; Deliver and ExchangeTick are safe from any
// goroutine.
type Agent struct {
	cfg     Config
	peers   map[wire.GroupID]*neighborState
	lastSeq map[senderKey]uint64
	tick    uint64
	seq     uint64
	started time.Duration // physical clock at Start, for unheard-neighbor aging
	running bool
	stats   Stats
}

// New creates an agent and enables the time service's federation half.
func New(cfg Config) (*Agent, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	if err := cfg.Service.EnableFederation(core.FedConfig{
		InitialSlack: cfg.InitialSlack,
		AgingPPM:     cfg.agingPPM,
	}); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:     cfg,
		peers:   make(map[wire.GroupID]*neighborState, len(cfg.Neighbors)),
		lastSeq: make(map[senderKey]uint64),
	}
	cfg.Obs.Register(a)
	return a, nil
}

// Start arms the agent. Safe from any goroutine.
func (a *Agent) Start() {
	a.cfg.Runtime.Post(func() {
		if a.running {
			return
		}
		a.running = true
		a.started = a.cfg.Clock.Read()
	})
}

// Stop disarms the agent; subsequent ticks and deliveries are ignored. Safe
// from any goroutine.
func (a *Agent) Stop() {
	a.cfg.Runtime.Post(func() { a.running = false })
}

// ExchangeTick drives one exchange round. The caller invokes it every
// ExchangeEvery (internal/node wires it next to the lease refresh ticker).
// Safe from any goroutine.
func (a *Agent) ExchangeTick() {
	a.cfg.Runtime.Post(a.tickLoop)
}

// ExchangeEvery reports the effective exchange cadence, default applied.
func (a *Agent) ExchangeEvery() time.Duration { return a.cfg.ExchangeEvery }

// Deliver hands the agent a received summary frame. The frame is copied, so
// the caller may reuse its buffer. Safe from any goroutine.
func (a *Agent) Deliver(frame []byte) {
	buf := make([]byte, len(frame))
	copy(buf, frame)
	a.cfg.Runtime.Post(func() { a.deliverLoop(buf) })
}

// tickLoop is the loop half of ExchangeTick: rotate duty through the current
// view; the duty member reads the group lease, summarizes it to every
// neighbor, and evaluates the merge rule.
func (a *Agent) tickLoop() {
	if !a.running {
		return
	}
	a.tick++
	if len(a.cfg.Neighbors) == 0 || !a.cfg.Manager.Live() {
		return
	}
	n := len(a.cfg.Manager.Members())
	if n == 0 || !core.OnDuty(a.cfg.Manager.Rank(), n, a.tick, 1) {
		return
	}
	// Summaries carry the intra-group reading: the group clock and the
	// uncertainty of that clock alone. Quoting the full client-facing bound
	// (which folds this group's own inter-group slack) would inflate every
	// neighbor's view of us and the merge rule could never act.
	reading, ok := a.cfg.Service.LeaseReadIntra()
	if !ok {
		return // no valid lease to summarize; next duty member will retry
	}
	a.seq++
	frame := wire.MarshalGroupSummary(wire.GroupSummary{
		Group:      a.cfg.Group,
		Sender:     uint32(a.cfg.Manager.LocalNode()),
		Epoch:      reading.Epoch,
		Seq:        a.seq,
		GroupClock: reading.GroupClock,
		Bound:      reading.Bound,
	}, a.cfg.Key)
	for _, nb := range a.cfg.Neighbors {
		a.cfg.Link.Send(nb, frame)
		a.stats.SummariesSent++
	}
	a.evaluate(reading)
}

// evaluate applies the bounded-influence merge rule against the latest
// neighbor summaries and proposes one federated round: a forward nudge of at
// most MaxStep when some neighbor is confidently ahead, and a slack term
// covering how far ahead ANY neighbor may plausibly be — including unheard
// ones, which are assumed up to InitialSlack ahead and aging ever since.
func (a *Agent) evaluate(own core.LeaseReading) {
	now := a.cfg.Clock.Read()
	var nudge, slack time.Duration
	for _, nb := range a.cfg.Neighbors {
		ns, heard := a.peers[nb]
		if !heard {
			// Never heard from this neighbor: all we know is the initial
			// envelope, aged since the agent started.
			if high := a.cfg.InitialSlack + a.aging(now-a.started); high > slack {
				slack = high
			}
			continue
		}
		age := now - ns.recvAt
		if age < 0 {
			age = 0
		}
		// The neighbor's group clock advanced roughly in real time since the
		// summary was read; on top of its own bound and the transit
		// uncertainty, it may have pulled ahead by the aging rate (bounded
		// nudges plus drift).
		est := ns.sum.GroupClock + age
		if high := est + ns.sum.Bound + a.cfg.Precision + a.aging(age) - own.GroupClock; high > slack {
			slack = high
		}
		// Nudge only toward a neighbor that is ahead even under the most
		// pessimistic reading of its summary — bounded influence means never
		// overshooting, so convergence cannot oscillate.
		if low := est - ns.sum.Bound - a.cfg.Precision - own.GroupClock; low > nudge {
			nudge = low
		}
	}
	if nudge > a.cfg.MaxStep {
		nudge = a.cfg.MaxStep
	}
	if slack < 0 {
		slack = 0
	}
	if nudge > 0 {
		a.stats.Nudges++
	}
	a.stats.Proposals++
	a.cfg.Service.ProposeFederated(nudge, slack)
}

// aging converts an elapsed local duration into slack growth.
func (a *Agent) aging(elapsed time.Duration) time.Duration {
	if elapsed <= 0 {
		return 0
	}
	return time.Duration(float64(elapsed) * a.cfg.agingPPM / 1e6)
}

// deliverLoop is the loop half of Deliver: authenticate, filter, and retain
// the summary.
func (a *Agent) deliverLoop(frame []byte) {
	if !a.running {
		return
	}
	sum, err := wire.UnmarshalGroupSummary(frame, a.cfg.Key)
	if err != nil {
		a.stats.Rejected++
		return
	}
	if !a.isNeighbor(sum.Group) {
		a.stats.Rejected++
		return
	}
	key := senderKey{group: sum.Group, sender: sum.Sender}
	if last, ok := a.lastSeq[key]; ok && sum.Seq <= last {
		a.stats.Rejected++ // replayed or reordered duplicate
		return
	}
	a.lastSeq[key] = sum.Seq
	ns, ok := a.peers[sum.Group]
	if !ok {
		ns = &neighborState{}
		a.peers[sum.Group] = ns
	}
	ns.sum = sum
	ns.recvAt = a.cfg.Clock.Read()
	a.stats.SummariesRecv++
}

func (a *Agent) isNeighbor(g wire.GroupID) bool {
	for _, nb := range a.cfg.Neighbors {
		if nb == g {
			return true
		}
	}
	return false
}

// ObsSamples implements obs.Source under the canonical fed.* names.
// Loop-only.
func (a *Agent) ObsSamples() []obs.Sample {
	id := uint32(a.cfg.Manager.LocalNode())
	return []obs.Sample{
		{Node: id, Name: "fed.summaries_sent", Value: a.stats.SummariesSent},
		{Node: id, Name: "fed.summaries_recv", Value: a.stats.SummariesRecv},
		{Node: id, Name: "fed.rejected", Value: a.stats.Rejected},
		{Node: id, Name: "fed.proposals", Value: a.stats.Proposals},
		{Node: id, Name: "fed.nudges", Value: a.stats.Nudges},
	}
}
