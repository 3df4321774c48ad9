// Package order defines the total-order multicast contract the consistent
// time service is built on, decoupling the layers above (gcs, core,
// replication) from any particular ordering protocol. The paper's CCS
// protocol (§2, §3) needs exactly three properties from its group
// communication substrate, and the Orderer interface captures them and
// nothing more:
//
//   - Total order: every member of a view delivers the same messages in the
//     same order; Delivery.TotalOrder increases by exactly 1 per delivery at
//     a node, and equal TotalOrder values at different nodes hold equal
//     messages.
//   - View synchrony: membership changes (View) are delivered at the same
//     point in the message stream at every member, before any message of the
//     new configuration, and views carry a primary-component flag so that
//     only a quorum keeps deciding rounds across a partition.
//   - Gap-freedom per sender: messages broadcast by one member are delivered
//     in broadcast order with no gaps, as long as the sender stays in the
//     component.
//
// Three implementations live in this package: the Totem single ring (the
// paper's protocol, totem*.go), a leader-sequencer for low-latency LAN groups
// (seq*.go), and a sim-instant orderer that totally orders in one simulated
// step for large simulation campaigns (instant.go). A table-driven
// conformance suite exercises all three under crash, partition and reorder
// faults.
package order

import (
	"errors"
	"fmt"
	"time"

	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/transport"
)

// ViewID identifies one membership configuration: a monotonically increasing
// epoch plus the representative (lowest-id member) that formed it. For the
// Totem orderer the epoch is the ring sequence number; for the leader
// sequencer it is the election epoch.
type ViewID struct {
	Epoch uint64
	Rep   transport.NodeID
}

// String implements fmt.Stringer.
func (v ViewID) String() string { return fmt.Sprintf("view(%d,%v)", v.Epoch, v.Rep) }

// Less orders view identifiers.
func (v ViewID) Less(o ViewID) bool {
	if v.Epoch != o.Epoch {
		return v.Epoch < o.Epoch
	}
	return v.Rep < o.Rep
}

// Delivery is a message handed to the application in total order.
type Delivery struct {
	// TotalOrder increases by exactly 1 for every delivery at this node,
	// across view changes; equal TotalOrder values at different nodes of a
	// component hold equal messages.
	TotalOrder uint64
	// ViewID identifies the configuration the message was ordered in.
	ViewID ViewID
	// Seq is the message's protocol-level sequence number within ViewID
	// (implementation-specific; monotone but not necessarily dense).
	Seq    uint64
	Sender transport.NodeID
	// Payload is owned by the receiver once delivered.
	Payload []byte
}

// View is a membership change handed to the application before any message
// of the new configuration is delivered.
type View struct {
	ID ViewID
	// Members is sorted ascending with no repeats, and the receiver must not
	// modify it: every orderer builds it that way, the conformance suite
	// asserts it, and gcs prunes its group tables against it by merging.
	Members []transport.NodeID
	// Primary reports whether this component satisfies the quorum rule; only
	// primary components may decide new CCS rounds (§2 of the paper).
	Primary bool
}

// Orderer is one processor's endpoint of a total-order multicast protocol.
// All callbacks (Deliver, OnView) run on the configured runtime loop; state
// above the orderer may rely on that serialization.
//
// Per-sender order holds between two Broadcasts and between two
// BroadcastCancelables, but not across the kinds: Broadcast enqueues from a
// Post, while BroadcastCancelable enqueues at once, so a later cancelable
// broadcast can be ordered before an earlier plain one from the same sender.
type Orderer interface {
	// Start begins protocol activity. Safe from any goroutine.
	Start()
	// Stop halts the node: no further callbacks run after the posted stop
	// takes effect, and no timers remain armed. Safe from any goroutine.
	Stop()
	// Broadcast submits payload for totally-ordered delivery to every member
	// of the component (including the sender). Safe from any goroutine.
	Broadcast(payload []byte) error
	// BroadcastCancelable submits payload like Broadcast but returns a cancel
	// function reporting whether the message is guaranteed not to reach the
	// wire — the duplicate-suppression primitive behind CCS messages and
	// replica replies (§4.3 of the paper). When cancel reports true, no member
	// delivers the message; once it has reached the wire, cancel reports
	// false and the message is delivered as if never cancelled. A queued
	// message whose dupKey (logical identity, 0 = none) has already been
	// ordered is withdrawn automatically. When safe is true, delivery
	// additionally waits until every member of the view holds the message.
	// Must be called (and cancelled) on the runtime loop.
	BroadcastCancelable(payload []byte, safe bool, dupKey uint64) func() bool
	// LocalID reports the processor identity of this endpoint.
	LocalID() transport.NodeID
}

// Kind names an orderer implementation.
type Kind string

// Supported orderers.
const (
	// KindTotem is the Totem single-ring protocol (the paper's substrate).
	KindTotem Kind = "totem"
	// KindSeq is the leader-sequencer: the lowest member of the view
	// sequences proposals; an election epoch advances on leader timeout.
	KindSeq Kind = "seq"
	// KindInstant is the sim-instant orderer: a shared in-process hub totally
	// orders every broadcast in one simulated step. Simulation only.
	KindInstant Kind = "instant"
)

// ParseKind parses a user-supplied orderer name.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindTotem, KindSeq, KindInstant:
		return Kind(s), nil
	case "":
		return KindTotem, nil
	default:
		return "", fmt.Errorf("order: unknown orderer %q (want totem, seq or instant)", s)
	}
}

// Env is the wiring an orderer runs in, supplied by the layer above (gcs).
// It is deliberately separate from Options: Env fields are owned by the
// stack and never user-tunable, closing the old config hole where embedded
// protocol configs carried documented-as-ignored wiring fields.
type Env struct {
	// Runtime is the event loop the node runs on. Required.
	Runtime sim.Runtime
	// Transport carries the node's datagrams and supplies its identity.
	// Required. (The instant orderer moves messages through its in-process
	// hub and uses the transport only for LocalID.)
	Transport transport.Transport
	// Members is the initial membership, including the local node.
	Members []transport.NodeID
	// Bootstrap, when true, forms the initial configuration from Members
	// directly; when false the node joins whatever configuration its peers
	// have formed.
	Bootstrap bool
	// Deliver receives totally-ordered messages. Required.
	Deliver func(Delivery)
	// OnView receives membership changes. Optional.
	OnView func(View)
	// Obs receives per-orderer trace events and registers the node's
	// counters. Optional.
	Obs *obs.Recorder
}

func (e Env) validate(Kind) error {
	if e.Runtime == nil {
		return errors.New("order: Env.Runtime is required")
	}
	if e.Deliver == nil {
		return errors.New("order: Env.Deliver is required")
	}
	if e.Transport == nil {
		return errors.New("order: Env.Transport is required")
	}
	return nil
}

// TotemTuning is the protocol tuning of the Totem orderer. Zero values take
// the defaults in totem.go (calibrated for the simulated 100 Mb/s testbed).
type TotemTuning struct {
	TokenLossTimeout    time.Duration `json:"token_loss_timeout_ns,omitempty"`
	TokenRetransTimeout time.Duration `json:"token_retrans_timeout_ns,omitempty"`
	JoinTimeout         time.Duration `json:"join_timeout_ns,omitempty"`
	CommitTimeout       time.Duration `json:"commit_timeout_ns,omitempty"`
	// AnnounceInterval is how often a ring's representative broadcasts a
	// remerge beacon.
	AnnounceInterval time.Duration `json:"announce_interval_ns,omitempty"`
}

func (t TotemTuning) isZero() bool { return t == TotemTuning{} }

// SeqTuning is the protocol tuning of the leader-sequencer orderer. Zero
// values take defaults calibrated like the totem ones.
type SeqTuning struct {
	// HeartbeatInterval is how often the leader broadcasts a heartbeat
	// carrying the high and safe sequence numbers.
	HeartbeatInterval time.Duration `json:"heartbeat_interval_ns,omitempty"`
	// LeaderTimeout is how long a follower waits without leader traffic
	// before suspecting the leader and starting an election; the leader
	// applies the same bound to unresponsive followers before reforming the
	// view without them.
	LeaderTimeout time.Duration `json:"leader_timeout_ns,omitempty"`
	// ResendInterval paces proposal retransmission and gap nacks.
	ResendInterval time.Duration `json:"resend_interval_ns,omitempty"`
	// ElectionTimeout is how long a candidate collects election acks before
	// installing the new view.
	ElectionTimeout time.Duration `json:"election_timeout_ns,omitempty"`
}

func (t SeqTuning) isZero() bool { return t == SeqTuning{} }

// InstantTuning configures the sim-instant orderer.
type InstantTuning struct {
	// Hub is the shared in-process ordering point. Every node of the
	// simulated component must be constructed against the same hub and the
	// same runtime. Required for KindInstant.
	Hub *InstantHub
}

func (t InstantTuning) isZero() bool { return t.Hub == nil }

// Options is the public ordering-policy surface: which orderer to run and
// its tuning. The zero value selects Totem with default tuning. Tuning for
// an orderer other than the selected one is a validation error — not a
// silent no-op.
type Options struct {
	// Kind selects the implementation; empty means KindTotem.
	Kind Kind

	// Per-orderer tuning. Only the struct matching Kind may be non-zero.
	Totem   TotemTuning
	Seq     SeqTuning
	Instant InstantTuning
}

// Validate checks o and fills defaults, returning the effective options.
func (o Options) Validate() (Options, error) {
	if o.Kind == "" {
		o.Kind = KindTotem
	}
	switch o.Kind {
	case KindTotem, KindSeq, KindInstant:
	default:
		return o, fmt.Errorf("order: unknown orderer %q (want totem, seq or instant)", o.Kind)
	}
	if o.Kind != KindTotem && !o.Totem.isZero() {
		return o, fmt.Errorf("order: Totem tuning set but Kind is %q", o.Kind)
	}
	if o.Kind != KindSeq && !o.Seq.isZero() {
		return o, fmt.Errorf("order: Seq tuning set but Kind is %q", o.Kind)
	}
	if o.Kind != KindInstant && !o.Instant.isZero() {
		return o, fmt.Errorf("order: Instant tuning set but Kind is %q", o.Kind)
	}
	if o.Kind == KindInstant && o.Instant.Hub == nil {
		return o, errors.New("order: the instant orderer requires Options.Instant.Hub")
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"Totem.TokenLossTimeout", o.Totem.TokenLossTimeout},
		{"Totem.TokenRetransTimeout", o.Totem.TokenRetransTimeout},
		{"Totem.JoinTimeout", o.Totem.JoinTimeout},
		{"Totem.CommitTimeout", o.Totem.CommitTimeout},
		{"Totem.AnnounceInterval", o.Totem.AnnounceInterval},
		{"Seq.HeartbeatInterval", o.Seq.HeartbeatInterval},
		{"Seq.LeaderTimeout", o.Seq.LeaderTimeout},
		{"Seq.ResendInterval", o.Seq.ResendInterval},
		{"Seq.ElectionTimeout", o.Seq.ElectionTimeout},
	} {
		if d.v < 0 {
			return o, fmt.Errorf("order: Options.%s must not be negative (got %v)", d.name, d.v)
		}
	}
	return o, nil
}

// New creates an orderer of the selected kind. The node is passive until
// Start is called.
func New(env Env, opts Options) (Orderer, error) {
	opts, err := opts.Validate()
	if err != nil {
		return nil, err
	}
	if err := env.validate(opts.Kind); err != nil {
		return nil, err
	}
	switch opts.Kind {
	case KindTotem:
		return newTotemOrderer(env, opts)
	case KindSeq:
		return newSeqOrderer(env, opts)
	case KindInstant:
		return newInstantOrderer(env, opts)
	default:
		return nil, fmt.Errorf("order: unknown orderer %q", opts.Kind)
	}
}

// majority is the primary-component threshold: a strict majority of the
// initial members.
func majority(members int) int { return members/2 + 1 }

// defaultDur is v, or def when v is zero (Options.Validate has rejected
// negative durations).
func defaultDur(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

// cancelTimer cancels *t if armed and clears it.
func cancelTimer(t *sim.Canceler) {
	if *t != nil {
		(*t).Cancel()
		*t = nil
	}
}
