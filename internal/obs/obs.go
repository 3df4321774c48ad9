// Package obs is the unified observability layer of the stack: structured
// trace events that follow one CCS round across every protocol layer
// (read_start → proposal_queued → ccs_sent → first_ordered → adopted →
// read_done, with token-circulation and safe-delivery-wait sub-spans from
// the ordering layer), plus a metrics registry that gathers every layer's
// counters under one canonical naming scheme (core.*, gcs.*, repl.*, rpc.*,
// and per-orderer totem.*, seq.*, instant.*).
//
// The central handle is the Recorder. A nil *Recorder is a valid, fully
// disabled recorder: every method is a no-op behind a single nil check, so
// instrumented hot paths (the token loop, the CCS round machinery) pay
// nothing when observability is off — the Figure 5 latency numbers are
// unchanged. The package depends only on the standard library and
// internal/stats.
package obs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"cts/internal/stats"
)

// Scope names stamped into trace events, one per instrumented layer. Each
// orderer that traces gets its own scope (ScopeTotem, ScopeSeq), so traces
// identify which ordering protocol produced them.
const (
	ScopeCore  = "core"
	ScopeTotem = "totem"
	ScopeSeq   = "seq"
)

// Round lifecycle events emitted by the consistent time service (ScopeCore).
// A round initiated at a replica emits them in RoundLifecycle order; rounds
// satisfied by an already-delivered CCS message replace the middle of the
// span with EvFromBuffer.
const (
	// EvReadStart marks a logical thread entering get_grp_clock_time; Value
	// carries the local clock value the replica is about to propose.
	EvReadStart = "read_start"
	// EvProposalQueued marks the decision to compete in the round.
	EvProposalQueued = "proposal_queued"
	// EvCCSSent marks the CCS proposal's acceptance into the totally-ordered
	// send path (it reaches the wire at the next token visit).
	EvCCSSent = "ccs_sent"
	// EvCCSSuppressed marks a queued proposal withdrawn before reaching the
	// wire (another replica's message won the round).
	EvCCSSuppressed = "ccs_suppressed"
	// EvFromBuffer marks a round satisfied from the input buffer without
	// sending (the message was delivered before the thread asked).
	EvFromBuffer = "from_buffer"
	// EvFirstOrdered marks the delivery of the round's first CCS message —
	// the moment the group clock value is decided. Value carries the decided
	// value; Attr names the winning sender.
	EvFirstOrdered = "first_ordered"
	// EvAdopted marks this replica re-deriving its offset from the decided
	// value; Value carries the adopted group clock value.
	EvAdopted = "adopted"
	// EvReadDone marks the blocked thread resuming with the group clock.
	EvReadDone = "read_done"
	// EvLeaseInvalidated marks the lease plane discarding its snapshot on a
	// membership change; Round carries the new lease epoch and Value the new
	// view size.
	EvLeaseInvalidated = "lease_invalidated"
	// EvBatchSent marks a CCS-batch message entering the totally-ordered send
	// path, carrying proposals for several coalesced rounds. Round carries the
	// sender-local batch id (the b<id> attr on the member rounds' ccs_sent and
	// first_ordered events) and Value the number of entries.
	EvBatchSent = "ccs_batch_sent"
)

// Sub-span events emitted by the ordering layer (ScopeTotem for the ring,
// ScopeSeq for the leader sequencer). Round carries the token sequence
// number (EvTokenRecv, totem only) or the message sequence number (safe
// wait pair); the time between EvSafeWait and EvSafeDelivered for one
// sequence number is the safe-delivery wait the paper attributes its ≈300µs
// overhead to.
const (
	EvTokenRecv     = "token_recv"
	EvSafeWait      = "safe_wait"
	EvSafeDelivered = "safe_delivered"
)

// RoundLifecycle is the ordered event sequence of a complete competed round
// at the replica that initiated it.
var RoundLifecycle = []string{
	EvReadStart, EvProposalQueued, EvCCSSent, EvFirstOrdered, EvAdopted, EvReadDone,
}

// Event is one structured trace event. Events are self-describing and
// flat — no maps, no nesting — so emission is one struct copy and JSON-lines
// export round-trips losslessly.
type Event struct {
	// T is the recorder clock's reading at emission (virtual time in
	// simulation, time since start for real deployments).
	T time.Duration `json:"t"`
	// Node is the emitting processor's transport identity.
	Node uint32 `json:"node"`
	// Scope names the emitting layer (ScopeCore, ScopeTotem, ...).
	Scope string `json:"scope"`
	// Name is the event name (EvReadStart, EvTokenRecv, ...).
	Name string `json:"event"`
	// Thread is the logical thread of the round, when applicable.
	Thread uint64 `json:"thread,omitempty"`
	// Round is the round number (ScopeCore), token sequence (EvTokenRecv)
	// or message sequence (safe-wait pair).
	Round uint64 `json:"round,omitempty"`
	// Value is an event-specific payload, typically a clock value in
	// nanoseconds.
	Value int64 `json:"value,omitempty"`
	// Attr is an event-specific tag (the winning sender, "special", ...).
	Attr string `json:"attr,omitempty"`
}

// Config configures a Recorder.
type Config struct {
	// Node is the transport identity stamped into emitted events. Child
	// recorders for other nodes are derived with ForNode.
	Node uint32
	// Now supplies event timestamps. Defaults to time since New.
	Now func() time.Duration
	// Sink receives trace events. A nil Sink disables tracing; the metrics
	// registry still works.
	Sink TraceSink
}

// Validate checks cfg and fills defaults, returning the effective config.
func (c Config) Validate() (Config, error) {
	if c.Now == nil {
		start := time.Now()
		c.Now = func() time.Duration { return time.Since(start) }
	}
	return c, nil
}

// recorderCore is the state shared by a Recorder and its ForNode children.
type recorderCore struct {
	now  func() time.Duration
	sink TraceSink
	reg  Registry

	mu    sync.Mutex
	hists map[string]*stats.Durations
}

// Recorder is the observability handle plumbed through the stack. A nil
// *Recorder is valid and fully disabled: every method no-ops. Recorders for
// the other nodes of an in-process deployment share sinks and registry via
// ForNode.
type Recorder struct {
	node uint32
	core *recorderCore
}

// New creates a recorder.
func New(cfg Config) (*Recorder, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Recorder{
		node: cfg.Node,
		core: &recorderCore{
			now:   cfg.Now,
			sink:  cfg.Sink,
			hists: make(map[string]*stats.Durations),
		},
	}, nil
}

// ForNode derives a recorder stamping events and registrations with the
// given node identity, sharing the sink, registry, clock and histograms.
// ForNode of a nil recorder is nil.
func (r *Recorder) ForNode(node uint32) *Recorder {
	if r == nil {
		return nil
	}
	return &Recorder{node: node, core: r.core}
}

// Node reports the identity stamped into this recorder's events.
func (r *Recorder) Node() uint32 {
	if r == nil {
		return 0
	}
	return r.node
}

// Tracing reports whether trace events are being consumed. Instrumentation
// with non-trivial argument preparation can use it as a cheap guard.
func (r *Recorder) Tracing() bool {
	return r != nil && r.core.sink != nil
}

// Trace emits one trace event. It is safe on a nil recorder and from any
// goroutine; sinks serialize internally.
func (r *Recorder) Trace(scope, event string, thread, round uint64, value int64, attr string) {
	if r == nil {
		return
	}
	sink := r.core.sink
	if sink == nil {
		return
	}
	sink.Emit(Event{
		T:      r.core.now(),
		Node:   r.node,
		Scope:  scope,
		Name:   event,
		Thread: thread,
		Round:  round,
		Value:  value,
		Attr:   attr,
	})
}

// Observe records one duration observation into the named histogram
// (e.g. "rpc.invoke_latency"). Safe on a nil recorder and concurrently.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	c := r.core
	c.mu.Lock()
	h := c.hists[name]
	if h == nil {
		h = &stats.Durations{}
		c.hists[name] = h
	}
	h.Add(d)
	c.mu.Unlock()
}

// HistogramNames lists the histograms recorded so far, sorted.
func (r *Recorder) HistogramNames() []string {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.Lock()
	names := make([]string, 0, len(c.hists))
	for n := range c.hists {
		names = append(names, n)
	}
	c.mu.Unlock()
	sort.Strings(names)
	return names
}

// Histogram returns a copy of the named duration histogram, or nil if no
// observation has been recorded under that name.
func (r *Recorder) Histogram(name string) *stats.Durations {
	if r == nil {
		return nil
	}
	c := r.core
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.hists[name]
	if h == nil {
		return nil
	}
	cp := &stats.Durations{}
	for _, v := range h.Values() {
		cp.Add(v)
	}
	return cp
}

// Register adds a metrics source to the recorder's registry. Safe on a nil
// recorder (the registration is dropped).
func (r *Recorder) Register(s Source) {
	if r == nil || s == nil {
		return
	}
	r.core.reg.Register(s)
}

// Samples gathers every registered source. Sources expose loop-confined
// counters, so Samples must run on (or posted to) the runtime loop the
// sources live on — exactly like the per-package snapshot methods it
// replaces.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.core.reg.Gather()
}

// DumpMetrics writes a text metrics dump — every registered source's
// counters plus histogram summaries — to w. Loop-only, like Samples.
func (r *Recorder) DumpMetrics(w io.Writer) {
	if r == nil {
		return
	}
	for _, s := range r.Samples() {
		fmt.Fprintf(w, "node %-3d %-28s %d\n", s.Node, s.Name, s.Value)
	}
	for _, name := range r.HistogramNames() {
		fmt.Fprintf(w, "hist     %-28s %s\n", name, r.Histogram(name).Summary())
	}
}

// VerifyRound checks that evs contains, in emission order, the complete
// RoundLifecycle for the given (node, thread, round) and returns the
// matching events. Unrelated events interleave freely. It is the assertion
// behind the "complete round span" acceptance test and usable on decoded
// JSON-lines traces.
func VerifyRound(evs []Event, node uint32, thread, round uint64) ([]Event, error) {
	want := RoundLifecycle
	got := make([]Event, 0, len(want))
	i := 0
	for _, ev := range evs {
		if i >= len(want) {
			break
		}
		if ev.Scope != ScopeCore || ev.Node != node ||
			ev.Thread != thread || ev.Round != round {
			continue
		}
		if ev.Name == want[i] {
			got = append(got, ev)
			i++
		}
	}
	if i < len(want) {
		return got, fmt.Errorf(
			"obs: round (node %d, thread %d, round %d) incomplete: missing %q after %d/%d lifecycle events",
			node, thread, round, want[i], i, len(want))
	}
	return got, nil
}

// ErrNoSink is reported by sink constructors given a nil destination.
var ErrNoSink = errors.New("obs: nil destination")
