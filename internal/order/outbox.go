package order

import (
	"cts/internal/sim"
	"cts/internal/transport"
)

// This file holds the half of the Orderer contract that does not depend on
// the ordering protocol: the queue of pending broadcasts with its cancel
// function, the seen-key withdrawal rule and its key window (outbox,
// keyWindow), delivery numbering and the view hand-off (endpoint), and the
// transport receive hop (hop). Totem, seq and the instant hub each keep
// only their ordering protocol.

// pending is one broadcast submitted to an orderer and not yet ordered. Its
// fields are ordered so that it fits a 48-byte allocation.
type pending struct {
	payload []byte
	dupKey  uint64
	// local is seq's per-view proposal number, assigned at the proposal's
	// first send in a view (0 before).
	local uint64
	// sender is the submitting node: the instant hub queues every node's
	// broadcasts in one outbox.
	sender    transport.NodeID
	safe      bool
	sent      bool // reached the wire (or seq's local ordering path)
	cancelled bool // cancelled, withdrawn as seen, or retired once ordered
}

// newPending returns a broadcast of a copy of payload, which the caller may
// reuse once it returns.
func newPending(sender transport.NodeID, payload []byte, safe bool, dupKey uint64) *pending {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return &pending{payload: cp, safe: safe, dupKey: dupKey, sender: sender}
}

// cancel is the function BroadcastCancelable returns: it withdraws p unless
// p has reached the wire, and reports whether p is guaranteed not to.
func (p *pending) cancel() bool {
	if p.sent {
		return false
	}
	p.cancelled = true
	return true
}

// outbox is an orderer's queue of pending broadcasts, in submission order,
// and the window of dupKeys it has seen ordered.
type outbox struct {
	q    []*pending
	keys keyWindow
	// flush is the send step flushSoon posts (seq and the instant hub; Totem
	// drains the queue at its token visit instead).
	flush       func()
	flushQueued bool
}

// add queues p.
func (o *outbox) add(p *pending) { o.q = append(o.q, p) }

// flushSoon posts one flush step for the current loop instant, so that a
// cancel within the instant a broadcast was submitted withdraws it before
// it is sent.
func (o *outbox) flushSoon(rt sim.Runtime) {
	if !o.flushQueued {
		o.flushQueued = true
		rt.Post(func() {
			o.flushQueued = false
			o.flush()
		})
	}
}

// see records an ordered message's dupKey, in a window sized for a group of
// members members.
func (o *outbox) see(dupKey uint64, members int) { o.keys.Note(dupKey, keyGeneration(members)) }

// withdrawn reports whether queued p must not be sent: it was cancelled, or
// a message with its dupKey has already been ordered, in which case it is
// withdrawn here. A copy withdrawn before it reached the wire is counted in
// *suppressed, the sender's counter (the instant hub's one outbox serves
// every node); a seq proposal already sent is the leader's to refuse, and
// its count. This is the paper's infrastructure-level duplicate detection
// (§4.3): per CCS round every replica attempts to send one CCS message, yet
// only one reaches the network.
func (o *outbox) withdrawn(p *pending, suppressed *uint64) bool {
	if !p.cancelled && o.keys.Seen(p.dupKey) {
		p.cancelled = true
		if !p.sent {
			*suppressed++
		}
	}
	return p.cancelled
}

// sweep applies withdrawn to every queued broadcast and drops the withdrawn
// ones, keeping the rest in order.
func (o *outbox) sweep(suppressed *uint64) {
	out := o.q[:0]
	for _, p := range o.q {
		if !o.withdrawn(p, suppressed) {
			out = append(out, p)
		}
	}
	clear(o.q[len(out):])
	o.q = out
}

// maxMessagesPerToken bounds broadcasts per token visit (Totem's flow
// control). The seq and instant orderers size their duplicate-key windows
// from it too, so all three orderers' windows agree.
const maxMessagesPerToken = 16

// keyGeneration is the key-window generation for members members that each
// order up to maxMessagesPerToken broadcasts per visit: four visits' worth,
// so a duplicate, which is queued within a rotation or two of its original,
// still finds the original's key; floored at 4 096 for small groups.
func keyGeneration(members int) int {
	return max(4*maxMessagesPerToken*members, 4096)
}

// keyWindow is a bounded set of recent logical identities (dupKeys), for
// the duplicate suppression of §4.3. It keeps two generations and retires
// the older one when the current reaches the generation size, so it
// remembers at least that many of the most recent keys and at most twice as
// many. Forgetting an old key only costs a redundant send, which core's
// round tracking (a copy for a decided round is ignored) and the rpc
// client's invocation-id match (a call completes once) absorb. Key 0 means
// "no identity" and is never noted. The zero value is an empty window.
type keyWindow struct {
	cur, prev map[uint64]bool
}

// Seen reports whether k is in the window.
func (w *keyWindow) Seen(k uint64) bool { return k != 0 && (w.cur[k] || w.prev[k]) }

// Len is the number of keys held, at most twice the generation.
func (w *keyWindow) Len() int { return len(w.cur) + len(w.prev) }

// Note records k, retiring the older generation first if the current one
// holds generation keys.
func (w *keyWindow) Note(k uint64, generation int) {
	if k == 0 || w.cur[k] {
		return
	}
	if w.cur == nil || len(w.cur) >= generation {
		w.prev, w.cur = w.cur, make(map[uint64]bool)
	}
	w.cur[k] = true
}

// endpoint is the application side of one orderer node: its identity,
// delivery numbering and the view hand-off.
type endpoint struct {
	env Env
	me  transport.NodeID
	// totalOrder is the number of messages delivered here, and so the
	// TotalOrder of the last one; exported as <kind>.delivered.
	totalOrder uint64
}

// LocalID implements Orderer.
func (e *endpoint) LocalID() transport.NodeID { return e.me }

// deliver hands one totally-ordered message to the application.
func (e *endpoint) deliver(view ViewID, seq uint64, sender transport.NodeID, payload []byte) {
	e.totalOrder++
	e.env.Deliver(Delivery{
		TotalOrder: e.totalOrder,
		ViewID:     view,
		Seq:        seq,
		Sender:     sender,
		Payload:    payload,
	})
}

// emitView hands a membership view to the application, if it listens.
func (e *endpoint) emitView(v View) {
	if e.env.OnView != nil {
		e.env.OnView(v)
	}
}

// hop returns a transport receiver that copies each non-empty datagram and
// posts dispatch onto rt. Only simnet calls a receiver on the loop;
// udptransport calls it on its read goroutine, with a buffer it reuses.
func hop(rt sim.Runtime, dispatch func(from transport.NodeID, pkt []byte)) transport.Receiver {
	return func(from transport.NodeID, payload []byte) {
		if len(payload) == 0 {
			return
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		rt.Post(func() { dispatch(from, cp) })
	}
}
