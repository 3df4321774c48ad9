package totem

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/sim"
	"cts/internal/transport"
)

// visitProbe stands in for one node's runtime and transport. It brackets
// every event the node runs, so that a callback can tell whether it runs
// inside a token visit, and it records the token the node hands to its
// transport during the current event.
type visitProbe struct {
	sim.Runtime
	transport.Transport
	t *testing.T
	n *Node

	// visit is the incoming token of the visit the current event runs, nil
	// outside a visit; forwarded is the token handed to the transport in the
	// current event.
	visit, forwarded *Token
	gcBefore         uint64
	// lastRing/lastAru are the ring and aru of the previous incoming token,
	// the second half of the discard rule's evidence.
	lastRing RingID
	lastAru  uint64

	visits, deliveriesInVisit, viewsInVisit int
}

func (p *visitProbe) Post(fn func()) { p.Runtime.Post(p.bracket(fn)) }

func (p *visitProbe) After(d time.Duration, fn func()) sim.Canceler {
	return p.Runtime.After(d, p.bracket(fn))
}

func (p *visitProbe) bracket(fn func()) func() {
	return func() {
		p.visit, p.forwarded = nil, nil
		fn()
		if p.visit != nil {
			p.endVisit()
		}
		p.visit, p.forwarded = nil, nil
	}
}

func (p *visitProbe) Send(to transport.NodeID, pkt []byte) error {
	if len(pkt) > 0 && pkt[0] == pktToken {
		tk, err := decodeToken(pkt[1:])
		if err != nil {
			p.t.Fatalf("%v sent an undecodable token: %v", p.n.me, err)
		}
		p.forwarded = tk
	}
	return p.Transport.Send(to, pkt)
}

// onToken runs as Config.OnToken, at the start of a visit.
func (p *visitProbe) onToken(tk Token) {
	p.visits++
	p.visit = &tk
	p.gcBefore = p.n.gcPoint
}

// checkForwarded is called from a Deliver or OnView callback: inside a
// visit, the token must already be on its way to the successor.
func (p *visitProbe) checkForwarded(what string) {
	if p.visit == nil {
		return
	}
	if p.forwarded == nil {
		p.t.Fatalf("%v: %s during token visit %d before the token was forwarded", p.n.me, what, p.visit.TokenSeq)
	}
	if p.forwarded.Ring != p.visit.Ring || p.forwarded.TokenSeq != p.visit.TokenSeq+1 {
		p.t.Fatalf("%v: %s during visit %v/%d, but the token handed over is %v/%d",
			p.n.me, what, p.visit.Ring, p.visit.TokenSeq, p.forwarded.Ring, p.forwarded.TokenSeq)
	}
}

// endVisit checks the discard point against the rule applied after delivery,
// as it was when delivery preceded the forward: min(delivered, this visit's
// incoming aru, the previous visit's), on an operational ring only.
func (p *visitProbe) endVisit() {
	prev := uint64(0)
	if p.lastRing == p.visit.Ring {
		prev = p.lastAru
	}
	p.lastRing, p.lastAru = p.visit.Ring, p.visit.Aru
	want := p.gcBefore
	if p.n.state == stateOperational {
		if lim := minU64(p.n.delivered, minU64(p.visit.Aru, prev)); lim > want {
			want = lim
		}
	}
	if p.n.gcPoint != want {
		p.t.Fatalf("%v: discard point %d after visit %v/%d, want %d",
			p.n.me, p.n.gcPoint, p.visit.Ring, p.visit.TokenSeq, want)
	}
}

// TestTokenForwardedBeforeDelivery: a token visit hands the token to the
// transport before it delivers anything, including the visit that completes
// recovery (whose view must follow a token of the new ring), and the discard
// point after every visit is the one delivery-then-forward gave.
func TestTokenForwardedBeforeDelivery(t *testing.T) {
	h := newHarness(t, 35, nil)
	ids := nodeIDs(4)
	probes := make(map[transport.NodeID]*visitProbe)
	for _, id := range ids {
		p := &visitProbe{Runtime: h.k, Transport: h.net.Endpoint(id), t: t}
		probes[id] = p
		p.n = h.addNode(id, ids, true, func(c *Config) {
			c.Runtime, c.Transport = p, p
			c.OnToken = p.onToken
			deliver, onView := c.Deliver, c.OnView
			c.Deliver = func(d Delivery) {
				p.checkForwarded("delivery")
				if p.visit != nil {
					p.deliveriesInVisit++
				}
				deliver(d)
			}
			c.OnView = func(v View) {
				p.checkForwarded("view")
				if p.visit != nil {
					if v.Ring != p.visit.Ring {
						t.Fatalf("%v: view of %v emitted during a visit of %v", p.n.me, v.Ring, p.visit.Ring)
					}
					p.viewsInVisit++
				}
				onView(v)
			}
		})
	}
	h.startAll()

	// Every node keeps a mix of safe and agreed messages queued.
	const perNode = 300
	for i, id := range ids {
		i, n, sent := i, h.nodes[id], 0
		var pump func()
		pump = func() {
			for len(n.sendq) < DefaultMaxMessagesPerToken && sent < perNode && n.state != stateStopped {
				n.BroadcastCancelable([]byte(fmt.Sprintf("n%d-m%d", i, sent)), sent%2 == 0, 0)
				sent++
			}
			if sent < perNode && n.state != stateStopped {
				h.k.After(100*time.Microsecond, pump)
			}
		}
		h.k.Post(pump)
	}
	if !h.runUntil(time.Second, func() bool { return len(h.deliveries[0]) >= 200 }) {
		t.Fatalf("ring delivered only %d messages", len(h.deliveries[0]))
	}

	// Crash node 3: the survivors form a new ring and recover.
	h.k.Post(func() {
		h.nodes[3].Stop()
		h.net.Endpoint(3).SetDown(true)
	})
	survivors := ids[:3]
	if !h.runUntil(2*time.Second, func() bool {
		for _, id := range survivors {
			vs := h.views[id]
			if len(vs) < 2 || len(vs[len(vs)-1].Members) != 3 || len(h.deliveries[id]) < 3*perNode {
				return false
			}
		}
		return true
	}) {
		for _, id := range survivors {
			t.Logf("%v: %d deliveries, %d views", id, len(h.deliveries[id]), len(h.views[id]))
		}
		t.Fatal("survivors did not re-form the ring and deliver their messages")
	}
	h.checkPrefixConsistency(survivors...)

	var visits, deliveries, views int
	for _, id := range survivors {
		visits += probes[id].visits
		deliveries += probes[id].deliveriesInVisit
		views += probes[id].viewsInVisit
	}
	if visits == 0 || deliveries == 0 {
		t.Fatalf("%d visits delivered %d messages; the test exercises nothing", visits, deliveries)
	}
	if views == 0 {
		t.Fatal("no survivor completed recovery inside a token visit; the test exercises nothing")
	}
}
