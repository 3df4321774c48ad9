package gcs

import (
	"math/rand"
	"slices"
	"testing"

	"cts/internal/order"
	"cts/internal/transport"
	"cts/internal/wire"
)

// The tests below check the group-list exchange that follows an ordering
// view that gained a processor (DESIGN §6) over several hand-built stacks,
// each on the stub orderer; pump plays the total order between them.

// pump delivers what the rigs broadcast, in one total order, until none has
// anything left to send: each envelope goes to every rig to(from) returns.
// The next sender is the first rig with something queued, or a random one
// when rng is non-nil; each sender's envelopes keep their order.
func pump(rigs []*tableRig, to func(from *tableRig) []*tableRig, rng *rand.Rand) {
	for {
		var ready []*tableRig
		for _, r := range rigs {
			r.flush()
			if len(r.ord.sent) > 0 {
				ready = append(ready, r)
			}
		}
		if len(ready) == 0 {
			return
		}
		from := ready[0]
		if rng != nil {
			from = ready[rng.Intn(len(ready))]
		}
		env := from.ord.sent[0]
		from.ord.sent = from.ord.sent[1:]
		for _, r := range to(from) {
			r.s.onDeliver(order.Delivery{Sender: from.ord.me, Payload: env})
			r.flush()
		}
	}
}

func testView(epoch uint64, members ...transport.NodeID) order.View {
	return order.View{ID: order.ViewID{Epoch: epoch, Rep: members[0]}, Members: members, Primary: true}
}

// TestPrunedProcessorAnswersRejoin: p goes V → W (without q) → V′ while q
// goes straight from V to V′, so q's view never gains anyone and q sends
// nothing of its own. p's rejoin in V′ must make q answer, or p's table
// would never list q again. p sends a rejoin whether it is V′'s
// representative (it kept nobody else) or q is (W lacked q).
func TestPrunedProcessorAnswersRejoin(t *testing.T) {
	t.Run("p is rep", func(t *testing.T) { testPrunedProcessorAnswers(t, 0, 1) })
	t.Run("q is rep", func(t *testing.T) { testPrunedProcessorAnswers(t, 1, 0) })
}

func testPrunedProcessorAnswers(t *testing.T, p, q transport.NodeID) {
	const g = wire.GroupID(7)
	rp, rq := newTableRig(p), newTableRig(q)
	rigs := []*tableRig{rp, rq}
	all := func(*tableRig) []*tableRig { return rigs }
	both := []transport.NodeID{min(p, q), max(p, q)}
	for _, r := range rigs {
		r.s.onOrderView(testView(1, both...))
		if _, err := r.s.Join(g, func(wire.Message, Meta) {}, nil); err != nil {
			t.Fatal(err)
		}
	}
	pump(rigs, all, nil)
	if got := rp.s.table(g).members; !slices.Equal(got, both) {
		t.Fatalf("after V, p's table lists %v, want %v", got, both)
	}

	rp.s.onOrderView(testView(2, p))
	if len(rp.ord.sent) != 0 {
		t.Fatalf("a view that only shrank sent %d envelopes", len(rp.ord.sent))
	}
	pump(rigs, all, nil)
	if got := rp.s.table(g).members; !slices.Equal(got, []transport.NodeID{p}) {
		t.Fatalf("in W, p's table lists %v, want [p]", got)
	}

	for _, r := range rigs {
		r.s.onOrderView(testView(3, both...))
	}
	if len(rq.ord.sent) != 0 {
		t.Fatalf("q's view did not grow, yet q sent %d envelopes before hearing p", len(rq.ord.sent))
	}
	if len(rp.ord.sent) != 1 || rp.ord.sent[0][0] != envRejoin {
		t.Fatalf("p sent %d envelopes, want one rejoin", len(rp.ord.sent))
	}
	pump(rigs, all, nil)
	if got := rp.s.table(g).members; !slices.Equal(got, both) {
		t.Fatalf("in V′, p's table lists %v, want %v", got, both)
	}
	if rq.s.stats.AnnounceAnswered != 1 || rp.s.stats.AnnounceAnswered != 0 {
		t.Fatalf("answers: q %d, p %d; want 1 and 0", rq.s.stats.AnnounceAnswered, rp.s.stats.AnnounceAnswered)
	}
}

// TestDumpForAnotherViewChangesNothing: a dump delivered in a view other
// than the one it names edits no table, marks no list as held and draws no
// answer.
func TestDumpForAnotherViewChangesNothing(t *testing.T) {
	const g = wire.GroupID(7)
	rep, x := newTableRig(0), newTableRig(1)
	rigs := []*tableRig{rep, x, newTableRig(2)}
	all := func(*tableRig) []*tableRig { return rigs }
	for _, r := range rigs {
		r.s.onOrderView(testView(1, 0, 1, 2))
		if _, err := r.s.Join(g, func(wire.Message, Meta) {}, nil); err != nil {
			t.Fatal(err)
		}
	}
	pump(rigs, all, nil)
	// Stack 3 arrives: rep kept 1 and 2, so it dumps the three lists.
	rep.s.onOrderView(testView(2, 0, 1, 2, 3))
	if len(rep.ord.sent) != 1 || rep.ord.sent[0][0] != envDump {
		t.Fatalf("rep sent %d envelopes, want one dump", len(rep.ord.sent))
	}
	dump := rep.ord.sent[0]
	// x is in another view, which has pruned 2 and gained 3; the dump
	// names view 2, so x must ignore it, neither learning 2's list nor
	// answering.
	x.s.onOrderView(testView(3, 0, 1, 3))
	x.ord.sent = nil
	x.flush()
	tables, known := slices.Clone(x.s.table(g).members), slices.Clone(x.s.known)
	x.s.onDeliver(order.Delivery{Sender: 0, Payload: dump})
	x.flush()
	if got := x.s.table(g).members; !slices.Equal(got, tables) {
		t.Fatalf("a dump for another view changed the table to %v, was %v", got, tables)
	}
	if !slices.Equal(x.s.known, known) || len(x.ord.sent) != 0 {
		t.Fatalf("a dump for another view changed known %v → %v or drew %d answers",
			known, x.s.known, len(x.ord.sent))
	}
	// Delivered in the view it names, to a silent gainer it lists, the same
	// dump draws no answer.
	y := rigs[2]
	y.s.onOrderView(testView(2, 0, 1, 2, 3))
	y.ord.sent = nil
	y.s.onDeliver(order.Delivery{Sender: 0, Payload: dump})
	if y.s.stats.AnnounceDelivered == 0 || len(y.ord.sent) != 0 {
		t.Fatalf("a silent gainer listed in the dump answered it (%d envelopes)", len(y.ord.sent))
	}
}

// TestExchangeKeepsTablesExact drives six stacks over the stub orderer
// through random view-synchronous histories: components split and merge,
// stacks crash (Stop) and restart (Start) into a component, a merged view's
// rep crashes before its dump is ordered, and Join/Leave is issued right
// after a view installs, so its announce races the view's dump. Whenever
// the traffic has settled, every live stack's table of each group must list
// exactly the members of its component hosting that group.
func TestExchangeKeepsTablesExact(t *testing.T) {
	const n = 6
	pool := []wire.GroupID{7, 8, 9}
	var dumps, answers uint64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rigs := make([]*tableRig, n)
		live := make([]bool, n)
		comp := make([]int, n) // component label of each live stack
		joined := make([]map[wire.GroupID]*Group, n)
		for i := range rigs {
			rigs[i] = newTableRig(transport.NodeID(i))
			live[i] = true
			joined[i] = make(map[wire.GroupID]*Group)
		}
		componentOf := func(label int) []*tableRig {
			var out []*tableRig
			for i, r := range rigs {
				if live[i] && comp[i] == label {
					out = append(out, r)
				}
			}
			return out
		}
		epoch := uint64(0)
		install := func(label int) {
			rs := componentOf(label)
			if len(rs) == 0 {
				return
			}
			epoch++
			members := make([]transport.NodeID, len(rs))
			for i, r := range rs {
				members[i] = r.s.me
			}
			v := testView(epoch, members...)
			for _, r := range rs {
				r.s.onOrderView(v)
			}
		}
		nextLabel := 1
		install(0)

		for step := 0; step < 200; step++ {
			var labels []int
			for i := range rigs {
				if live[i] && !slices.Contains(labels, comp[i]) {
					labels = append(labels, comp[i])
				}
			}
			switch rng.Intn(6) {
			case 0: // a component splits
				if len(labels) == 0 {
					break
				}
				l := labels[rng.Intn(len(labels))]
				if rs := componentOf(l); len(rs) > 1 {
					for _, r := range rs[1:] {
						if rng.Intn(2) == 0 {
							comp[r.s.me] = nextLabel
						}
					}
					nextLabel++
					install(l)
					install(nextLabel - 1)
				}
			case 1: // two components merge
				if len(labels) > 1 {
					a, b := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
					if a != b {
						for i := range comp {
							if comp[i] == b {
								comp[i] = a
							}
						}
						install(a)
					}
				}
			case 2: // a stack crashes
				if i := rng.Intn(n); live[i] {
					rigs[i].s.Stop()
					rigs[i].flush()
					live[i] = false
					install(comp[i])
				}
			case 3: // a crashed stack restarts into a component, or alone
				if i := rng.Intn(n); !live[i] {
					rigs[i].s.Start()
					live[i] = true
					if len(labels) > 0 && rng.Intn(3) > 0 {
						comp[i] = labels[rng.Intn(len(labels))]
					} else {
						comp[i] = nextLabel
						nextLabel++
					}
					install(comp[i])
				}
			case 4: // two components merge, and the new view's rep crashes
				// before anything it sent is ordered; the others' traffic
				// is delivered in the merged view, then the view shrinks.
				if len(labels) > 1 {
					a, b := labels[0], labels[1+rng.Intn(len(labels)-1)]
					for i := range comp {
						if comp[i] == b {
							comp[i] = a
						}
					}
					install(a)
					rep := componentOf(a)[0]
					rep.ord.sent = nil
					rep.s.Stop()
					rep.flush()
					live[rep.s.me] = false
					pump(rigs, func(from *tableRig) []*tableRig { return componentOf(comp[from.s.me]) }, rng)
					install(a)
				}
			}
			// Join/Leave between the view and the delivery of its dump.
			for k := rng.Intn(3); k > 0; k-- {
				i := rng.Intn(n)
				if !live[i] {
					continue
				}
				g := pool[rng.Intn(len(pool))]
				if grp := joined[i][g]; grp != nil {
					grp.Leave()
					delete(joined[i], g)
				} else {
					grp, err := rigs[i].s.Join(g, func(wire.Message, Meta) {}, nil)
					if err != nil {
						t.Fatal(err)
					}
					joined[i][g] = grp
				}
			}
			pump(rigs, func(from *tableRig) []*tableRig { return componentOf(comp[from.s.me]) }, rng)

			for i, r := range rigs {
				if !live[i] {
					continue
				}
				for _, g := range pool {
					var want []transport.NodeID
					for _, m := range componentOf(comp[i]) {
						if joined[m.s.me][g] != nil {
							want = append(want, m.s.me)
						}
					}
					if got := r.s.table(g).members; !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: stack %d lists %v in group %d, want %v (view %v)",
							seed, step, i, got, g, want, r.s.ordView.Members)
					}
				}
			}
		}
		for _, r := range rigs {
			dumps += r.s.stats.DumpsSent
			answers += r.s.stats.AnnounceAnswered
		}
	}
	if dumps == 0 || answers == 0 {
		t.Fatalf("the histories sent %d dumps and %d answers; they do not exercise the exchange", dumps, answers)
	}
}
