package gcs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"cts/internal/order"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

// The membership tables are tested below the orderer: a Stack is built by
// hand over a stub orderer, and deliveries and ordering views are fed to
// onDeliver/onOrderView directly, so the sequences are exact and the tests
// cost microseconds. The two 1000-processor tests at the end run real stacks
// over an InstantHub.

// stubOrderer records what the stack broadcasts; the test decides what is
// delivered.
type stubOrderer struct {
	me   transport.NodeID
	sent [][]byte
}

func (o *stubOrderer) Start()                    {}
func (o *stubOrderer) Stop()                     {}
func (o *stubOrderer) LocalID() transport.NodeID { return o.me }
func (o *stubOrderer) Broadcast(p []byte) error {
	o.sent = append(o.sent, slices.Clone(p))
	return nil
}
func (o *stubOrderer) BroadcastCancelable([]byte, bool, uint64) func() bool {
	return func() bool { return false }
}

// tableRig is one hand-built stack and everything it emitted.
type tableRig struct {
	k       *sim.Kernel
	ord     *stubOrderer
	s       *Stack
	emitted []GroupView
}

func newTableRig(me transport.NodeID) *tableRig {
	r := &tableRig{k: sim.NewKernel(1), ord: &stubOrderer{me: me}}
	r.s = &Stack{rt: r.k, me: me, ord: r.ord, groups: make(map[wire.GroupID]*Group)}
	r.s.viewWatchers = []ViewHandler{func(v GroupView) { r.emitted = append(r.emitted, v) }}
	return r
}

func announceEnv(gids ...wire.GroupID) []byte {
	env := make([]byte, 1+4*len(gids))
	env[0] = envAnnounce
	for i, g := range gids {
		putGroupID(env[1+4*i:], g)
	}
	return env
}

func (r *tableRig) announce(from transport.NodeID, gids ...wire.GroupID) {
	r.s.onDeliver(order.Delivery{Sender: from, Payload: announceEnv(gids...)})
}

// flush ends the virtual instant: posted work (emission, Join/Leave) runs.
func (r *tableRig) flush() { r.k.RunFor(0) }

func nodeRange(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(i)
	}
	return out
}

// refTables is the bookkeeping gcs.Stack had before the sorted tables: a
// map of maps rewritten on every announce, and every group's member list
// rebuilt and sorted at every emission. It is the model the new tables must
// reproduce view for view.
type refTables struct {
	me         transport.NodeID
	groups     map[wire.GroupID]bool
	membership map[wire.GroupID]map[transport.NodeID]bool
	ordView    order.View
	lastViews  map[wire.GroupID]GroupView
	emitted    []GroupView
}

func newRefTables(me transport.NodeID) *refTables {
	return &refTables{
		me:         me,
		groups:     make(map[wire.GroupID]bool),
		membership: make(map[wire.GroupID]map[transport.NodeID]bool),
		lastViews:  make(map[wire.GroupID]GroupView),
	}
}

func (r *refTables) noteMember(g wire.GroupID, p transport.NodeID) {
	if r.membership[g] == nil {
		r.membership[g] = make(map[transport.NodeID]bool)
	}
	r.membership[g][p] = true
}

func (r *refTables) onOrderView(v order.View) {
	r.ordView = v
	in := make(map[transport.NodeID]bool, len(v.Members))
	for _, id := range v.Members {
		in[id] = true
	}
	for _, procs := range r.membership {
		for p := range procs {
			if !in[p] {
				delete(procs, p)
			}
		}
	}
	for id := range r.groups {
		r.noteMember(id, r.me)
	}
}

func (r *refTables) announce(from transport.NodeID, gids []wire.GroupID) {
	announced := make(map[wire.GroupID]bool, len(gids))
	for _, g := range gids {
		announced[g] = true
	}
	for g, procs := range r.membership {
		if procs[from] && !announced[g] {
			delete(procs, from)
		}
	}
	for g := range announced {
		r.noteMember(g, from)
	}
}

func (r *refTables) emitChangedViews() {
	gids := make([]wire.GroupID, 0, len(r.membership))
	for g := range r.membership {
		gids = append(gids, g)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		members := make([]transport.NodeID, 0, len(r.membership[gid]))
		for p := range r.membership[gid] {
			members = append(members, p)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		view := GroupView{Group: gid, Members: members,
			ViewID: r.ordView.ID, Primary: r.ordView.Primary}
		last, seen := r.lastViews[gid]
		if seen && last.ViewID == view.ViewID && last.Primary == view.Primary &&
			slices.Equal(last.Members, view.Members) {
			continue
		}
		r.lastViews[gid] = view
		r.emitted = append(r.emitted, view)
	}
}

// TestTablesMatchReferenceModel drives the stack and the reference with the
// same random instants — local Join/Leave, announces (empty, repeating and
// never-seen group sets, from members and strangers), re-announce waves in
// ascending, descending and shuffled sender order, ordering views that
// shrink, grow, repeat and flip Primary — and requires the same emitted
// sequence of (Group, Members, ViewID, Primary).
func TestTablesMatchReferenceModel(t *testing.T) {
	const me = transport.NodeID(3)
	universe := nodeRange(12)
	pool := []wire.GroupID{5, 10, 10, 20, 40, 41, 1 << 20} // 10 twice: repeats inside one announce
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rig, ref := newTableRig(me), newRefTables(me)
		joined := make(map[wire.GroupID]*Group)
		var joinedViews []GroupView // what the joined groups' own handlers saw
		epoch := uint64(0)
		view := order.View{}
		emptyViews := 0

		for instant := 0; instant < 300; instant++ {
			// Local membership changes first; their posted halves run now and
			// leave announces in the stub, delivered with the rest below.
			for n := rng.Intn(3); n > 0; n-- {
				g := pool[rng.Intn(4)]
				if grp := joined[g]; grp != nil {
					grp.Leave()
					delete(joined, g)
					delete(ref.groups, g)
				} else {
					grp, err := rig.s.Join(g, func(wire.Message, Meta) {},
						func(v GroupView) { joinedViews = append(joinedViews, v) })
					if err != nil {
						t.Fatal(err)
					}
					joined[g] = grp
					ref.groups[g] = true
				}
				rig.flush()
			}
			for n := rng.Intn(6); n > 0; n-- {
				switch r := rng.Intn(10); {
				case r < 2: // an ordering view
					switch rng.Intn(4) {
					case 0: // the same view again
					case 1: // same configuration, Primary flipped
						view.Primary = !view.Primary
					default:
						epoch++
						members := []transport.NodeID{me}
						for _, p := range universe {
							if p != me && rng.Intn(3) > 0 {
								members = append(members, p)
							}
						}
						slices.Sort(members)
						view = order.View{ID: order.ViewID{Epoch: epoch, Rep: members[0]},
							Members: members, Primary: rng.Intn(2) == 0}
					}
					// A view that holds a processor the previous one did not
					// makes the stack send at most one envelope, its rejoin or
					// its dump. Any other view sends nothing, except a rejoin
					// from a stack that lost a processor while it lacked some
					// member's list.
					prev := ref.ordView.Members
					old := make(map[transport.NodeID]bool)
					for _, p := range prev {
						old[p] = true
					}
					gained := slices.ContainsFunc(view.Members, func(p transport.NodeID) bool { return !old[p] })
					shrank := slices.ContainsFunc(prev, func(p transport.NodeID) bool {
						return !slices.Contains(view.Members, p)
					})
					sent := len(rig.ord.sent)
					rig.s.onOrderView(view)
					ref.onOrderView(view)
					fresh := rig.ord.sent[sent:]
					ok := len(fresh) == 0 || len(fresh) == 1 &&
						(fresh[0][0] == envRejoin && (gained || shrank) || fresh[0][0] == envDump && gained)
					if !ok {
						t.Fatalf("seed %d instant %d: view %v after %v (gained=%v shrank=%v) sent %d envelopes",
							seed, instant, view.Members, prev, gained, shrank, len(fresh))
					}
				case r < 4 && len(rig.ord.sent) > 0: // the stack's own announce comes back
					env := rig.ord.sent[0]
					rig.ord.sent = rig.ord.sent[1:]
					rig.s.onDeliver(order.Delivery{Sender: me, Payload: env})
					if env[0] == envDump {
						// The stack's own dump lists only what it holds, so
						// delivering it back changes no table.
						break
					}
					gids := make([]wire.GroupID, 0, len(env)/4)
					for off := 1; off < len(env); off += 4 {
						gids = append(gids, getGroupID(env[off:]))
					}
					ref.announce(me, gids)
				case r < 5: // a re-announce wave, as after an ordering view that gained a processor
					// Ascending sender order is the one the table finger
					// follows; descending and shuffled waves make it miss
					// and fall back to the search.
					senders := slices.Clone(universe)
					switch rng.Intn(3) {
					case 1:
						slices.Reverse(senders)
					case 2:
						rng.Shuffle(len(senders), func(i, j int) { senders[i], senders[j] = senders[j], senders[i] })
					}
					common := pool[rng.Intn(len(pool))]
					for _, from := range senders {
						var gids []wire.GroupID
						switch rng.Intn(6) {
						case 0: // announces nothing: leaves every group
						case 1: // one more group
							gids = []wire.GroupID{common, pool[rng.Intn(len(pool))]}
						default:
							gids = []wire.GroupID{common}
						}
						rig.announce(from, gids...)
						ref.announce(from, gids)
					}
				default: // someone else announces, in any order and with repeats
					from := universe[rng.Intn(len(universe))]
					gids := make([]wire.GroupID, rng.Intn(4))
					for i := range gids {
						gids[i] = pool[rng.Intn(len(pool))]
					}
					rig.announce(from, gids...)
					ref.announce(from, gids)
				}
			}
			rig.flush()
			ref.emitChangedViews()

			if len(rig.emitted) != len(ref.emitted) {
				t.Fatalf("seed %d instant %d: stack emitted %d views, reference %d\nstack: %+v\nref:   %+v",
					seed, instant, len(rig.emitted), len(ref.emitted), rig.emitted, ref.emitted)
			}
		}
		for i, got := range rig.emitted {
			want := ref.emitted[i]
			if got.Members == nil {
				t.Fatalf("seed %d view %d: nil Members in %+v", seed, i, got)
			}
			if got.Group != want.Group || got.ViewID != want.ViewID || got.Primary != want.Primary ||
				!slices.Equal(got.Members, want.Members) {
				t.Fatalf("seed %d view %d: stack %+v, reference %+v", seed, i, got, want)
			}
			if len(got.Members) == 0 {
				emptyViews++
			}
		}
		if emptyViews == 0 {
			t.Fatalf("seed %d: no group ever emptied; the run does not cover the empty view", seed)
		}
		if len(joinedViews) == 0 {
			t.Fatalf("seed %d: joined groups' own handlers saw no view", seed)
		}
		// A group once heard of keeps its table, as in the reference.
		if got, want := len(rig.s.tables), len(ref.membership); got != want {
			t.Fatalf("seed %d: %d tables, reference knows %d groups", seed, got, want)
		}
	}
}

// TestLastMemberLeavingEmitsEmptyView: a group that empties is told so, once,
// with a non-nil empty member list, and is heard of again when it refills.
func TestLastMemberLeavingEmitsEmptyView(t *testing.T) {
	r := newTableRig(0)
	r.s.onOrderView(order.View{ID: order.ViewID{Epoch: 1}, Members: nodeRange(3), Primary: true})
	r.announce(1, 7)
	r.flush()
	r.announce(1)
	r.flush()
	r.announce(1) // still nothing: no second empty view
	r.flush()
	r.announce(2, 7)
	r.flush()
	want := [][]transport.NodeID{{1}, {}, {2}}
	if len(r.emitted) != len(want) {
		t.Fatalf("emitted %+v, want member lists %v", r.emitted, want)
	}
	for i, v := range r.emitted {
		if v.Members == nil || !slices.Equal(v.Members, want[i]) {
			t.Fatalf("view %d is %#v, want members %v (non-nil)", i, v, want[i])
		}
	}
}

// TestEmittedMembersDoNotAliasTables: a handler that overwrites the Members
// it was handed disturbs neither the table, nor later views, nor the
// comparison that decides whether a later view is emitted at all.
func TestEmittedMembersDoNotAliasTables(t *testing.T) {
	const g = wire.GroupID(7)
	r := newTableRig(0)
	r.s.onOrderView(order.View{ID: order.ViewID{Epoch: 1}, Members: nodeRange(6), Primary: true})
	for _, p := range []transport.NodeID{3, 1, 2} {
		r.announce(p, g)
	}
	r.flush()
	if len(r.emitted) != 1 || !slices.Equal(r.emitted[0].Members, []transport.NodeID{1, 2, 3}) {
		t.Fatalf("emitted %+v, want one view of [1 2 3]", r.emitted)
	}
	for i := range r.emitted[0].Members {
		r.emitted[0].Members[i] = 99
	}
	if got := r.s.table(g).members; !slices.Equal(got, []transport.NodeID{1, 2, 3}) {
		t.Fatalf("table became %v after a handler wrote to its view", got)
	}
	// Leave and rejoin inside one instant: the table is edited twice and
	// ends where it began, so nothing is emitted — which it would be if the
	// remembered last view were the slice the handler overwrote.
	r.announce(2)
	r.announce(2, g)
	r.flush()
	if len(r.emitted) != 1 {
		t.Fatalf("a no-change instant emitted %+v", r.emitted[1:])
	}
	r.announce(4, g)
	r.flush()
	if len(r.emitted) != 2 || !slices.Equal(r.emitted[1].Members, []transport.NodeID{1, 2, 3, 4}) {
		t.Fatalf("emitted %+v, want a second view of [1 2 3 4]", r.emitted)
	}
	r.emitted[1].Members[0] = 99
	r.s.onOrderView(order.View{ID: order.ViewID{Epoch: 2}, Members: []transport.NodeID{0, 1, 4}, Primary: true})
	r.flush()
	if len(r.emitted) != 3 || !slices.Equal(r.emitted[2].Members, []transport.NodeID{1, 4}) {
		t.Fatalf("emitted %+v, want a third view of [1 4]", r.emitted)
	}
}

// TestNoopReannounceIsFree: delivering a re-announce of what a 1000-member
// table already records allocates nothing, edits nothing and posts nothing.
func TestNoopReannounceIsFree(t *testing.T) {
	const g = wire.GroupID(7)
	r := newTableRig(0)
	procs := nodeRange(1000)
	r.s.onOrderView(order.View{ID: order.ViewID{Epoch: 1}, Members: procs, Primary: true})
	for _, p := range procs {
		r.announce(p, g, 8)
	}
	r.flush()
	emitted, changed := len(r.emitted), r.s.stats.AnnounceChanged

	d := order.Delivery{Sender: 500, Payload: announceEnv(g, 8)}
	if allocs := testing.AllocsPerRun(200, func() { r.s.onDeliver(d) }); allocs != 0 {
		t.Fatalf("a no-op re-announce allocates %.1f times, want 0", allocs)
	}
	if r.s.emitQueued || r.k.Pending() != 0 {
		t.Fatalf("a no-op re-announce scheduled work: emitQueued=%v, %d events pending",
			r.s.emitQueued, r.k.Pending())
	}
	r.flush()
	if len(r.emitted) != emitted || r.s.stats.AnnounceChanged != changed {
		t.Fatalf("a no-op re-announce emitted %d views and counted %d changes",
			len(r.emitted)-emitted, r.s.stats.AnnounceChanged-changed)
	}
}

// instantCluster is n real stacks over one InstantHub, all hosting group 7.
type instantCluster struct {
	k      *sim.Kernel
	stacks []*Stack
}

func newInstantCluster(tb testing.TB, n int) *instantCluster {
	tb.Helper()
	c := &instantCluster{k: sim.NewKernel(1)}
	net := simnet.NewNetwork(c.k, nil)
	hub := order.NewInstantHub()
	ids := nodeRange(n)
	for _, id := range ids {
		s, err := New(Config{
			Runtime: c.k, Transport: net.Endpoint(id), Members: ids, Bootstrap: true,
			Order: order.Options{Kind: order.KindInstant, Instant: order.InstantTuning{Hub: hub}},
		})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Join(7, func(wire.Message, Meta) {}, nil); err != nil {
			tb.Fatal(err)
		}
		c.stacks = append(c.stacks, s)
	}
	for _, s := range c.stacks {
		s.Start()
	}
	c.k.RunFor(time.Millisecond)
	return c
}

func sampleOf(s *Stack, name string) uint64 {
	for _, smp := range s.ObsSamples() {
		if smp.Name == name {
			return smp.Value
		}
	}
	panic("no sample " + name)
}

// TestReannounceWave1000: processors of a 1000-member component crash and
// restart.
//
// A crash only shrinks the view, so no stack announces anything; each
// survivor emits exactly one view (the shrunken group).
//
// A restart is a gain for every survivor, which had pruned the victims. The
// representative (stack 0) kept the other survivors, so it dumps the 1000−v
// lists it holds, and the other survivors stay silent. Each victim's own view
// never lost anyone, and its Stop cleared what it held: it takes every list
// from the dump, and, not being listed, answers with its own. Those answers
// are the announces that change a survivor's table.
func TestReannounceWave1000(t *testing.T) {
	const n = 1000
	c := newInstantCluster(t, n)
	for i, s := range c.stacks {
		if got := sampleOf(s, "gcs.groups"); got != 1 {
			t.Fatalf("stack %d: gcs.groups = %d, want 1", i, got)
		}
	}
	// wave runs fn and requires each stack's counters to move by what want
	// says for it, and its group to hold members processors afterwards.
	wave := func(t *testing.T, fn func(), members int, down map[int]bool, want func(i int) map[string]uint64) {
		before := make([]map[string]uint64, n)
		for i, s := range c.stacks {
			before[i] = make(map[string]uint64)
			for name := range want(i) {
				before[i][name] = sampleOf(s, name)
			}
		}
		fn()
		c.k.RunFor(time.Millisecond)
		for i, s := range c.stacks {
			for name, w := range want(i) {
				if got := sampleOf(s, name) - before[i][name]; got != w {
					t.Fatalf("stack %d: %s moved by %d over the wave, want %d", i, name, got, w)
				}
			}
			// A stopped victim's table is frozen at what it last saw.
			if got := len(s.tables[0].members); !down[i] && got != members {
				t.Fatalf("stack %d: group has %d members after the wave, want %d", i, got, members)
			}
			// A live stack ends the wave holding every member's list.
			held := 0
			for r := range s.ordView.Members {
				if has(s.known, r) {
					held++
				}
			}
			if !down[i] && held != members {
				t.Fatalf("stack %d holds %d of %d members' lists after the wave", i, held, members)
			}
		}
	}
	for _, victims := range [][]int{{417}, {417, 903}} {
		v := len(victims)
		suffix := "" // one victim: "crash", "restart"; two: "crash2", "restart2"
		if v > 1 {
			suffix = fmt.Sprint(v)
		}
		down := make(map[int]bool)
		for _, i := range victims {
			down[i] = true
		}
		each := func(f func(*Stack)) func() {
			return func() {
				for _, i := range victims {
					f(c.stacks[i])
				}
			}
		}
		t.Run("crash"+suffix, func(t *testing.T) {
			wave(t, each((*Stack).Stop), n-v, down, func(i int) map[string]uint64 {
				if down[i] {
					return map[string]uint64{"gcs.announce_delivered": 0, "gcs.views_emitted": 0}
				}
				return map[string]uint64{
					"gcs.announce_delivered": 0,
					"gcs.announce_changed":   0,
					"gcs.announce_answered":  0,
					"gcs.dumps_sent":         0,
					"gcs.views_emitted":      1,
				}
			})
		})
		t.Run("restart"+suffix, func(t *testing.T) {
			wave(t, each((*Stack).Start), n, nil, func(i int) map[string]uint64 {
				if down[i] {
					return map[string]uint64{
						// The dump and every victim's answer, its own included;
						// none changes the table the victim stopped with.
						"gcs.announce_delivered": uint64(1 + v),
						"gcs.announce_changed":   0,
						"gcs.announce_answered":  1,
						"gcs.dumps_sent":         0,
						"gcs.views_emitted":      1,
					}
				}
				dumps := uint64(0)
				if i == 0 {
					dumps = 1
				}
				return map[string]uint64{
					"gcs.announce_delivered": uint64(1 + v),
					"gcs.announce_changed":   uint64(v),
					"gcs.announce_answered":  0,
					"gcs.dumps_sent":         dumps,
					// The new view without the victims, emitted before their
					// answers are ordered, then the group with them.
					"gcs.views_emitted": 2,
				}
			})
		})
	}
}

// BenchmarkReannounceWave1000 times what the costliest ordering view change
// costs a 1000-processor component in group bookkeeping: a crashed
// processor returns, the representative dumps the 999 lists it holds to
// every member, and the returning processor answers once. The crash before
// each return (a view that only shrinks and announces nothing) is not timed.
func BenchmarkReannounceWave1000(b *testing.B) {
	c := newInstantCluster(b, 1000)
	victim := c.stacks[417]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		victim.Stop()
		c.k.RunFor(time.Millisecond)
		b.StartTimer()
		victim.Start()
		c.k.RunFor(time.Millisecond)
	}
}
