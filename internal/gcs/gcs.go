// Package gcs is the group-communication layer between the total-order
// multicast substrate (internal/order: Totem single ring, leader sequencer
// or sim-instant) and the replication infrastructure. It multiplexes named
// process groups over the orderer's single total order: every fault-tolerant
// protocol message (wire.Message) is delivered to the local members of its
// destination group in the same order at every processor, and per-group
// membership views track both which processors host group members and
// whether the component is primary (§2 of the paper). The package depends
// only on the order.Orderer contract, never on a concrete protocol.
package gcs

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/sim"
	"cts/internal/transport"
	"cts/internal/wire"
)

// Meta describes the total-order position of a delivered message.
type Meta struct {
	TotalOrder uint64
	ViewID     order.ViewID
	Seq        uint64
	Sender     transport.NodeID
}

// GroupView is the membership of one group, derived from the orderer's
// membership view and the group-announcement traffic, identical in content
// and order at every processor of the component.
type GroupView struct {
	Group wire.GroupID
	// Members are the processors hosting members of the group, sorted and
	// never nil. The slice is the stack's own snapshot, shared by every
	// handler: read-only, as order.View.Members is. The stack panics at its
	// next edit or emission if a handler wrote to it.
	Members []transport.NodeID
	ViewID  order.ViewID
	Primary bool
}

// MessageHandler consumes a message delivered to a group in total order.
// Handlers run on the stack's runtime loop and must not block.
type MessageHandler func(wire.Message, Meta)

// ViewHandler consumes group membership changes.
type ViewHandler func(GroupView)

// Config configures a Stack.
type Config struct {
	// Runtime is the event loop the stack (and its orderer) runs on.
	// Required.
	Runtime sim.Runtime
	// Transport carries the processor's datagrams. Required.
	Transport transport.Transport
	// Members is the initial component membership (all processors, whether
	// or not they host members of any particular group).
	Members []transport.NodeID
	// Bootstrap, when true, forms the initial configuration from Members
	// directly; when false the processor joins the component its peers have
	// formed.
	Bootstrap bool
	// Order selects and tunes the total-order protocol underneath the
	// stack. The zero value runs Totem with default tuning; tuning supplied
	// for a non-selected orderer is a validation error, never a silent
	// no-op.
	Order order.Options
	// Obs registers this stack's counters and is handed down to the
	// ordering layer for protocol-level tracing. A nil recorder disables
	// instrumentation at no cost. Optional.
	Obs *obs.Recorder
}

// Validate checks cfg, returning the effective configuration. Ordering-layer
// defaults (protocol timeouts) are filled by the orderer constructor.
func (c Config) Validate() (Config, error) {
	if c.Runtime == nil || c.Transport == nil {
		return c, errors.New("gcs: Runtime and Transport are required")
	}
	var err error
	if c.Order, err = c.Order.Validate(); err != nil {
		return c, fmt.Errorf("gcs: %w", err)
	}
	return c, nil
}

// Stats counts group-communication activity.
type Stats struct {
	Multicasts        uint64 // application messages queued for the total order
	AppDelivered      uint64 // application messages delivered in total order
	AnnounceDelivered uint64 // group-announcement messages delivered, rejoins and dumps included
	AnnounceChanged   uint64 // of those, the ones that altered a membership table
	AnnounceAnswered  uint64 // rejoins and dumps this processor answered with an announce
	DumpsSent         uint64 // table dumps broadcast as a view's representative
	ViewsEmitted      uint64 // group view changes emitted
}

// envelope tags multiplexed over the total order.
const (
	envApp      = 1 // wire.Message
	envAnnounce = 2 // processor announces its locally joined groups
	// envRejoin carries the same body as envAnnounce. A processor sends it
	// when an ordering view gains a processor and it cannot rely on the
	// view's representative (see onOrderView), and asks receivers that have
	// not yet sent their own groups in the current view to answer with an
	// envAnnounce.
	envRejoin = 3
	// envDump is the representative's record of the group lists it holds,
	// sent when an ordering view gains a processor: the view id (epoch 8
	// bytes, rep 4), an entry count (4), then per entry the processor (4),
	// its group count (4) and its groups (4 each), entries in processor
	// order and groups ascending.
	envDump = 4
)

// Stack is one processor's group-communication endpoint.
type Stack struct {
	rt  sim.Runtime
	ord order.Orderer
	me  transport.NodeID

	groups map[wire.GroupID]*Group // locally joined groups

	// tables holds one membership table per group ever heard of, sorted by
	// group id. A group that loses its last member keeps its (empty) table.
	tables  []*groupTable
	ordView order.View
	// emitQueued debounces view emission: a table edit or an ordering view
	// change marks the affected groups dirty and posts one deferred emission,
	// so a wave of same-instant announces yields one view per changed group
	// instead of one per announce. A re-announce of what the tables already
	// record edits nothing and posts nothing, so the wave that follows an
	// ordering view that gained a processor (each of N members sends its
	// groups to all N) costs a processor O(G log N) per announce, G the
	// groups it knows of, and O(N) per view it emits.
	emitQueued bool
	emitPosted func() // the posted emission, made once
	// known holds one bit per member of ordView, by rank: set while this
	// stack holds that member's current group list. A delivered announce,
	// rejoin or dump entry sets its sender's bit, a view carries the bits of
	// the members it keeps, and Stop clears them all. spare is the buffer
	// the next view's bits are built in; the two swap, so a view change
	// allocates nothing once they have grown.
	known, spare []uint64
	// listSent records that this processor's groups went out in the current
	// ordering view, as a rejoin, in its own dump or as an answer; it is
	// what limits answers to one per view.
	listSent bool
	// silent marks a stack that gained a processor in this view but leaves
	// the exchange to the representative's dump; it answers only the
	// representative.
	silent bool

	// viewWatchers receive every group view change, joined or not (used by
	// clients tracking a server group).
	viewWatchers []ViewHandler
	// msgWatchers observe every application message in total order.
	msgWatchers []MessageHandler

	stats Stats
	obs   *obs.Recorder
}

// New creates a stack. Call Start to begin.
func New(cfg Config) (*Stack, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	s := &Stack{
		rt:     cfg.Runtime,
		me:     cfg.Transport.LocalID(),
		groups: make(map[wire.GroupID]*Group),
		obs:    cfg.Obs,
	}
	ord, err := order.New(order.Env{
		Runtime:   cfg.Runtime,
		Transport: cfg.Transport,
		Members:   cfg.Members,
		Bootstrap: cfg.Bootstrap,
		Deliver:   s.onDeliver,
		OnView:    s.onOrderView,
		Obs:       cfg.Obs,
	}, cfg.Order)
	if err != nil {
		return nil, fmt.Errorf("gcs: %w", err)
	}
	s.ord = ord
	cfg.Obs.Register(s)
	return s, nil
}

// Start begins protocol activity.
func (s *Stack) Start() { s.ord.Start() }

// Stop halts the stack. A stack that comes back holds nothing current, so it
// forgets which group lists it knows.
func (s *Stack) Stop() {
	s.rt.Post(func() { clear(s.known) })
	s.ord.Stop()
}

// LocalID reports the processor identity of this stack.
func (s *Stack) LocalID() transport.NodeID { return s.me }

// ObsSamples implements obs.Source under the canonical gcs.* names.
// Loop-only.
func (s *Stack) ObsSamples() []obs.Sample {
	id := uint32(s.me)
	return []obs.Sample{
		{Node: id, Name: "gcs.multicasts", Value: s.stats.Multicasts},
		{Node: id, Name: "gcs.app_delivered", Value: s.stats.AppDelivered},
		{Node: id, Name: "gcs.announce_delivered", Value: s.stats.AnnounceDelivered},
		{Node: id, Name: "gcs.announce_changed", Value: s.stats.AnnounceChanged},
		{Node: id, Name: "gcs.announce_answered", Value: s.stats.AnnounceAnswered},
		{Node: id, Name: "gcs.dumps_sent", Value: s.stats.DumpsSent},
		{Node: id, Name: "gcs.views_emitted", Value: s.stats.ViewsEmitted},
		// Gauge: groups this processor keeps a membership table for.
		{Node: id, Name: "gcs.groups", Value: uint64(len(s.tables))},
	}
}

// Group is a local group membership.
type Group struct {
	stack  *Stack
	id     wire.GroupID
	onMsg  MessageHandler
	onView ViewHandler
	left   bool
}

// Join registers the local processor as hosting a member of group id.
// The join is announced through the total order, so every processor updates
// the group's view at the same point in the message stream. Safe to call
// from any goroutine.
func (s *Stack) Join(id wire.GroupID, onMsg MessageHandler, onView ViewHandler) (*Group, error) {
	if onMsg == nil {
		return nil, errors.New("gcs: message handler is required")
	}
	g := &Group{stack: s, id: id, onMsg: onMsg, onView: onView}
	s.rt.Post(func() {
		s.groups[id] = g
		s.broadcastGroups(envAnnounce)
	})
	return g, nil
}

// Leave withdraws the local membership. Safe to call from any goroutine.
func (g *Group) Leave() {
	g.stack.rt.Post(func() {
		if g.left {
			return
		}
		g.left = true
		delete(g.stack.groups, g.id)
		g.stack.broadcastGroups(envAnnounce)
	})
}

// ID reports the group identifier.
func (g *Group) ID() wire.GroupID { return g.id }

// Multicast sends m through the total order to the members of m.DstGroup.
func (g *Group) Multicast(m wire.Message) error { return g.stack.Multicast(m) }

// Multicast sends a fault-tolerant protocol message through the total order.
// The message is delivered, in the same order at every processor, to the
// local members of m.DstGroup. The sender needs no membership in the
// destination group (clients invoke server groups this way).
func (s *Stack) Multicast(m wire.Message) error {
	env, err := appEnvelope(m)
	if err != nil {
		return err
	}
	s.rt.Post(func() { s.stats.Multicasts++ }) // counter is loop-confined
	return s.ord.Broadcast(env)
}

// MulticastCancelable queues m like Multicast but returns a cancel function
// reporting whether the message is guaranteed not to reach the wire.
// Messages with identical headers (the paper's message identifier: source
// group, destination group, connection, sequence number) share a logical
// identity, and the orderer withdraws a queued message whose identity it
// has already ordered (§4.3): this is the one duplicate suppression for CCS
// messages, replica replies and checkpoints, and callers that need no early
// withdrawal drop the cancel.
// When safe is true, delivery waits until every processor of the component
// holds the message. Must be called (and cancelled) on the runtime loop.
func (s *Stack) MulticastCancelable(m wire.Message, safe bool) (func() bool, error) {
	env, err := appEnvelope(m)
	if err != nil {
		return nil, err
	}
	s.stats.Multicasts++
	return s.ord.BroadcastCancelable(env, safe, messageIdentity(m.Header)), nil
}

// appEnvelope encodes m behind the envApp tag in one pass.
func appEnvelope(m wire.Message) ([]byte, error) {
	w := wire.NewWriter(1 + wire.HeaderLen + len(m.Payload))
	w.U8(envApp)
	if err := wire.WriteMessage(&w, m); err != nil {
		return nil, fmt.Errorf("gcs: multicast: %w", err)
	}
	return w.Encoded(), nil
}

// messageIdentity hashes the paper's message identifier fields (§3.1).
func messageIdentity(h wire.Header) uint64 {
	w := wire.NewWriter(wire.HeaderLen)
	wire.WriteHeader(&w, h)
	f := fnv.New64a()
	f.Write(w.Encoded())
	v := f.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

// WatchMessages registers a handler that observes every application message
// in total order, regardless of destination group, as an experiment or test
// that counts the traffic does. Safe to call from any goroutine.
func (s *Stack) WatchMessages(h MessageHandler) {
	s.rt.Post(func() {
		s.msgWatchers = append(s.msgWatchers, h)
	})
}

// WatchViews registers a handler for every group view change, whether or not
// the local processor is a member. Safe to call from any goroutine.
func (s *Stack) WatchViews(h ViewHandler) {
	s.rt.Post(func() {
		s.viewWatchers = append(s.viewWatchers, h)
	})
}

// broadcastGroups broadcasts this processor's full local group list under
// tag (envAnnounce or envRejoin). It is idempotent: receivers replace their
// record of this processor's groups.
func (s *Stack) broadcastGroups(tag byte) {
	gids := make([]wire.GroupID, 0, len(s.groups))
	for id := range s.groups {
		gids = append(gids, id)
	}
	slices.Sort(gids)
	_ = s.ord.Broadcast(encodeGroups(tag, gids))
}

// encodeGroups encodes an envAnnounce or envRejoin: the tag, then each
// group id (4 bytes), with no count; the body's length gives it.
func encodeGroups(tag byte, gids []wire.GroupID) []byte {
	w := wire.NewWriter(1 + 4*len(gids))
	w.U8(tag)
	writeGroups(&w, gids)
	return w.Encoded()
}

func writeGroups(w *wire.Writer, gids []wire.GroupID) {
	for _, id := range gids {
		w.U32(uint32(id))
	}
}

// readGroups appends k group ids read from r to buf.
func readGroups(r *wire.Reader, k int, buf []wire.GroupID) []wire.GroupID {
	for ; k > 0; k-- {
		buf = append(buf, wire.GroupID(r.U32()))
	}
	return buf
}

// groupTable is what a stack records about one group: the processors hosting
// members of it, and the view last emitted for it.
type groupTable struct {
	id      wire.GroupID
	members []transport.NodeID // sorted
	// finger is the slot find tries before searching: one past the last
	// member found, added or removed. After an ordering view that gained a
	// processor every member sends its groups, and they arrive in sender-id
	// order, so through such a wave each lookup is one comparison.
	finger int
	// dirty is set by every edit of members and by every ordering view
	// change (ViewID and Primary are part of the view); emitChangedViews
	// looks at no other table.
	dirty bool
	// The last emitted view. lastMembers is the snapshot every handler was
	// handed and lastSum its FNV-1a. While shared is set, members is that
	// snapshot too, and the first edit copies it (own): no one writes to an
	// emitted snapshot.
	emitted     bool
	lastID      order.ViewID
	lastPrimary bool
	lastMembers []transport.NodeID
	lastSum     uint64
	shared      bool
}

// own makes members the table's own before an edit: a table that still
// shares the emitted snapshot checks it and copies it.
func (t *groupTable) own() {
	if !t.shared {
		return
	}
	t.checkSnapshot()
	t.members = append(make([]transport.NodeID, 0, len(t.members)+1), t.members...)
	t.shared = false
}

// checkSnapshot panics if a view handler wrote to the Members it was handed.
func (t *groupTable) checkSnapshot() {
	if membersSum(t.lastMembers) != t.lastSum {
		panic(fmt.Sprintf("gcs: a view handler wrote to the Members of group %d", t.id))
	}
}

// membersSum is the 64-bit FNV-1a of members, taken a 64-bit word (two ids)
// at a time rather than a byte at a time: it runs over every emitted list,
// and each step is a bijection, so any one changed id still changes the sum.
func membersSum(members []transport.NodeID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	i := 0
	for ; i+1 < len(members); i += 2 {
		h = (h ^ (uint64(members[i]) | uint64(members[i+1])<<32)) * prime
	}
	if i < len(members) {
		h = (h ^ uint64(members[i])) * prime
	}
	return h
}

// find returns p's position in members, or where it would be inserted.
func (t *groupTable) find(p transport.NodeID) (int, bool) {
	if i := t.finger; i < len(t.members) && t.members[i] == p {
		t.finger = i + 1
		return i, true
	}
	i, found := slices.BinarySearch(t.members, p)
	if found {
		t.finger = i + 1
	}
	return i, found
}

// add records that p hosts a member, reporting whether that is news.
func (t *groupTable) add(p transport.NodeID) bool {
	i, found := t.find(p)
	if found {
		return false
	}
	t.own()
	t.members = slices.Insert(t.members, i, p)
	t.finger = i + 1
	t.dirty = true
	return true
}

// remove records that p hosts no member, reporting whether that is news.
func (t *groupTable) remove(p transport.NodeID) bool {
	i, found := t.find(p)
	if !found {
		return false
	}
	t.own()
	t.members = slices.Delete(t.members, i, i+1)
	t.finger = i
	t.dirty = true
	return true
}

// table returns the membership table of group g, creating an empty one the
// first time g is heard of.
func (s *Stack) table(g wire.GroupID) *groupTable {
	i, found := slices.BinarySearchFunc(s.tables, g, func(t *groupTable, g wire.GroupID) int {
		return cmp.Compare(t.id, g)
	})
	if !found {
		s.tables = slices.Insert(s.tables, i, &groupTable{id: g})
	}
	return s.tables[i]
}

// onOrderView reacts to an ordering-layer membership change: group tables
// are pruned to the new component, and updated group views are emitted.
//
// A view that gained a processor starts an exchange of group lists, since
// this stack may have pruned the newcomer's groups and the newcomer this
// stack's. Who sends depends on rep, the view's first member:
//   - rep, when it kept another member, dumps every list it holds;
//   - rep alone, a stack whose previous view lacked rep, and a stack that
//     holds no list at all send their own groups as a rejoin;
//   - everyone else stays silent and waits for rep's dump.
//
// A view that only shrank sends nothing, since nobody's tables lost what they
// need, unless this stack lacks a member's list (an exchange cut short by a
// crash): then it sends a rejoin. Every processor that pruned q sees a gain
// when q returns, because q left its view in between; a brand-new stack has
// an empty previous view, so its first view is a gain too. DESIGN §6 gives
// the safety argument and its view-synchrony precondition.
func (s *Stack) onOrderView(v order.View) {
	gained, shrank, repKept, othersKept, held := s.carryKnown(v.Members)
	s.ordView = v
	for _, t := range s.tables {
		t.prune(v.Members)
		t.dirty = true
	}
	// Local memberships survive the transition unconditionally.
	for id := range s.groups {
		s.table(id).add(s.me)
	}
	s.listSent, s.silent = false, false
	isRep := len(v.Members) > 0 && v.Members[0] == s.me
	switch {
	case !gained && (!shrank || held == len(v.Members)):
		// Nothing to exchange.
	case !gained || held == 0 || (isRep && !othersKept) || (!isRep && !repKept):
		s.listSent = true
		s.broadcastGroups(envRejoin)
	case isRep:
		s.stats.DumpsSent++
		s.listSent = s.broadcastDump()
	default:
		s.silent = true
	}
	s.scheduleEmitViews()
}

// carryKnown moves the known bits from the previous ordering view to cur in
// one merge walk over both member lists (sorted, as order.View promises),
// and reports what the walk saw: whether cur gained or lost a processor,
// whether cur's first member was in the previous view, whether a member
// other than this stack was kept, and how many of cur's lists this stack
// holds.
func (s *Stack) carryKnown(cur []transport.NodeID) (gained, shrank, repKept, othersKept bool, held int) {
	old := s.ordView.Members
	next := resize(s.spare, len(cur))
	i := 0
	for r, p := range cur {
		for i < len(old) && old[i] < p {
			i++
			shrank = true
		}
		if i == len(old) || old[i] != p {
			gained = true
			continue
		}
		if r == 0 {
			repKept = true
		}
		if p != s.me {
			othersKept = true
		}
		if has(s.known, i) {
			set(next, r)
			held++
		}
		i++
	}
	if i < len(old) {
		shrank = true
	}
	s.spare, s.known = s.known, next
	return gained, shrank, repKept, othersKept, held
}

// resize returns b cleared and sized for n bits, reusing its storage.
func resize(b []uint64, n int) []uint64 {
	w := (n + 63) / 64
	if cap(b) < w {
		return make([]uint64, w)
	}
	b = b[:w]
	clear(b)
	return b
}

func has(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func set(b []uint64, i int)      { b[i/64] |= 1 << (i % 64) }

// rank returns p's index in the current ordering view, or -1.
func (s *Stack) rank(p transport.NodeID) int {
	if r, ok := slices.BinarySearch(s.ordView.Members, p); ok {
		return r
	}
	return -1
}

// broadcastDump broadcasts envDump for the current view: every member whose
// list this stack holds, with the groups its tables record for it. It
// reports whether the dump lists this stack itself.
func (s *Stack) broadcastDump() bool {
	members := s.ordView.Members
	n := 0
	for r := range members {
		if has(s.known, r) {
			n++
		}
	}
	w := wire.NewWriter(1 + 16 + 12*n) // exact when each member hosts one group
	w.U8(envDump)
	w.U64(s.ordView.ID.Epoch)
	w.U32(uint32(s.ordView.ID.Rep))
	w.U32(uint32(n))
	var buf [8]wire.GroupID
	for r, p := range members {
		if !has(s.known, r) {
			continue
		}
		// Tables are sorted by group id, so the groups come out ascending.
		gids := buf[:0]
		for _, t := range s.tables {
			if _, ok := slices.BinarySearch(t.members, p); ok {
				gids = append(gids, t.id)
			}
		}
		w.U32(uint32(p))
		w.U32(uint32(len(gids)))
		writeGroups(&w, gids)
	}
	_ = s.ord.Broadcast(w.Encoded())
	r := s.rank(s.me)
	return r >= 0 && has(s.known, r)
}

// applyDump applies a delivered envDump. A dump for another view changes
// nothing. Otherwise each entry is applied only if this stack does not hold
// that member's list already: a Join or Leave delivered before the dump is
// newer than what the dump recorded when it was sent. A stack the dump does
// not list answers with its own groups, once per view.
func (s *Stack) applyDump(body []byte) {
	rd := wire.NewReader(body)
	if len(body) < 16 || rd.U64() != s.ordView.ID.Epoch ||
		transport.NodeID(rd.U32()) != s.ordView.ID.Rep {
		return
	}
	members := s.ordView.Members
	listed, changed := false, false
	var buf [8]wire.GroupID
	r := 0
	for n := rd.U32(); n > 0 && rd.Len() >= 8; n-- {
		p, k := transport.NodeID(rd.U32()), int(rd.U32())
		if k > rd.Len()/4 {
			break
		}
		listed = listed || p == s.me
		for r < len(members) && members[r] < p {
			r++
		}
		if r == len(members) || members[r] != p || has(s.known, r) {
			rd.Raw(4 * k)
			continue
		}
		announced := readGroups(&rd, k, buf[:0])
		if s.setGroups(p, announced) {
			changed = true
		}
		set(s.known, r)
	}
	if changed {
		s.stats.AnnounceChanged++
		s.scheduleEmitViews()
	}
	if !listed && !s.listSent {
		s.listSent = true
		s.stats.AnnounceAnswered++
		s.broadcastGroups(envAnnounce)
	}
}

// prune drops the members not in live. Both are sorted (order.View promises
// it of its Members), so one merge pass decides. Nothing is written before
// the first member goes, so a table that loses nobody still shares its
// emitted snapshot.
func (t *groupTable) prune(live []transport.NodeID) {
	kept := -1 // members kept so far, counted from the first one gone
	for i, p := range t.members {
		for len(live) > 0 && live[0] < p {
			live = live[1:]
		}
		switch {
		case len(live) == 0 || live[0] != p:
			if kept < 0 {
				t.own()
				kept = i
			}
		case kept >= 0:
			t.members[kept] = p
			kept++
		}
	}
	if kept >= 0 {
		t.members = t.members[:kept]
	}
}

// scheduleEmitViews posts one deferred emitChangedViews for the current
// instant. Posts run at the same virtual time, after the event that queued
// them, so by the time a Run call returns the views are always emitted.
func (s *Stack) scheduleEmitViews() {
	if s.emitQueued {
		return
	}
	s.emitQueued = true
	if s.emitPosted == nil {
		s.emitPosted = func() {
			s.emitQueued = false
			s.emitChangedViews()
		}
	}
	s.rt.Post(s.emitPosted)
}

// onDeliver handles one totally-ordered delivery.
func (s *Stack) onDeliver(d order.Delivery) {
	if len(d.Payload) == 0 {
		return
	}
	body := d.Payload[1:]
	switch d.Payload[0] {
	case envApp:
		m, err := wire.Unmarshal(body)
		if err != nil {
			return
		}
		s.stats.AppDelivered++
		meta := Meta{TotalOrder: d.TotalOrder, ViewID: d.ViewID,
			Seq: d.Seq, Sender: d.Sender}
		for _, w := range s.msgWatchers {
			w(m, meta)
		}
		g, ok := s.groups[m.DstGroup]
		if !ok {
			return
		}
		g.onMsg(m, meta)
	case envDump:
		s.stats.AnnounceDelivered++
		s.applyDump(body)
	case envAnnounce, envRejoin:
		if len(body)%4 != 0 {
			return
		}
		s.stats.AnnounceDelivered++
		var buf [8]wire.GroupID // a processor rarely hosts more groups; no allocation then
		rd := wire.NewReader(body)
		announced := readGroups(&rd, len(body)/4, buf[:0])
		slices.Sort(announced)
		if s.setGroups(d.Sender, announced) {
			s.stats.AnnounceChanged++
			s.scheduleEmitViews()
		}
		if r := s.rank(d.Sender); r >= 0 {
			set(s.known, r)
		}
		// The rejoin's sender may have pruned this processor. Answer once
		// per view: a list already sent in this view, as this stack's own
		// rejoin, dump or an earlier answer, reaches the sender too. A
		// silent gainer's list reaches everyone through rep's dump or its
		// answer to it, so it answers only rep.
		if d.Payload[0] == envRejoin && d.Sender != s.me && !s.listSent &&
			(!s.silent || d.Sender == s.ordView.Members[0]) {
			s.listSent = true
			s.stats.AnnounceAnswered++
			s.broadcastGroups(envAnnounce)
		}
	}
}

// setGroups replaces the record of which groups p hosts members of with the
// sorted (possibly repeating) list announced, reporting whether any table
// changed. It diffs instead of rewriting: a re-announce of what is already
// recorded touches nothing.
func (s *Stack) setGroups(p transport.NodeID, announced []wire.GroupID) bool {
	changed := false
	for _, t := range s.tables {
		if _, ok := slices.BinarySearch(announced, t.id); !ok && t.remove(p) {
			changed = true
		}
	}
	for _, g := range announced {
		if s.table(g).add(p) {
			changed = true
		}
	}
	return changed
}

// emitChangedViews delivers a GroupView, in group-id order, for every group
// whose view content changed since the last emission. The table, its last
// view and every handler share one snapshot of the member list.
func (s *Stack) emitChangedViews() {
	for _, t := range s.tables {
		if !t.dirty {
			continue
		}
		t.dirty = false
		if t.shared {
			t.checkSnapshot()
		}
		if t.emitted && t.lastID == s.ordView.ID && t.lastPrimary == s.ordView.Primary &&
			(t.shared || slices.Equal(t.lastMembers, t.members)) {
			continue
		}
		if !t.shared {
			if t.members == nil {
				t.members = []transport.NodeID{} // views are never nil
			}
			t.members = slices.Clip(t.members) // so that a handler's append copies
			t.lastMembers, t.lastSum, t.shared = t.members, membersSum(t.members), true
		}
		t.emitted, t.lastID, t.lastPrimary = true, s.ordView.ID, s.ordView.Primary
		view := GroupView{Group: t.id, Members: t.members, ViewID: s.ordView.ID, Primary: s.ordView.Primary}
		s.stats.ViewsEmitted++
		if g, ok := s.groups[t.id]; ok && g.onView != nil {
			g.onView(view)
		}
		for _, w := range s.viewWatchers {
			w(view)
		}
	}
}
