// Package totem implements the Totem single-ring ordering and membership
// protocol (Amir, Moser, Melliar-Smith, Agarwal, Ciarfella, ACM TOCS 1995),
// the group-communication substrate of the paper's consistent time service.
//
// Processors are arranged on a logical ring in NodeID order. A token rotates
// around the ring; only the token holder broadcasts messages, stamping each
// with the next global sequence number, which yields reliable totally-ordered
// delivery. The token carries an all-received-up-to (aru) field and a
// retransmission-request list, giving loss recovery. Token loss or a foreign
// join message triggers the membership protocol (gather → commit → recover):
// processors reach consensus on a new ring, exchange the messages of their
// old rings on the new ring, deliver them in the old order, and install the
// new configuration. A primary-component rule masks network partitions: only
// the component holding a quorum keeps delivering new messages (§2 of the
// paper: "only the primary component survives a network partition").
package totem

import (
	"fmt"
	"time"

	"cts/internal/transport"
)

// RingID identifies one ring configuration: a monotonically increasing
// sequence number plus the representative (lowest-id member) that formed it.
type RingID struct {
	Seq uint64
	Rep transport.NodeID
}

// String implements fmt.Stringer.
func (r RingID) String() string { return fmt.Sprintf("ring(%d,%v)", r.Seq, r.Rep) }

// Less orders ring identifiers.
func (r RingID) Less(o RingID) bool {
	if r.Seq != o.Seq {
		return r.Seq < o.Seq
	}
	return r.Rep < o.Rep
}

// MsgKind distinguishes the payload classes carried by data messages.
type MsgKind uint8

// Data message kinds.
const (
	KindRegular     MsgKind = iota + 1 // application payload
	KindRecovery                       // rebroadcast of an old-ring message during recovery
	KindEndRecovery                    // sender has rebroadcast all its old-ring messages
)

// DataMsg is a broadcast message stamped with a ring-global sequence number.
// Recovery rebroadcasts additionally carry the old ring, old sequence number
// and original sender of the message being recovered.
type DataMsg struct {
	Ring    RingID
	Seq     uint64
	Sender  transport.NodeID
	Kind    MsgKind
	Safe    bool   // deliver only once every processor on the ring holds it
	DupKey  uint64 // logical message identity for duplicate suppression (0 = none)
	OldRing RingID // KindRecovery only
	OldSeq  uint64 // KindRecovery only
	OldSndr transport.NodeID
	Payload []byte
}

// aruNone marks a token whose aru has not been lowered by any processor on
// the current rotation.
const aruNone = transport.NodeID(^uint32(0))

// Token is the regular token circulating on the ring.
type Token struct {
	Ring     RingID
	TokenSeq uint64           // increments each hop; receivers discard stale tokens
	Seq      uint64           // highest message sequence number broadcast on the ring
	Aru      uint64           // all-received-up-to
	AruID    transport.NodeID // processor that last lowered Aru, or aruNone
	Rtr      []uint64         // retransmission requests
	Fcc      uint32           // messages broadcast during the last rotation (flow control)
}

// JoinMsg is broadcast during the gather phase of the membership protocol.
type JoinMsg struct {
	Sender     transport.NodeID
	ProcSet    []transport.NodeID // processors the sender proposes for the new ring
	FailSet    []transport.NodeID // processors the sender has given up on
	MaxRingSeq uint64             // highest ring sequence number the sender has seen
}

// MemberInfo is one member's contribution to the commit token: a summary of
// what it holds from its old ring, enough for the others to compute the
// recoverable message set.
type MemberInfo struct {
	ID       transport.NodeID
	OldRing  RingID
	Aru      uint64   // contiguous prefix of old-ring messages held
	HighSeq  uint64   // highest old-ring sequence number seen
	Received []uint64 // old-ring sequence numbers held in (Aru, HighSeq]
}

// CommitToken is circulated (twice) around the prospective new ring: the
// first rotation collects every member's MemberInfo, the second distributes
// the complete set so that all members enter recovery with the same data.
type CommitToken struct {
	Ring    RingID
	Members []transport.NodeID
	Infos   []MemberInfo
}

// complete reports whether every member has contributed its info.
func (ct *CommitToken) complete() bool { return len(ct.Infos) == len(ct.Members) }

// Delivery is a message handed to the application in total order.
type Delivery struct {
	// TotalOrder increases by exactly 1 for every delivery at this node,
	// across ring changes; together with the protocol's guarantees, equal
	// TotalOrder values at different nodes hold equal messages.
	TotalOrder uint64
	Ring       RingID
	Seq        uint64 // sequence number on Ring (old ring for recovered messages)
	Sender     transport.NodeID
	Payload    []byte
}

// View is a membership change handed to the application before any message
// of the new configuration is delivered.
type View struct {
	Ring    RingID
	Members []transport.NodeID
	Primary bool // whether this component satisfies the quorum rule
}

// Stats are cumulative protocol counters, for experiments and debugging.
type Stats struct {
	TokensHandled   uint64
	Broadcasts      uint64 // data messages this node put on the wire (incl. retransmissions)
	Retransmissions uint64
	Delivered       uint64
	Memberships     uint64 // rings this node has installed
	TokenRetrans    uint64 // token retransmissions by this node
	TokenLosses     uint64 // token-loss timeouts at this node
}

func defaultDuration(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

// announceMsg is broadcast periodically by a ring's representative so that
// rings separated by a healed partition (or processors stuck in gather with
// stale ring knowledge) discover each other. Idle rings produce no other
// network traffic — the token of a singleton ring never touches the wire —
// so remerge needs an explicit beacon.
type announceMsg struct {
	Ring    RingID
	Members []transport.NodeID
}
