package order

import "cts/internal/transport"

// msgKind distinguishes the payload classes carried by data messages.
type msgKind uint8

// Data message kinds.
const (
	msgRegular     msgKind = iota + 1 // application payload
	msgRecovery                       // rebroadcast of an old-ring message during recovery
	msgEndRecovery                    // sender has rebroadcast all its old-ring messages
)

// dataMsg is a broadcast message stamped with a ring-global sequence number.
// Recovery rebroadcasts additionally carry the old ring, old sequence number
// and original sender of the message being recovered.
type dataMsg struct {
	Ring    ViewID
	Seq     uint64
	Sender  transport.NodeID
	Kind    msgKind
	Safe    bool   // deliver only once every processor on the ring holds it
	DupKey  uint64 // logical message identity for duplicate suppression (0 = none)
	OldRing ViewID // msgRecovery only
	OldSeq  uint64 // msgRecovery only
	OldSndr transport.NodeID
	Payload []byte
}

// aruNone marks a token whose aru has not been lowered by any processor on
// the current rotation.
const aruNone = transport.NodeID(^uint32(0))

// ringToken is the regular token circulating on the ring.
type ringToken struct {
	Ring     ViewID
	TokenSeq uint64           // increments each hop; receivers discard stale tokens
	Seq      uint64           // highest message sequence number broadcast on the ring
	Aru      uint64           // all-received-up-to
	AruID    transport.NodeID // processor that last lowered Aru, or aruNone
	Rtr      []uint64         // retransmission requests
	Fcc      uint32           // messages broadcast during the last rotation (flow control)
}

// joinMsg is broadcast during the gather phase of the membership protocol.
type joinMsg struct {
	Sender     transport.NodeID
	ProcSet    []transport.NodeID // processors the sender proposes for the new ring
	FailSet    []transport.NodeID // processors the sender has given up on
	MaxRingSeq uint64             // highest ring sequence number the sender has seen
}

// memberInfo is one member's contribution to the commit token: a summary of
// what it holds from its old ring, enough for the others to compute the
// recoverable message set.
type memberInfo struct {
	ID       transport.NodeID
	OldRing  ViewID
	Aru      uint64   // contiguous prefix of old-ring messages held
	HighSeq  uint64   // highest old-ring sequence number seen
	Received []uint64 // old-ring sequence numbers held in (Aru, HighSeq]
}

// commitToken is circulated (twice) around the prospective new ring: the
// first rotation collects every member's memberInfo, the second distributes
// the complete set so that all members enter recovery with the same data.
type commitToken struct {
	Ring    ViewID
	Members []transport.NodeID
	Infos   []memberInfo
}

// complete reports whether every member has contributed its info.
func (ct *commitToken) complete() bool { return len(ct.Infos) == len(ct.Members) }

// totemStats are cumulative protocol counters, for experiments and debugging.
type totemStats struct {
	TokensHandled   uint64
	Broadcasts      uint64 // data messages this node put on the wire (incl. retransmissions)
	Retransmissions uint64
	Suppressed      uint64 // queued broadcasts withdrawn because their dupKey was seen
	Memberships     uint64 // rings this node has installed
	TokenRetrans    uint64 // token retransmissions by this node
	TokenLosses     uint64 // token-loss timeouts at this node
}

// announceMsg is broadcast periodically by a ring's representative so that
// rings separated by a healed partition (or processors stuck in gather with
// stale ring knowledge) discover each other. Idle rings produce no other
// network traffic — the token of a singleton ring never touches the wire —
// so remerge needs an explicit beacon.
type announceMsg struct {
	Ring    ViewID
	Members []transport.NodeID
}
