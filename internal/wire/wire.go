// Package wire defines the fault-tolerant protocol messages exchanged above
// the group-communication layer, following §3.1 of the paper: every message
// carries a common header (msg_type, src_grp_id, dst_grp_id, conn_id,
// msg_seq_num) followed by a type-specific payload. For a CCS message the
// msg_seq_num field carries the CCS round number, and the payload carries the
// sending thread identifier and the local clock value proposed for the group
// clock (§4.1 adds a clock-operation type identifier so that gettimeofday,
// time and ftime variants are distinguished).
//
// Every message is encoded by the package's Writer and decoded by its
// Reader (codec.go): big-endian fixed-width fields and length-prefixed
// byte strings. Marshal followed by unmarshal is the identity on every
// message type, a property the tests verify exhaustively, and the encodings
// are pinned by the committed corpus (TestWireMatchesCorpus).
package wire

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// MsgType identifies the kind of a fault-tolerant protocol message.
type MsgType uint8

// Message types. CCS is the control message of the consistent clock
// synchronization algorithm; the remainder implement remote invocation and
// state transfer on the replication infrastructure.
const (
	TypeCCS MsgType = iota + 1
	TypeRequest
	TypeReply
	TypeGetState
	TypeCheckpoint
	// TypeCCSBatch carries proposals for several pending CCS rounds in one
	// totally-ordered message (round coalescing). Added after the original
	// five types, so every earlier message keeps its encoding — old and new
	// nodes agree on all shared message types.
	TypeCCSBatch
	// TypeCCSFed is a federated offset-adoption round (federation.go):
	// ordered inside one group like any CCS message, its decided value nudges
	// the group clock toward neighbor groups under the bounded-influence
	// merge rule. Appended after TypeCCSBatch for the same compatibility
	// reason.
	TypeCCSFed
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case TypeCCS:
		return "CCS"
	case TypeRequest:
		return "REQUEST"
	case TypeReply:
		return "REPLY"
	case TypeGetState:
		return "GET_STATE"
	case TypeCheckpoint:
		return "CHECKPOINT"
	case TypeCCSBatch:
		return "CCS_BATCH"
	case TypeCCSFed:
		return "CCS_FED"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// GroupID identifies a replica group.
type GroupID uint32

// ConnID identifies a connection established between a source group and a
// destination group.
type ConnID uint32

// ClockOp identifies which interposed clock-related system call produced a
// CCS round (§4.1: "for each such system call, we assign a unique type
// identifier").
type ClockOp uint8

// Interposed clock operations.
const (
	OpGettimeofday ClockOp = iota + 1 // µs-resolution wall clock
	OpTime                            // second-resolution wall clock
	OpFtime                           // ms-resolution wall clock
)

// String implements fmt.Stringer.
func (op ClockOp) String() string {
	switch op {
	case OpGettimeofday:
		return "gettimeofday"
	case OpTime:
		return "time"
	case OpFtime:
		return "ftime"
	default:
		return fmt.Sprintf("ClockOp(%d)", uint8(op))
	}
}

// Granularity returns the quantum the operation's result is truncated to.
func (op ClockOp) Granularity() time.Duration {
	switch op {
	case OpTime:
		return time.Second
	case OpFtime:
		return time.Millisecond
	default:
		return time.Microsecond
	}
}

// Header is the common fault-tolerant protocol message header (§3.1). For a
// regular user message, (SrcGroup, DstGroup, Conn) identify a connection and
// Seq a message within it; together they form the message identifier. For a
// CCS message Seq carries the round number and SrcGroup == DstGroup.
type Header struct {
	Type     MsgType
	SrcGroup GroupID
	DstGroup GroupID
	Conn     ConnID
	Seq      uint64
}

// Message is a header plus an opaque, type-specific payload.
type Message struct {
	Header
	Payload []byte
}

const (
	magic   = 0xC7
	version = 1
	// HeaderLen is the encoded size of a message less its payload.
	HeaderLen     = 2 + 1 + 4 + 4 + 4 + 8 + 4 // magic+ver, type, src, dst, conn, seq, paylen
	maxPayloadLen = 1 << 24
)

// Errors returned by Unmarshal.
var (
	ErrShortMessage = errors.New("wire: message too short")
	ErrBadMagic     = errors.New("wire: bad magic byte")
	ErrBadVersion   = errors.New("wire: unsupported version")
	ErrTruncated    = errors.New("wire: truncated payload")
	ErrOversize     = errors.New("wire: payload exceeds maximum size")
)

// Marshal encodes m.
func Marshal(m Message) ([]byte, error) {
	w := NewWriter(HeaderLen + len(m.Payload))
	if err := WriteMessage(&w, m); err != nil {
		return nil, err
	}
	return w.Encoded(), nil
}

// WriteMessage appends the encoding of m to w, so that a caller can put its
// own prefix in front of a message without a second copy.
func WriteMessage(w *Writer, m Message) error {
	if len(m.Payload) > maxPayloadLen {
		return fmt.Errorf("%w: %d bytes", ErrOversize, len(m.Payload))
	}
	w.U8(magic)
	w.U8(version)
	WriteHeader(w, m.Header)
	w.Bytes(m.Payload)
	return nil
}

// WriteHeader appends the message identifier fields of h (§3.1): type,
// source and destination groups, connection and sequence number.
func WriteHeader(w *Writer, h Header) {
	w.U8(uint8(h.Type))
	w.U32(uint32(h.SrcGroup))
	w.U32(uint32(h.DstGroup))
	w.U32(uint32(h.Conn))
	w.U64(h.Seq)
}

// Unmarshal decodes a message produced by Marshal. The returned payload
// aliases b. Like every decoder here, it returns no usable value with an
// error.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < HeaderLen {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrShortMessage, len(b))
	}
	r := NewReader(b)
	if r.U8() != magic {
		return Message{}, ErrBadMagic
	}
	if v := r.U8(); v != version {
		return Message{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	m := Message{Header: Header{Type: MsgType(r.U8()), SrcGroup: GroupID(r.U32()),
		DstGroup: GroupID(r.U32()), Conn: ConnID(r.U32()), Seq: r.U64()}}
	m.Payload = r.Tail(maxPayloadLen)
	return m, r.Done()
}

// CCSPayload is the payload of a Consistent Clock Synchronization message
// (§3.1): the sending thread identifier and the local clock value being
// proposed for the group clock, plus the clock-op type (§4.1) and a flag
// marking the special round taken during state transfer (§3.2).
type CCSPayload struct {
	ThreadID uint64
	Proposed time.Duration // local physical clock + offset at the sender
	Op       ClockOp
	Special  bool // special round ordered with a GET_STATE checkpoint
}

const ccsPayloadLen = 8 + 8 + 1 + 1

// MarshalCCS encodes p.
func MarshalCCS(p CCSPayload) []byte {
	w := NewWriter(ccsPayloadLen)
	w.U64(p.ThreadID)
	w.U64(uint64(p.Proposed))
	w.U8(uint8(p.Op))
	w.Bool(p.Special)
	return w.Encoded()
}

// UnmarshalCCS decodes a CCS payload. Special is set by a final byte of 1
// only.
func UnmarshalCCS(b []byte) (CCSPayload, error) {
	if len(b) != ccsPayloadLen {
		return CCSPayload{}, fmt.Errorf("%w: CCS payload %d bytes, want %d",
			ErrTruncated, len(b), ccsPayloadLen)
	}
	r := NewReader(b)
	return CCSPayload{ThreadID: r.U64(), Proposed: time.Duration(r.U64()),
		Op: ClockOp(r.U8()), Special: r.U8() == 1}, nil
}

// CCSBatchEntry is one pending round carried by a CCS-batch message: the
// proposing thread, its round number, and the local clock value proposed for
// the group clock. The first-ordered batch decides every round it lists,
// entries applied in listed order, which preserves the §3 first-wins rule
// per round (see DESIGN.md §9). Special rounds (§3.2 state transfer) are
// never batched, so the entry carries no Special flag.
type CCSBatchEntry struct {
	ThreadID uint64
	Round    uint64
	Proposed time.Duration
	Op       ClockOp
}

const (
	ccsBatchVersion   = 1
	ccsBatchHeaderLen = 1 + 2 // version, entry count
	ccsBatchEntryLen  = 8 + 8 + 8 + 1
	// MaxCCSBatchEntries bounds one batch message (the uint16 count field
	// is the hard ceiling; real batches are far smaller).
	MaxCCSBatchEntries = math.MaxUint16
)

// ErrEmptyBatch is returned for a CCS batch with no entries; a batch is only
// sent when at least two rounds coalesce, so an empty one is a bug.
var ErrEmptyBatch = errors.New("wire: empty CCS batch")

// MarshalCCSBatch encodes a CCS-batch payload: a version byte, a big-endian
// entry count, and the fixed-width entries in sender order.
func MarshalCCSBatch(entries []CCSBatchEntry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, ErrEmptyBatch
	}
	if len(entries) > MaxCCSBatchEntries {
		return nil, fmt.Errorf("%w: %d batch entries", ErrOversize, len(entries))
	}
	w := NewWriter(ccsBatchHeaderLen + ccsBatchEntryLen*len(entries))
	w.U8(ccsBatchVersion)
	w.U16(uint16(len(entries)))
	for _, e := range entries {
		w.U64(e.ThreadID)
		w.U64(e.Round)
		w.U64(uint64(e.Proposed))
		w.U8(uint8(e.Op))
	}
	return w.Encoded(), nil
}

// UnmarshalCCSBatch decodes a CCS-batch payload produced by MarshalCCSBatch.
func UnmarshalCCSBatch(b []byte) ([]CCSBatchEntry, error) {
	if len(b) < ccsBatchHeaderLen {
		return nil, fmt.Errorf("%w: CCS batch %d bytes", ErrShortMessage, len(b))
	}
	r := NewReader(b)
	if v := r.U8(); v != ccsBatchVersion {
		return nil, fmt.Errorf("%w: CCS batch version %d", ErrBadVersion, v)
	}
	n := int(r.U16())
	if n == 0 {
		return nil, ErrEmptyBatch
	}
	if r.Len() != ccsBatchEntryLen*n {
		return nil, fmt.Errorf("%w: CCS batch says %d entries, have %d bytes",
			ErrTruncated, n, r.Len())
	}
	entries := make([]CCSBatchEntry, n)
	for i := range entries {
		entries[i] = CCSBatchEntry{ThreadID: r.U64(), Round: r.U64(),
			Proposed: time.Duration(r.U64()), Op: ClockOp(r.U8())}
	}
	return entries, nil
}

// RequestPayload is a remote method invocation carried to a server group.
// Timestamp, when non-zero, carries a consistent group clock value the
// request causally depends on (§5 of the paper: "includes the value of the
// consistent group clock as a timestamp in the user messages multicast to
// the different groups"); the receiving group's clock is advanced past it
// before the request executes.
type RequestPayload struct {
	InvocationID uint64
	ClientNode   uint32 // transport identity of the caller, for the reply
	Timestamp    time.Duration
	Method       string
	Body         []byte
}

// MarshalRequest encodes p.
func MarshalRequest(p RequestPayload) ([]byte, error) {
	if len(p.Method) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: method name %d bytes exceeds %d",
			len(p.Method), math.MaxUint16)
	}
	if len(p.Body) > maxPayloadLen {
		return nil, fmt.Errorf("%w: body %d bytes", ErrOversize, len(p.Body))
	}
	w := NewWriter(8 + 4 + 8 + 2 + len(p.Method) + 4 + len(p.Body))
	w.U64(p.InvocationID)
	w.U32(p.ClientNode)
	w.U64(uint64(p.Timestamp))
	w.U16(uint16(len(p.Method)))
	w.Raw([]byte(p.Method))
	w.Bytes(p.Body)
	return w.Encoded(), nil
}

// UnmarshalRequest decodes a request payload. The body aliases b.
func UnmarshalRequest(b []byte) (RequestPayload, error) {
	if len(b) < 22 {
		return RequestPayload{}, fmt.Errorf("%w: request %d bytes", ErrShortMessage, len(b))
	}
	r := NewReader(b)
	p := RequestPayload{InvocationID: r.U64(), ClientNode: r.U32(), Timestamp: time.Duration(r.U64())}
	p.Method = string(r.Raw(int(r.U16())))
	p.Body = r.Tail(maxPayloadLen)
	return p, r.Done()
}

// ReplyPayload is the server group's reply to an invocation. ReplicaNode
// identifies which replica produced this (possibly duplicate-suppressed)
// reply, for diagnostics. Timestamp carries the serving group's consistent
// group clock, so callers can propagate causal dependencies to other groups
// (§5 of the paper).
type ReplyPayload struct {
	InvocationID uint64
	ReplicaNode  uint32
	Timestamp    time.Duration
	Body         []byte
}

// MarshalReply encodes p.
func MarshalReply(p ReplyPayload) ([]byte, error) {
	if len(p.Body) > maxPayloadLen {
		return nil, fmt.Errorf("%w: body %d bytes", ErrOversize, len(p.Body))
	}
	w := NewWriter(8 + 4 + 8 + 4 + len(p.Body))
	w.U64(p.InvocationID)
	w.U32(p.ReplicaNode)
	w.U64(uint64(p.Timestamp))
	w.Bytes(p.Body)
	return w.Encoded(), nil
}

// UnmarshalReply decodes a reply payload. The body aliases b.
func UnmarshalReply(b []byte) (ReplyPayload, error) {
	if len(b) < 24 {
		return ReplyPayload{}, fmt.Errorf("%w: reply %d bytes", ErrShortMessage, len(b))
	}
	r := NewReader(b)
	p := ReplyPayload{InvocationID: r.U64(), ReplicaNode: r.U32(), Timestamp: time.Duration(r.U64()),
		Body: r.Tail(maxPayloadLen)}
	return p, r.Done()
}

// MarshalCurrentTime encodes a group clock reading as the default
// application's CurrentTime reply: 8 bytes of big-endian nanoseconds.
func MarshalCurrentTime(v time.Duration) []byte {
	w := NewWriter(8)
	w.U64(uint64(v))
	return w.Encoded()
}

// UnmarshalCurrentTime decodes a CurrentTime reply body produced by
// MarshalCurrentTime.
func UnmarshalCurrentTime(b []byte) (time.Duration, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: CurrentTime reply %d bytes, want 8", ErrTruncated, len(b))
	}
	r := NewReader(b)
	return time.Duration(r.U64()), nil
}

// CheckpointPayload carries the state transferred to a recovering replica
// (§3.2): the application state captured at the GET_STATE synchronization
// point, together with the replication infrastructure's own state — the
// group-clock value decided by the special CCS round taken immediately
// before the checkpoint and the round number it decided.
type CheckpointPayload struct {
	Round      uint64
	GroupClock time.Duration
	AppState   []byte
}

// MarshalCheckpoint encodes p.
func MarshalCheckpoint(p CheckpointPayload) ([]byte, error) {
	if len(p.AppState) > maxPayloadLen {
		return nil, fmt.Errorf("%w: state %d bytes", ErrOversize, len(p.AppState))
	}
	w := NewWriter(8 + 8 + 4 + len(p.AppState))
	w.U64(p.Round)
	w.U64(uint64(p.GroupClock))
	w.Bytes(p.AppState)
	return w.Encoded(), nil
}

// UnmarshalCheckpoint decodes a checkpoint payload. The state aliases b.
func UnmarshalCheckpoint(b []byte) (CheckpointPayload, error) {
	if len(b) < 20 {
		return CheckpointPayload{}, fmt.Errorf("%w: checkpoint %d bytes", ErrShortMessage, len(b))
	}
	r := NewReader(b)
	p := CheckpointPayload{Round: r.U64(), GroupClock: time.Duration(r.U64()), AppState: r.Tail(maxPayloadLen)}
	return p, r.Done()
}
