package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMessageRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
	}{
		{"ccs", Message{Header: Header{Type: TypeCCS, SrcGroup: 7, DstGroup: 7, Conn: 3, Seq: 42},
			Payload: MarshalCCS(CCSPayload{ThreadID: 1, Proposed: time.Second, Op: OpGettimeofday})}},
		{"empty payload", Message{Header: Header{Type: TypeGetState, SrcGroup: 1, DstGroup: 2, Conn: 9, Seq: 1}}},
		{"request", Message{Header: Header{Type: TypeRequest, SrcGroup: 1, DstGroup: 2, Conn: 5, Seq: 77},
			Payload: []byte("hello")}},
		{"max ids", Message{Header: Header{Type: TypeReply, SrcGroup: ^GroupID(0), DstGroup: ^GroupID(0),
			Conn: ^ConnID(0), Seq: ^uint64(0)}, Payload: []byte{0}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := Marshal(tt.msg)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			got, err := Unmarshal(b)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if got.Header != tt.msg.Header {
				t.Fatalf("header = %+v, want %+v", got.Header, tt.msg.Header)
			}
			if !bytes.Equal(got.Payload, tt.msg.Payload) {
				t.Fatalf("payload = %x, want %x", got.Payload, tt.msg.Payload)
			}
		})
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(typ uint8, src, dst, conn uint32, seq uint64, payload []byte) bool {
		m := Message{Header: Header{Type: MsgType(typ), SrcGroup: GroupID(src),
			DstGroup: GroupID(dst), Conn: ConnID(conn), Seq: seq}, Payload: payload}
		b, err := Marshal(m)
		if err != nil {
			return len(payload) > maxPayloadLen
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return got.Header == m.Header && bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid, err := Marshal(Message{Header: Header{Type: TypeCCS}, Payload: []byte("xy")})
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"short", valid[:5], ErrShortMessage},
		{"empty", nil, ErrShortMessage},
		{"bad magic", append([]byte{0x00}, valid[1:]...), ErrBadMagic},
		{"bad version", func() []byte {
			b := append([]byte(nil), valid...)
			b[1] = 99
			return b
		}(), ErrBadVersion},
		{"truncated payload", valid[:len(valid)-1], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xFF), ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal(tt.b); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestCCSPayloadRoundTrip(t *testing.T) {
	p := CCSPayload{ThreadID: 0xDEADBEEF, Proposed: 8*time.Hour + 10*time.Minute,
		Op: OpFtime, Special: true}
	got, err := UnmarshalCCS(MarshalCCS(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("got %+v, want %+v", got, p)
	}
}

func TestCCSPayloadNegativeProposed(t *testing.T) {
	// Offsets can make a proposed value negative in contrived tests; the
	// codec must preserve the sign.
	p := CCSPayload{ThreadID: 1, Proposed: -time.Second, Op: OpTime}
	got, err := UnmarshalCCS(MarshalCCS(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Proposed != -time.Second {
		t.Fatalf("Proposed = %v, want -1s", got.Proposed)
	}
}

func TestCCSPayloadRoundTripProperty(t *testing.T) {
	f := func(tid uint64, proposed int64, op uint8, special bool) bool {
		p := CCSPayload{ThreadID: tid, Proposed: time.Duration(proposed),
			Op: ClockOp(op), Special: special}
		got, err := UnmarshalCCS(MarshalCCS(p))
		return err == nil && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCCSPayloadWrongLength(t *testing.T) {
	if _, err := UnmarshalCCS(make([]byte, 5)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if _, err := UnmarshalCCS(make([]byte, 40)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestCCSBatchRoundTrip(t *testing.T) {
	entries := []CCSBatchEntry{
		{ThreadID: 2, Round: 7, Proposed: 8 * time.Hour, Op: OpGettimeofday},
		{ThreadID: 3, Round: 1, Proposed: -250 * time.Microsecond, Op: OpTime},
		{ThreadID: ^uint64(0), Round: ^uint64(0), Proposed: 1, Op: OpFtime},
	}
	b, err := MarshalCCSBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCCSBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], entries[i])
		}
	}
}

func TestCCSBatchRoundTripProperty(t *testing.T) {
	f := func(tids, rounds []uint64, proposed []int64, ops []uint8) bool {
		n := len(tids)
		for _, l := range []int{len(rounds), len(proposed), len(ops)} {
			if l < n {
				n = l
			}
		}
		if n == 0 {
			return true
		}
		entries := make([]CCSBatchEntry, n)
		for i := range entries {
			entries[i] = CCSBatchEntry{ThreadID: tids[i], Round: rounds[i],
				Proposed: time.Duration(proposed[i]), Op: ClockOp(ops[i])}
		}
		b, err := MarshalCCSBatch(entries)
		if err != nil {
			return false
		}
		got, err := UnmarshalCCSBatch(b)
		if err != nil || len(got) != n {
			return false
		}
		for i := range entries {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCCSBatchErrors(t *testing.T) {
	valid, err := MarshalCCSBatch([]CCSBatchEntry{{ThreadID: 2, Round: 1, Op: OpGettimeofday}})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := MarshalCCSBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("marshal empty: err = %v, want ErrEmptyBatch", err)
	}

	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"short", valid[:2], ErrShortMessage},
		{"nil", nil, ErrShortMessage},
		{"bad version", func() []byte {
			b := append([]byte(nil), valid...)
			b[0] = 9
			return b
		}(), ErrBadVersion},
		{"zero entries", []byte{ccsBatchVersion, 0, 0}, ErrEmptyBatch},
		{"truncated entry", valid[:len(valid)-1], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAB), ErrTruncated},
		{"count overstates", func() []byte {
			b := append([]byte(nil), valid...)
			b[2] = 2 // claims two entries, carries one
			return b
		}(), ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalCCSBatch(tt.b); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestCCSBatchInsideMessage(t *testing.T) {
	// A batch rides the standard message framing like any other payload.
	payload, err := MarshalCCSBatch([]CCSBatchEntry{
		{ThreadID: 2, Round: 4, Proposed: time.Minute, Op: OpGettimeofday},
		{ThreadID: 4, Round: 9, Proposed: time.Hour, Op: OpGettimeofday},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := Message{Header: Header{Type: TypeCCSBatch, SrcGroup: 7, DstGroup: 7,
		Conn: 1, Seq: 3}, Payload: payload}
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeCCSBatch {
		t.Fatalf("type = %v, want CCS_BATCH", got.Type)
	}
	entries, err := UnmarshalCCSBatch(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Round != 9 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	p := RequestPayload{InvocationID: 99, ClientNode: 4, Method: "CurrentTime",
		Body: []byte{1, 2, 3}}
	b, err := MarshalRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.InvocationID != p.InvocationID || got.ClientNode != p.ClientNode ||
		got.Method != p.Method || !bytes.Equal(got.Body, p.Body) {
		t.Fatalf("got %+v, want %+v", got, p)
	}
}

func TestRequestEmptyMethodAndBody(t *testing.T) {
	b, err := MarshalRequest(RequestPayload{InvocationID: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "" || got.Body != nil {
		t.Fatalf("got %+v, want empty method and nil body", got)
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(id uint64, node uint32, method string, body []byte) bool {
		if len(method) > 1<<16-1 {
			method = method[:1<<16-1]
		}
		p := RequestPayload{InvocationID: id, ClientNode: node, Method: method, Body: body}
		b, err := MarshalRequest(p)
		if err != nil {
			return false
		}
		got, err := UnmarshalRequest(b)
		return err == nil && got.InvocationID == p.InvocationID &&
			got.ClientNode == p.ClientNode && got.Method == p.Method &&
			bytes.Equal(got.Body, p.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestOverlongMethodRejected(t *testing.T) {
	if _, err := MarshalRequest(RequestPayload{Method: strings.Repeat("m", 1<<16)}); err == nil {
		t.Fatal("expected error for overlong method name")
	}
}

func TestRequestTruncated(t *testing.T) {
	b, err := MarshalRequest(RequestPayload{Method: "m", Body: []byte("body")})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := UnmarshalRequest(b[:cut]); err == nil {
			t.Fatalf("no error for truncation to %d bytes", cut)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	p := ReplyPayload{InvocationID: 123, ReplicaNode: 2, Body: []byte("pong")}
	b, err := MarshalReply(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalReply(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.InvocationID != p.InvocationID || got.ReplicaNode != p.ReplicaNode ||
		!bytes.Equal(got.Body, p.Body) {
		t.Fatalf("got %+v, want %+v", got, p)
	}
}

func TestReplyTruncated(t *testing.T) {
	b, err := MarshalReply(ReplyPayload{InvocationID: 1, Body: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalReply(b[:10]); err == nil {
		t.Fatal("expected error for truncated reply")
	}
	if _, err := UnmarshalReply(b[:len(b)-1]); err == nil {
		t.Fatal("expected error for truncated body")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	p := CheckpointPayload{Round: 17, GroupClock: 8*time.Hour + 25*time.Minute,
		AppState: []byte("state bytes")}
	b, err := MarshalCheckpoint(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != p.Round || got.GroupClock != p.GroupClock ||
		!bytes.Equal(got.AppState, p.AppState) {
		t.Fatalf("got %+v, want %+v", got, p)
	}
}

func TestCheckpointEmptyState(t *testing.T) {
	b, err := MarshalCheckpoint(CheckpointPayload{Round: 1, GroupClock: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppState != nil {
		t.Fatalf("AppState = %v, want nil", got.AppState)
	}
}

func TestCheckpointTruncated(t *testing.T) {
	b, err := MarshalCheckpoint(CheckpointPayload{Round: 1, AppState: []byte("xyz")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCheckpoint(b[:8]); err == nil {
		t.Fatal("expected error for truncated checkpoint")
	}
	if _, err := UnmarshalCheckpoint(b[:len(b)-2]); err == nil {
		t.Fatal("expected error for truncated state")
	}
}

// TestCurrentTimeReply: the default CurrentTime reply round-trips, and a
// body of any other length than 8 (ctsclient once indexed a short one and
// panicked) is ErrTruncated.
func TestCurrentTimeReply(t *testing.T) {
	for _, v := range []time.Duration{0, -time.Second, 1<<63 - 1} {
		if got, err := UnmarshalCurrentTime(MarshalCurrentTime(v)); err != nil || got != v {
			t.Errorf("%v round-trips to %v, %v", v, got, err)
		}
	}
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 7), make([]byte, 9)} {
		if v, err := UnmarshalCurrentTime(b); !errors.Is(err, ErrTruncated) {
			t.Errorf("%d-byte body decodes to %v, %v", len(b), v, err)
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, tt := range []struct {
		typ  MsgType
		want string
	}{
		{TypeCCS, "CCS"}, {TypeRequest, "REQUEST"}, {TypeReply, "REPLY"},
		{TypeGetState, "GET_STATE"}, {TypeCheckpoint, "CHECKPOINT"},
		{TypeCCSBatch, "CCS_BATCH"}, {MsgType(200), "MsgType(200)"},
	} {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.typ, got, tt.want)
		}
	}
}

func TestClockOpStringsAndGranularity(t *testing.T) {
	if OpGettimeofday.String() != "gettimeofday" || OpTime.String() != "time" ||
		OpFtime.String() != "ftime" || ClockOp(9).String() != "ClockOp(9)" {
		t.Fatal("ClockOp strings wrong")
	}
	if OpGettimeofday.Granularity() != time.Microsecond ||
		OpTime.Granularity() != time.Second ||
		OpFtime.Granularity() != time.Millisecond {
		t.Fatal("ClockOp granularities wrong")
	}
}
