package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"cts/internal/testutil"
)

// testKey authenticates the summary samples and the fuzzer's re-MAC'd
// frames.
var testKey = []byte("federation test key")

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func envelope(typ MsgType, src, dst GroupID, conn ConnID, seq uint64, payload []byte) []byte {
	return must(Marshal(Message{Header: Header{Type: typ, SrcGroup: src, DstGroup: dst, Conn: conn, Seq: seq},
		Payload: payload}))
}

var (
	sampleRequest = must(MarshalRequest(RequestPayload{InvocationID: 11, ClientNode: 4,
		Timestamp: 5 * time.Second, Method: "CurrentTime", Body: []byte("body")}))
	sampleCheckpoint = must(MarshalCheckpoint(CheckpointPayload{Round: 12, GroupClock: 7 * time.Second,
		AppState: []byte("state")}))
	sampleSummary = MarshalGroupSummary(GroupSummary{Group: 100, Sender: 2, Epoch: 9, Seq: 17,
		GroupClock: 42 * time.Second, Bound: 250 * time.Microsecond}, testKey)
)

// messageSamples encodes one message of every MsgType, each carrying a
// payload of its type with every field set.
func messageSamples() map[string][]byte {
	return map[string][]byte{
		"ccs": envelope(TypeCCS, 100, 100, 0, 42,
			MarshalCCS(CCSPayload{ThreadID: 7, Proposed: 123456789, Op: OpGettimeofday})),
		"ccs-special": envelope(TypeCCS, 100, 100, 0, 43,
			MarshalCCS(CCSPayload{ThreadID: 7, Proposed: -5, Op: OpTime, Special: true})),
		"request": envelope(TypeRequest, 900, 100, 3, 9, sampleRequest),
		"reply": envelope(TypeReply, 100, 900, 3, 9, must(MarshalReply(ReplyPayload{InvocationID: 11,
			ReplicaNode: 2, Timestamp: 6 * time.Second, Body: []byte{0, 0, 0, 1, 2, 3, 4, 5}}))),
		"get-state":  envelope(TypeGetState, 100, 100, 0, 1<<32|1, nil),
		"checkpoint": envelope(TypeCheckpoint, 100, 100, 0, 1<<32|1, sampleCheckpoint),
		"ccs-batch": envelope(TypeCCSBatch, 100, 100, 2, 0xfeedface, must(MarshalCCSBatch([]CCSBatchEntry{
			{ThreadID: 1, Round: 5, Proposed: 1000, Op: OpGettimeofday},
			{ThreadID: 2, Round: 6, Proposed: 2000, Op: OpFtime}}))),
		"ccs-fed": envelope(TypeCCSFed, 100, 100, 0, 3,
			MarshalCCSFed(CCSFedPayload{Proposed: 8 * time.Second, Slack: 3 * time.Millisecond})),
	}
}

// TestWireMatchesCorpus pins the formats: the seed corpus entries hold the
// bytes these samples encoded to when the corpus was committed, and each
// malformed entry must fail with the error it failed with then.
func TestWireMatchesCorpus(t *testing.T) {
	for name, b := range messageSamples() {
		if want := testutil.FuzzSeed(t, "FuzzMessageDecode", name); !bytes.Equal(b, want) {
			t.Errorf("%s encodes as %x, corpus holds %x", name, b, want)
		}
	}
	if want := testutil.FuzzSeed(t, "FuzzGroupSummaryDecode", "summary"); !bytes.Equal(sampleSummary, want) {
		t.Errorf("summary encodes as %x, corpus holds %x", sampleSummary, want)
	}
	for name, want := range map[string]error{
		"truncated-request":        ErrTruncated,
		"trailing-byte-checkpoint": ErrTruncated,
		"oversized-payload":        ErrOversize,
	} {
		if err := decodeMessage(testutil.FuzzSeed(t, "FuzzMessageDecode", name)); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	for name, want := range map[string]error{
		"truncated-summary":     ErrShortMessage,
		"trailing-byte-summary": ErrShortMessage,
		"bad-mac-summary":       ErrBadMAC,
	} {
		if _, err := UnmarshalGroupSummary(testutil.FuzzSeed(t, "FuzzGroupSummaryDecode", name), testKey); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
}

// decodeMessage decodes an envelope and the payload its type selects.
func decodeMessage(b []byte) error {
	m, err := Unmarshal(b)
	if err != nil {
		return err
	}
	switch m.Type {
	case TypeCCS:
		_, err = UnmarshalCCS(m.Payload)
	case TypeRequest:
		_, err = UnmarshalRequest(m.Payload)
	case TypeReply:
		_, err = UnmarshalReply(m.Payload)
	case TypeCheckpoint:
		_, err = UnmarshalCheckpoint(m.Payload)
	case TypeCCSBatch:
		_, err = UnmarshalCCSBatch(m.Payload)
	case TypeCCSFed:
		_, err = UnmarshalCCSFed(m.Payload)
	}
	return err
}

// decodeErrs are the failures a decoder may report.
var decodeErrs = []error{ErrShortMessage, ErrBadMagic, ErrBadVersion, ErrTruncated,
	ErrOversize, ErrTrailing, ErrEmptyBatch, ErrBadMAC}

// roundTrip decodes b, checks the failure or the re-encode round trip, and
// returns the decoded value (zero on failure).
func roundTrip[T any](t *testing.T, b []byte, dec func([]byte) (T, error), enc func(T) []byte) T {
	t.Helper()
	v, err := dec(b)
	if err != nil {
		for _, e := range decodeErrs {
			if errors.Is(err, e) {
				var zero T
				return zero
			}
		}
		t.Fatalf("decode %x: unexpected error %v", b, err)
	}
	re := enc(v)
	if back, err := dec(re); err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("decode %x = %+v re-encodes as %x, which decodes to %+v, %v", b, v, re, back, err)
	}
	return v
}

func ignoreErr[T any](enc func(T) ([]byte, error)) func(T) []byte {
	return func(v T) []byte { return must(enc(v)) }
}

// FuzzMessageDecode feeds arbitrary bytes to the envelope decoder and the
// payload decoder its type selects. A decoder must not panic and must fail
// only with the package's errors, and a value it accepts must re-encode to
// bytes that decode to the same value. The seed corpus (testdata/fuzz)
// holds one message of every type plus truncated, trailing-byte and
// oversized-length entries.
func FuzzMessageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		m := roundTrip(t, b, Unmarshal, ignoreErr(Marshal))
		switch m.Type {
		case TypeCCS:
			roundTrip(t, m.Payload, UnmarshalCCS, MarshalCCS)
		case TypeRequest:
			roundTrip(t, m.Payload, UnmarshalRequest, ignoreErr(MarshalRequest))
		case TypeReply:
			roundTrip(t, m.Payload, UnmarshalReply, ignoreErr(MarshalReply))
		case TypeCheckpoint:
			roundTrip(t, m.Payload, UnmarshalCheckpoint, ignoreErr(MarshalCheckpoint))
		case TypeCCSBatch:
			roundTrip(t, m.Payload, UnmarshalCCSBatch, ignoreErr(MarshalCCSBatch))
		case TypeCCSFed:
			roundTrip(t, m.Payload, UnmarshalCCSFed, MarshalCCSFed)
		}
	})
}

// FuzzGroupSummaryDecode feeds arbitrary frames to the summary decoder,
// each as it came and again with its authenticator recomputed under the
// test key, so that frames whose MAC verifies but whose fields are
// malformed reach the field checks.
func FuzzGroupSummaryDecode(f *testing.F) {
	dec := func(b []byte) (GroupSummary, error) { return UnmarshalGroupSummary(b, testKey) }
	enc := func(p GroupSummary) []byte { return MarshalGroupSummary(p, testKey) }
	f.Fuzz(func(t *testing.T, b []byte) {
		roundTrip(t, b, dec, enc)
		if len(b) >= groupSummaryLen {
			signed := append(b[:groupSummaryLen:groupSummaryLen], summaryMAC(testKey, b[:groupSummaryLen])...)
			roundTrip(t, signed, dec, enc)
		}
	})
}
