package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"cts/internal/hwclock"
	"cts/internal/testutil"
	"cts/internal/wire"
)

// checkpointSamples builds time services whose checkpoint state covers each
// part of the table: nothing, live and restored thread rounds, and the
// refresh and federation counters with a projected federation slack.
func checkpointSamples() map[string]*TimeService {
	reads := &TimeService{
		handlers:   map[uint64]*ccsHandler{1: {threadID: 1, round: 42}},
		pendingRnd: map[uint64]uint64{7: 9},
		special:    ccsHandler{round: 3},
		lastGroup:  8 * time.Hour,
	}
	all := &TimeService{
		clock:      hwclock.NewSim(func() time.Duration { return 5 * time.Second }),
		handlers:   map[uint64]*ccsHandler{2: {threadID: 2}, 5: {threadID: 5, round: 10}},
		pendingRnd: map[uint64]uint64{5: 12, 9: 1},
		special:    ccsHandler{round: 2},
		lastGroup:  90 * time.Minute,
	}
	all.lease.refresh.round = 4
	all.fed = fedState{enabled: true, agingPPM: 100, slack: time.Millisecond, anchor: 4 * time.Second}
	all.fed.handler.round = 6
	return map[string]*TimeService{"empty": {}, "reads": reads, "all": all}
}

// messageSamples encodes one delivered message per CCS type, every field set.
func messageSamples() map[string][]byte {
	msg := func(typ wire.MsgType, conn wire.ConnID, seq uint64, payload []byte) []byte {
		b, err := wire.Marshal(wire.Message{Header: wire.Header{Type: typ,
			SrcGroup: serverGroup, DstGroup: serverGroup, Conn: conn, Seq: seq}, Payload: payload})
		if err != nil {
			panic(err)
		}
		return b
	}
	batch, err := wire.MarshalCCSBatch([]wire.CCSBatchEntry{
		{ThreadID: 1, Round: 4, Proposed: 3 * time.Second, Op: wire.OpGettimeofday},
		{ThreadID: RefreshThreadID, Round: 9, Proposed: 3*time.Second + time.Microsecond, Op: wire.OpTime},
	})
	if err != nil {
		panic(err)
	}
	return map[string][]byte{
		"ccs": msg(wire.TypeCCS, 7, 3, wire.MarshalCCS(wire.CCSPayload{
			ThreadID: 7, Proposed: 2 * time.Second, Op: wire.OpFtime, Special: true})),
		"ccsbatch": msg(wire.TypeCCSBatch, 2, 5, batch),
		"ccsfed": msg(wire.TypeCCSFed, wire.ConnID(FedThreadID&0xFFFFFFFF), 11,
			wire.MarshalCCSFed(wire.CCSFedPayload{Proposed: time.Hour, Slack: 4 * time.Millisecond})),
	}
}

// TestStateCodecMatchesCorpus pins the checkpoint format: each sample encodes
// to the bytes checkpoints held when the table was written, the corpus holds
// the same bytes for "all" and every message sample, and the corpus's
// malformed entries are rejected.
func TestStateCodecMatchesCorpus(t *testing.T) {
	want := map[string]string{
		"empty": "000000000000000000000000000000000000000000000000000000000000000000000000",
		"reads": "000000000000000300001a3185c5000000000000000000000000000000000000000000020000000000000001" +
			"000000000000002a00000000000000070000000000000009",
		"all": "0000000000000002000004e94914f0000000000000000006000000000010c8e0000000040000000000000002" +
			"00000000000000000000000000000005000000000000000c00000000000000090000000000000001" +
			"ffffffffffffffff0000000000000004",
	}
	for name, s := range checkpointSamples() {
		if got := hex.EncodeToString(s.encodeState()); got != want[name] {
			t.Errorf("%s checkpoint encodes as %s, want %s", name, got, want[name])
		}
	}
	seeds := messageSamples()
	seeds["checkpoint"] = checkpointSamples()["all"].encodeState()
	for name, b := range seeds {
		if seed := testutil.FuzzSeed(t, "FuzzCCSDecode", name); !bytes.Equal(b, seed) {
			t.Errorf("%s encodes as %x, corpus holds %x", name, b, seed)
		}
	}
	for _, name := range []string{"trailing-byte-checkpoint", "oversized-count-checkpoint"} {
		if st, err := decodeState(testutil.FuzzSeed(t, "FuzzCCSDecode", name)); err == nil {
			t.Errorf("%s decodes to %+v", name, st)
		}
	}
	m, err := wire.Unmarshal(testutil.FuzzSeed(t, "FuzzCCSDecode", "truncated-ccs"))
	if err != nil {
		t.Fatal(err)
	}
	if p, err := wire.UnmarshalCCS(m.Payload); err == nil {
		t.Errorf("truncated-ccs decodes to %+v", p)
	}
}

// FuzzCCSDecode feeds arbitrary bytes to every decoder between a delivered
// CCS message and the round state: the message header, the payload decoder
// its type selects, and the checkpoint state decoder. A decoder must not
// panic and must fail only with a wire error, and a value it accepts must
// re-encode to bytes that decode to the same value. The seed corpus
// (testdata/fuzz) holds one message per CCS type and one checkpoint state,
// plus truncated, trailing-byte and oversized-count entries.
func FuzzCCSDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		roundTrip(t, b, decodeState, ccsState.encode)
		msg := roundTrip(t, b, wire.Unmarshal, func(m wire.Message) []byte {
			out, _ := wire.Marshal(m)
			return out
		})
		switch msg.Type {
		case wire.TypeCCS:
			roundTrip(t, msg.Payload, wire.UnmarshalCCS, wire.MarshalCCS)
		case wire.TypeCCSBatch:
			roundTrip(t, msg.Payload, wire.UnmarshalCCSBatch, func(es []wire.CCSBatchEntry) []byte {
				out, _ := wire.MarshalCCSBatch(es)
				return out
			})
		case wire.TypeCCSFed:
			roundTrip(t, msg.Payload, wire.UnmarshalCCSFed, wire.MarshalCCSFed)
		}
	})
}

// decodeErrs are the failures a decoder may report.
var decodeErrs = []error{wire.ErrShortMessage, wire.ErrBadMagic, wire.ErrBadVersion,
	wire.ErrTruncated, wire.ErrOversize, wire.ErrTrailing, wire.ErrEmptyBatch}

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
