package baseline

import (
	"encoding/hex"
	"testing"
)

// TestWireMatchesCorpus pins the checkpoint state of PrimaryBackup: the
// bytes below are what capture encoded before it moved onto the wire codec,
// restore applies them, and a truncated, a trailing-byte and an
// oversized-count state change nothing.
func TestWireMatchesCorpus(t *testing.T) {
	const want = "00000003" + "0000000000000002" + "0000010000000000" +
		"0000000000000005" + "0000000000000000" + "0000000000000009" + "0000000000000004"
	s := &PrimaryBackup{handlers: map[uint64]*pbHandler{9: {round: 4}, 2: {round: 1 << 40}, 5: {round: 0}}}
	var state []byte
	s.capture(func(extra []byte, _ int64) { state = extra })
	if got := hex.EncodeToString(state); got != want {
		t.Fatalf("capture = %s, want %s", got, want)
	}

	rounds := func(s *PrimaryBackup) map[uint64]uint64 {
		out := make(map[uint64]uint64)
		for tid, h := range s.handlers {
			out[tid] = h.round
		}
		return out
	}
	fresh := &PrimaryBackup{handlers: make(map[uint64]*pbHandler)}
	fresh.restore(state)
	if got := rounds(fresh); len(got) != 3 || got[2] != 1<<40 || got[5] != 0 || got[9] != 4 {
		t.Fatalf("restore(capture) rounds = %v", got)
	}
	for name, bad := range map[string][]byte{
		"truncated":     state[:len(state)-1],
		"trailing byte": append(state[:len(state):len(state)], 0),
		"oversized":     append([]byte{0xff, 0xff, 0xff, 0xff}, state[4:]...),
		"short":         state[:3],
	} {
		s := &PrimaryBackup{handlers: make(map[uint64]*pbHandler)}
		s.restore(bad)
		if len(s.handlers) != 0 {
			t.Errorf("%s state was applied: %v", name, rounds(s))
		}
	}
}
