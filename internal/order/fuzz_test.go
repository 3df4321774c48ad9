package order

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cts/internal/testutil"
	"cts/internal/transport"
	"cts/internal/wire"
)

// seqCodec decodes and re-encodes one sequencer datagram type through any.
type seqCodec struct {
	decode func([]byte) (any, error)
	encode func(any) []byte
}

func seqCodecOf[T any](dec func([]byte) (*T, error), enc func(*T) []byte) seqCodec {
	return seqCodec{
		decode: func(b []byte) (any, error) { return dec(b) },
		encode: func(m any) []byte { return enc(m.(*T)) },
	}
}

// seqCodecs holds every sequencer tag's codec.
var seqCodecs = map[byte]seqCodec{
	seqTagPropose:  seqCodecOf(decodePropose, encodePropose),
	seqTagOrdered:  seqCodecOf(decodeOrdered, encodeOrdered),
	seqTagHeart:    seqCodecOf(decodeHeartbeat, encodeHeartbeat),
	seqTagAck:      seqCodecOf(decodeAck, encodeAck),
	seqTagNack:     seqCodecOf(decodeNack, encodeNack),
	seqTagElect:    seqCodecOf(decodeElect, encodeElect),
	seqTagElectAck: seqCodecOf(decodeElectAck, encodeElectAck),
	seqTagInstall:  seqCodecOf(decodeInstall, encodeInstall),
}

// seqSamples encodes one datagram per sequencer tag, every field set.
func seqSamples() map[string][]byte {
	view := ViewID{Epoch: 5, Rep: 1}
	entries := []seqEntry{
		{View: view, Seq: 41, Sender: 2, Local: 7, Safe: true, DupKey: 0xbeef, Payload: []byte("a")},
		{View: view, Seq: 42, Sender: 3, Local: 1},
	}
	return map[string][]byte{
		"propose": encodePropose(&seqPropose{View: view, Sender: 2, Local: 7, Safe: true,
			DupKey: 0xbeef, Payload: []byte("payload")}),
		"ordered":   encodeOrdered(&entries[0]),
		"heartbeat": encodeHeartbeat(&seqHeartbeat{View: view, HighSeq: 42, SafePoint: 40}),
		"ack":       encodeAck(&seqAck{View: view, From: 3, Aru: 41}),
		"nack":      encodeNack(&seqNack{View: view, From: 3, Missing: []uint64{40, 42}}),
		"elect":     encodeElect(&seqElect{Epoch: 6, Cand: 2}),
		"electack": encodeElectAck(&seqElectAck{Epoch: 6, From: 3, View: view, Delivered: 40,
			Entries: entries}),
		"install": encodeInstall(&seqInstall{Epoch: 6, View: ViewID{Epoch: 6, Rep: 2},
			Members: []transport.NodeID{2, 3}, HighSeq: 42, Entries: entries}),
	}
}

// TestSeqCodecMatchesCorpus pins the wire format: the per-tag seed corpus
// entries hold the bytes these samples encoded to when the corpus was
// committed, and the corpus's malformed variants must be rejected.
func TestSeqCodecMatchesCorpus(t *testing.T) {
	for name, pkt := range seqSamples() {
		if want := testutil.FuzzSeed(t, "FuzzSeqDecode", name); !bytes.Equal(pkt, want) {
			t.Errorf("%s encodes as %x, corpus holds %x", name, pkt, want)
		}
	}
	for _, name := range []string{"truncated-install", "trailing-byte-heartbeat", "oversized-count-nack"} {
		pkt := testutil.FuzzSeed(t, "FuzzSeqDecode", name)
		if m, err := seqCodecs[pkt[0]].decode(pkt[1:]); err == nil {
			t.Errorf("%s decodes to %+v", name, m)
		}
	}
}

// FuzzSeqDecode feeds arbitrary datagrams to the sequencer's decoders,
// which face the network. A decoder must not panic and must fail only with
// the wire codec's errors, and a message it accepts must re-encode to a
// datagram that decodes to the same message. The seed corpus
// (testdata/fuzz) holds one datagram per tag plus truncated, trailing-byte
// and oversized-count variants.
func FuzzSeqDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if len(pkt) == 0 {
			return
		}
		c, ok := seqCodecs[pkt[0]]
		if !ok {
			return
		}
		m, err := c.decode(pkt[1:])
		if err != nil {
			if !errors.Is(err, wire.ErrTruncated) && !errors.Is(err, wire.ErrOversize) && !errors.Is(err, wire.ErrTrailing) {
				t.Fatalf("decode %x: unexpected error %v", pkt, err)
			}
			return
		}
		re := c.encode(m)
		back, err := c.decode(re[1:])
		if err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("decode %x = %+v re-encodes as %x, which decodes to %+v, %v", pkt, m, re, back, err)
		}
	})
}
