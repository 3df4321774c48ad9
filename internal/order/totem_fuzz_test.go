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

// totemCodec decodes and re-encodes one Totem packet type through any.
type totemCodec struct {
	decode func([]byte) (any, error)
	encode func(any) []byte
}

func totemCodecOf[T any](dec func([]byte) (*T, error), enc func(*T) []byte) totemCodec {
	return totemCodec{
		decode: func(b []byte) (any, error) { return dec(b) },
		encode: func(m any) []byte { return enc(m.(*T)) },
	}
}

// totemCodecs holds every Totem packet tag's codec.
var totemCodecs = map[byte]totemCodec{
	pktData: totemCodecOf(decodeData, encodeData),
	pktToken: totemCodecOf(decodeToken, func(t *ringToken) []byte {
		b, _ := encodeToken(t)
		return b
	}),
	pktJoin:     totemCodecOf(decodeJoin, encodeJoin),
	pktCommit:   totemCodecOf(decodeCommit, encodeCommit),
	pktAnnounce: totemCodecOf(decodeAnnounce, encodeAnnounce),
}

// totemSamples encodes one message per Totem packet tag, every field set.
func totemSamples() map[string][]byte {
	tok, _ := encodeToken(&ringToken{Ring: ViewID{Epoch: 7, Rep: 1}, TokenSeq: 9, Seq: 42,
		Aru: 40, AruID: 3, Rtr: []uint64{41, 42}, Fcc: 2})
	return map[string][]byte{
		"data": encodeData(&dataMsg{Ring: ViewID{Epoch: 7, Rep: 1}, Seq: 42, Sender: 3,
			Kind: msgRecovery, Safe: true, DupKey: 0xdeadbeef, OldRing: ViewID{Epoch: 6, Rep: 2},
			OldSeq: 40, OldSndr: 2, Payload: []byte("payload")}),
		"token": tok,
		"join": encodeJoin(&joinMsg{Sender: 2, ProcSet: []transport.NodeID{1, 2, 3},
			FailSet: []transport.NodeID{4}, MaxRingSeq: 7}),
		"commit": encodeCommit(&commitToken{Ring: ViewID{Epoch: 8, Rep: 1}, Members: []transport.NodeID{1, 2},
			Infos: []memberInfo{
				{ID: 1, OldRing: ViewID{Epoch: 7, Rep: 1}, Aru: 40, HighSeq: 42, Received: []uint64{42}},
				{ID: 2, OldRing: ViewID{Epoch: 6, Rep: 2}, Aru: 39, HighSeq: 39},
			}}),
		"announce": encodeAnnounce(&announceMsg{Ring: ViewID{Epoch: 7, Rep: 1}, Members: []transport.NodeID{1, 2, 3}}),
	}
}

// TestCodecMatchesCorpus pins the wire format: the per-tag seed corpus
// entries hold the bytes these samples encoded to when the corpus was
// committed, and the corpus's malformed variants must be rejected.
func TestCodecMatchesCorpus(t *testing.T) {
	for name, pkt := range totemSamples() {
		if want := testutil.FuzzSeed(t, "FuzzTotemDecode", name); !bytes.Equal(pkt, want) {
			t.Errorf("%s encodes as %x, corpus holds %x", name, pkt, want)
		}
	}
	for _, name := range []string{"truncated-token", "trailing-byte-data", "oversized-count-join"} {
		pkt := testutil.FuzzSeed(t, "FuzzTotemDecode", name)
		if m, err := totemCodecs[pkt[0]].decode(pkt[1:]); err == nil {
			t.Errorf("%s decodes to %+v", name, m)
		}
	}
}

// FuzzTotemDecode feeds arbitrary datagrams to the packet decoders, which
// face the network. A decoder must not panic and must fail only with the
// wire codec's errors, and a message it accepts must re-encode to a packet
// that decodes to the same message. The seed corpus (testdata/fuzz) holds
// one packet per tag plus truncated, trailing-byte and oversized-count
// variants.
func FuzzTotemDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if len(pkt) == 0 {
			return
		}
		c, ok := totemCodecs[pkt[0]]
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
