package totem

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cts/internal/testutil"
	"cts/internal/transport"
	"cts/internal/wire"
)

// codec decodes and re-encodes one packet type through any.
type codec struct {
	decode func([]byte) (any, error)
	encode func(any) []byte
}

func codecOf[T any](dec func([]byte) (*T, error), enc func(*T) []byte) codec {
	return codec{
		decode: func(b []byte) (any, error) { return dec(b) },
		encode: func(m any) []byte { return enc(m.(*T)) },
	}
}

// codecs holds every packet tag's codec.
var codecs = map[byte]codec{
	pktData: codecOf(decodeData, encodeData),
	pktToken: codecOf(decodeToken, func(t *Token) []byte {
		b, _ := encodeToken(t)
		return b
	}),
	pktJoin:     codecOf(decodeJoin, encodeJoin),
	pktCommit:   codecOf(decodeCommit, encodeCommit),
	pktAnnounce: codecOf(decodeAnnounce, encodeAnnounce),
}

// codecSamples encodes one message per packet tag, every field set.
func codecSamples() map[string][]byte {
	tok, _ := encodeToken(&Token{Ring: RingID{Seq: 7, Rep: 1}, TokenSeq: 9, Seq: 42,
		Aru: 40, AruID: 3, Rtr: []uint64{41, 42}, Fcc: 2})
	return map[string][]byte{
		"data": encodeData(&DataMsg{Ring: RingID{Seq: 7, Rep: 1}, Seq: 42, Sender: 3,
			Kind: KindRecovery, Safe: true, DupKey: 0xdeadbeef, OldRing: RingID{Seq: 6, Rep: 2},
			OldSeq: 40, OldSndr: 2, Payload: []byte("payload")}),
		"token": tok,
		"join": encodeJoin(&JoinMsg{Sender: 2, ProcSet: []transport.NodeID{1, 2, 3},
			FailSet: []transport.NodeID{4}, MaxRingSeq: 7}),
		"commit": encodeCommit(&CommitToken{Ring: RingID{Seq: 8, Rep: 1}, Members: []transport.NodeID{1, 2},
			Infos: []MemberInfo{
				{ID: 1, OldRing: RingID{Seq: 7, Rep: 1}, Aru: 40, HighSeq: 42, Received: []uint64{42}},
				{ID: 2, OldRing: RingID{Seq: 6, Rep: 2}, Aru: 39, HighSeq: 39},
			}}),
		"announce": encodeAnnounce(&announceMsg{Ring: RingID{Seq: 7, Rep: 1}, Members: []transport.NodeID{1, 2, 3}}),
	}
}

// TestCodecMatchesCorpus pins the wire format: the per-tag seed corpus
// entries hold the bytes these samples encoded to when the corpus was
// committed, and the corpus's malformed variants must be rejected.
func TestCodecMatchesCorpus(t *testing.T) {
	for name, pkt := range codecSamples() {
		if want := testutil.FuzzSeed(t, "FuzzTotemDecode", name); !bytes.Equal(pkt, want) {
			t.Errorf("%s encodes as %x, corpus holds %x", name, pkt, want)
		}
	}
	for _, name := range []string{"truncated-token", "trailing-byte-data", "oversized-count-join"} {
		pkt := testutil.FuzzSeed(t, "FuzzTotemDecode", name)
		if m, err := codecs[pkt[0]].decode(pkt[1:]); err == nil {
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
		c, ok := codecs[pkt[0]]
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
