package timeserve

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// validDecodeError reports whether err is one of the decoders' sentinels.
func validDecodeError(err error) bool {
	return errors.Is(err, ErrShort) || errors.Is(err, ErrMagic) || errors.Is(err, ErrVersion)
}

// FuzzParseRequest feeds arbitrary datagram prefixes to the request decoder,
// which faces the socket. It must not panic, must fail only with one of its
// sentinels, and whatever it accepts must re-encode through PutRequest to
// the same bytes (the reserved word aside, which the encoder zeroes) and
// parse back to the same value. The seed corpus is testdata/fuzz.
func FuzzParseRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := ParseRequest(b)
		if err != nil {
			if !validDecodeError(err) {
				t.Fatalf("ParseRequest(%x): unexpected error %v", b, err)
			}
			return
		}
		var enc [ReqSize]byte
		PutRequest(enc[:], q)
		if !bytes.Equal(enc[:4], b[:4]) || !bytes.Equal(enc[8:], b[8:ReqSize]) {
			t.Fatalf("ParseRequest(%x) = %+v re-encodes as %x", b, q, enc)
		}
		if back, err := ParseRequest(enc[:]); err != nil || back != q {
			t.Fatalf("round trip of %+v: got %+v, %v", q, back, err)
		}
	})
}

// FuzzParseResponse is FuzzParseRequest for the response decoder, which a
// client runs on whatever arrives at its socket. Every response byte is
// meaningful, so an accepted input must re-encode to exactly its first
// RespSize bytes.
func FuzzParseResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := ParseResponse(b)
		if err != nil {
			if !validDecodeError(err) {
				t.Fatalf("ParseResponse(%x): unexpected error %v", b, err)
			}
			return
		}
		var enc [RespSize]byte
		PutResponse(enc[:], r)
		if !bytes.Equal(enc[:], b[:RespSize]) {
			t.Fatalf("ParseResponse(%x) = %+v re-encodes as %x", b, r, enc)
		}
		if back, err := ParseResponse(enc[:]); err != nil || back != r {
			t.Fatalf("round trip of %+v: got %+v, %v", r, back, err)
		}
	})
}

// FuzzAnswerDatagram feeds arbitrary request datagrams to answerDatagram,
// the answer loop both I/O paths share. It must not panic; it answers at
// most MaxBatch queries, one RespSize reply slot each; slot i parses and
// echoes the nonce of the i-th acceptable request; and accepted plus
// dropped queries account for every ReqSize slot, plus one for a runt tail.
// The seed corpus is testdata/fuzz.
func FuzzAnswerDatagram(f *testing.F) {
	s := &Server{cfg: Config{Node: 7}}
	rd := Reading{GroupClock: time.Second, Bound: 5 * time.Microsecond, Epoch: 3}
	f.Fuzz(func(t *testing.T, in []byte, ok bool) {
		out := make([]byte, MaxBatch*RespSize)
		reply, accepted, drops := s.answerDatagram(in, out, rd, ok)
		if accepted < 0 || accepted > MaxBatch || reply != accepted*RespSize {
			t.Fatalf("%d-byte datagram: reply %d bytes for %d accepted queries", len(in), reply, accepted)
		}
		slots := len(in) / ReqSize
		if len(in)%ReqSize != 0 {
			slots++
		}
		if accepted+drops != slots {
			t.Fatalf("%d-byte datagram: %d accepted + %d dropped, want %d slots", len(in), accepted, drops, slots)
		}
		i := 0
		for off := 0; off+ReqSize <= len(in) && i < accepted; off += ReqSize {
			q, err := ParseRequest(in[off:])
			if err != nil {
				continue
			}
			r, err := ParseResponse(out[i*RespSize : reply])
			if err != nil {
				t.Fatalf("reply slot %d: %v", i, err)
			}
			if r.Nonce != q.Nonce || r.Echo != q.Echo || r.Node != 7 || r.OK() != ok {
				t.Fatalf("reply slot %d = %+v answers request %+v (lease ok %v)", i, r, q, ok)
			}
			i++
		}
		if i != accepted {
			t.Fatalf("%d queries accepted from %d acceptable requests", accepted, i)
		}
	})
}
