package timeserve

import (
	"bytes"
	"errors"
	"testing"
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
