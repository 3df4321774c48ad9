package wire

import (
	"errors"
	"slices"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(7)
	w.Bool(true)
	w.U32(1 << 31)
	w.U64(1 << 63)
	w.Bytes([]byte("xy"))
	w.Bytes(nil)
	w.U64s([]uint64{1, 2})
	WriteU32s(&w, []uint32{3, 4, 5})

	r := NewReader(w.Encoded())
	if v := r.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.U32(); v != 1<<31 {
		t.Errorf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<63 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.Bytes(); string(v) != "xy" {
		t.Errorf("Bytes = %q", v)
	}
	if v := r.Bytes(); v != nil {
		t.Errorf("empty Bytes = %#v, want nil", v)
	}
	if v := r.U64s(); !slices.Equal(v, []uint64{1, 2}) {
		t.Errorf("U64s = %v", v)
	}
	if v := ReadU32s[uint32](&r); !slices.Equal(v, []uint32{3, 4, 5}) {
		t.Errorf("ReadU32s = %v", v)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		read func(*Reader)
		want error
	}{
		{"short", []byte{1, 2, 3}, func(r *Reader) { r.U32() }, ErrTruncated},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.U8() }, ErrTrailing},
		{"count over MaxList", []byte{0, 0x10, 0, 1}, func(r *Reader) { r.U64s() }, ErrOversize},
		{"count past the end", []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1}, func(r *Reader) { r.U64s() }, ErrTruncated},
		// The first failure latches: the later reads see zeros, not the
		// bytes the failed read skipped.
		{"sticky", []byte{0, 0, 0, 9, 0, 0, 0, 0}, func(r *Reader) {
			if r.Bytes() != nil || r.U32() != 0 {
				panic("read after a failure returned data")
			}
		}, ErrTruncated},
	} {
		r := NewReader(tc.b)
		tc.read(&r)
		if err := r.Done(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Done = %v, want %v", tc.name, err, tc.want)
		}
	}
}
