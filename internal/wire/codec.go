package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer and Reader are the codec of every message between processes: the
// protocol envelope and its payloads, federation summaries, gcs envelopes,
// checkpoint state and the Totem and sequencer packets. Fields are
// big-endian and fixed-width, byte strings length-prefixed, lists
// count-prefixed; the Reader bounds-checks every one.

// MaxList caps every length or count a Reader accepts.
const MaxList = 1 << 20

// ErrTrailing reports bytes left over after a complete packet.
var ErrTrailing = errors.New("wire: trailing bytes")

// Writer appends fields to a buffer. The zero value is ready to use.
type Writer struct{ b []byte }

// NewWriter returns a Writer with room for size bytes.
func NewWriter(size int) Writer { return Writer{b: make([]byte, 0, size)} }

// Encoded returns the bytes written so far.
func (w *Writer) Encoded() []byte { return w.b }

func (w *Writer) U8(v uint8)   { w.b = append(w.b, v) }
func (w *Writer) U16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *Writer) U32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *Writer) U64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

// Bool writes v as one byte, 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw writes p as is, with no length prefix.
func (w *Writer) Raw(p []byte) { w.b = append(w.b, p...) }

// Bytes writes p with a u32 length prefix.
func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.Raw(p)
}

// U64s writes vs with a u32 count prefix.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// WriteU32s writes vs with a u32 count prefix.
func WriteU32s[T ~uint32](w *Writer, vs []T) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U32(uint32(v))
	}
}

// Reader consumes fields from a packet. The first short read or bad count
// latches an error: every later read returns zero, and Done reports it.
// Bytes and lists are copied out of the packet, and empty ones decode as
// nil; Raw and Tail alias it.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Done reports the latched error, or ErrTrailing if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("%w: %d", ErrTrailing, len(r.b))
	}
	return r.err
}

// Len reports how many bytes are left unread.
func (r *Reader) Len() int { return len(r.b) }

// Raw returns the next n bytes, aliasing the packet. A short read latches
// ErrTruncated and empties the Reader, so every later read fails on length
// alone.
func (r *Reader) Raw(n int) []byte {
	if n < 0 || len(r.b) < n {
		if r.err == nil {
			r.err = ErrTruncated
		}
		r.b = nil
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) U8() uint8 {
	if p := r.Raw(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if p := r.Raw(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.Raw(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.Raw(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// Bool reads one byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Count reads a u32 list count whose elements encode in at least size bytes
// each. A count above MaxList, or one the remaining bytes cannot hold, fails
// the Reader and reads as 0.
func (r *Reader) Count(size int) int {
	n := r.U32()
	if n > MaxList {
		r.err, r.b = fmt.Errorf("%w: count %d", ErrOversize, n), nil
		return 0
	}
	if int(n)*size > len(r.b) {
		r.err, r.b = fmt.Errorf("%w: count %d of %d-byte items, have %d bytes", ErrTruncated, n, size, len(r.b)), nil
		return 0
	}
	return int(n)
}

// Bytes reads a u32-length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), r.Raw(n)...)
}

// Tail reads a u32 length and returns the rest of the packet, aliased. The
// rest must be exactly that long (ErrTruncated otherwise) and at most max
// bytes (ErrOversize); an empty tail reads as nil.
func (r *Reader) Tail(max int) []byte {
	n := int(r.U32())
	switch {
	case n > max:
		r.err, r.b = fmt.Errorf("%w: %d bytes", ErrOversize, n), nil
	case n != len(r.b):
		r.err, r.b = fmt.Errorf("%w: length %d, have %d bytes", ErrTruncated, n, len(r.b)), nil
	case n > 0:
		return r.Raw(n)
	}
	return nil
}

// U64s reads a u32-count-prefixed list of u64.
func (r *Reader) U64s() []uint64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// ReadU32s reads a u32-count-prefixed list of u32.
func ReadU32s[T ~uint32](r *Reader) []T {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(r.U32())
	}
	return out
}
