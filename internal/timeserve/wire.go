// Package timeserve is the external time-serving frontend: an SNTP-style
// binary UDP query protocol that hands the replica group's consistent clock
// to unreplicated clients at high rates. A query is answered from the
// replica's current lease (core.LeaseRead) without starting a CCS round, so
// serving throughput is decoupled from agreement throughput — the same
// amortize-the-agreement move gradient-clock systems use to bound skew
// without per-read coordination.
//
// Wire format (all integers big-endian):
//
//	request  (24 bytes): magic(2) version(1) flags(1) reserved(4) nonce(8) echo(8)
//	response (48 bytes): magic(2) version(1) flags(1) node(4) nonce(8) echo(8)
//	                     group_ns(8) bound_ns(8) epoch(8)
//
// A datagram carries 1..MaxBatch requests back to back; the response
// datagram carries one 48-byte response per accepted request, in order.
// Batching amortizes the per-datagram syscall cost, which dominates on
// loaded servers. The nonce matches responses to requests; the echo field is
// returned verbatim (clients put their send timestamp there to measure RTT
// without keeping per-request state). Epoch is the replica's lease epoch:
// it changes whenever group membership changes (including synchronizer
// failover), telling clients that cached leases from the old configuration
// are void.
package timeserve

import (
	"encoding/binary"
	"errors"
	"time"
)

// Protocol constants.
const (
	Magic   = 0x4354 // "CT"
	Version = 1

	// ReqSize and RespSize are the fixed encodings of one query and one
	// answer.
	ReqSize  = 24
	RespSize = 48

	// MaxBatch bounds the queries accepted from one datagram; requests
	// beyond it are dropped (and counted). 64 responses fit in 3 KB, inside
	// any sane path MTU budget for a single reassembled datagram.
	MaxBatch = 64

	// MaxDatagram is the largest datagram either side reads.
	MaxDatagram = 64 * 1024
)

// Response flags.
const (
	// FlagOK marks an answer served from a valid lease.
	FlagOK = 1 << 0
	// FlagStale marks a refusal: the replica holds no valid lease (never
	// synchronized, lease expired, or invalidated by a membership change).
	// GroupClock and Bound are zero; clients must try another replica.
	FlagStale = 1 << 1
)

// Request is one time query.
type Request struct {
	Flags byte
	Nonce uint64
	Echo  uint64
}

// Response is one answered (or refused) time query.
type Response struct {
	Flags byte
	Node  uint32
	Nonce uint64
	Echo  uint64
	Group time.Duration // group clock value
	Bound time.Duration // staleness bound: |true group clock − Group| ≤ Bound
	Epoch uint64        // lease epoch the answer was served under
}

// OK reports whether the response carries a leased reading.
func (r Response) OK() bool { return r.Flags&FlagOK != 0 }

// Errors returned by the decoders.
var (
	ErrShort   = errors.New("timeserve: short message")
	ErrMagic   = errors.New("timeserve: bad magic")
	ErrVersion = errors.New("timeserve: unsupported version")
)

// PutRequest encodes q into b, which must hold at least ReqSize bytes.
// It is the zero-allocation encoder the batched client path writes through.
//
//cts:allocfree
func PutRequest(b []byte, q Request) {
	_ = b[ReqSize-1]
	binary.BigEndian.PutUint16(b[0:], Magic)
	b[2] = Version
	b[3] = q.Flags
	binary.BigEndian.PutUint32(b[4:], 0)
	binary.BigEndian.PutUint64(b[8:], q.Nonce)
	binary.BigEndian.PutUint64(b[16:], q.Echo)
}

// AppendRequest appends q's encoding to buf.
func AppendRequest(buf []byte, q Request) []byte {
	var b [ReqSize]byte
	PutRequest(b[:], q)
	return append(buf, b[:]...)
}

// ParseRequest decodes one request from the front of b.
//
//cts:allocfree
func ParseRequest(b []byte) (Request, error) {
	if len(b) < ReqSize {
		return Request{}, ErrShort
	}
	if binary.BigEndian.Uint16(b[0:]) != Magic {
		return Request{}, ErrMagic
	}
	if b[2] != Version {
		return Request{}, ErrVersion
	}
	return Request{
		Flags: b[3],
		Nonce: binary.BigEndian.Uint64(b[8:]),
		Echo:  binary.BigEndian.Uint64(b[16:]),
	}, nil
}

// PutResponse encodes r into b, which must hold at least RespSize bytes.
// The serve loop writes responses through this into a pre-grown reply
// buffer, so steady-state serving never touches the allocator.
//
//cts:allocfree
func PutResponse(b []byte, r Response) {
	_ = b[RespSize-1]
	binary.BigEndian.PutUint16(b[0:], Magic)
	b[2] = Version
	b[3] = r.Flags
	binary.BigEndian.PutUint32(b[4:], r.Node)
	binary.BigEndian.PutUint64(b[8:], r.Nonce)
	binary.BigEndian.PutUint64(b[16:], r.Echo)
	binary.BigEndian.PutUint64(b[24:], uint64(r.Group))
	binary.BigEndian.PutUint64(b[32:], uint64(r.Bound))
	binary.BigEndian.PutUint64(b[40:], r.Epoch)
}

// ParseResponse decodes one response from the front of b.
//
//cts:allocfree
func ParseResponse(b []byte) (Response, error) {
	if len(b) < RespSize {
		return Response{}, ErrShort
	}
	if binary.BigEndian.Uint16(b[0:]) != Magic {
		return Response{}, ErrMagic
	}
	if b[2] != Version {
		return Response{}, ErrVersion
	}
	return Response{
		Flags: b[3],
		Node:  binary.BigEndian.Uint32(b[4:]),
		Nonce: binary.BigEndian.Uint64(b[8:]),
		Echo:  binary.BigEndian.Uint64(b[16:]),
		Group: time.Duration(binary.BigEndian.Uint64(b[24:])),
		Bound: time.Duration(binary.BigEndian.Uint64(b[32:])),
		Epoch: binary.BigEndian.Uint64(b[40:]),
	}, nil
}
