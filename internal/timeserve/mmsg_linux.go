//go:build linux && (amd64 || arm64)

// Batched kernel I/O, one ring type for both ends of the protocol. Each
// server shard drains its socket with recvmmsg into a preallocated ring of
// mmsghdr/iovec/sockaddr buffers, answers every datagram in the drain from
// ONE lease snapshot (steady-state mode: the lease changes far more slowly
// than a drain lasts, so one extrapolation covers the whole batch), and
// flushes the replies with a single sendmmsg — two syscalls for up to
// mmsgRecvMsgs datagrams instead of one recvfrom + one sendto per datagram.
// The client's exchanges run the same ring the other way round over a
// connected socket: one sendmmsg for every request datagram of a burst, then
// recvmmsg until each is answered. The responses Query, QueryBatch and
// QueryBurst parse out of it land in one reused slice, valid until the
// client's next call. Raw Syscall6 over the stdlib syscall package, no
// golang.org/x/sys, mirroring the SO_REUSEPORT shim in reuseport_linux.go;
// the per-arch syscall numbers live in mmsg_linux_<arch>.go.
//
// The path integrates with the runtime netpoller through syscall.RawConn:
// the read and write closures are created once per ring (never in the
// loop), attempt one non-blocking syscall each, and return false on EAGAIN
// so the goroutine parks until the fd is ready instead of spinning. Partial
// sendmmsg completions resume from the first unsent datagram; EINTR retries;
// ENOSYS/EPERM/EOPNOTSUPP before the first success degrades a shard to the
// sequential serveLoop and a client to sequential writes and reads (seccomp
// filters and exotic kernels).

package timeserve

import (
	"fmt"
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// mmsgSupported: this build carries the batched path.
const mmsgSupported = true

const (
	// mmsgRecvMsgs is the recvmmsg drain depth: datagrams per syscall.
	mmsgRecvMsgs = 32
	// mmsgRecvSlot is the per-datagram receive buffer. A full conforming
	// request datagram is MaxBatch*ReqSize = 1536 bytes; anything larger is
	// truncated by the kernel (MSG_TRUNC) and the lost tail counted as a
	// drop, matching the sequential path's over-batch backpressure.
	mmsgRecvSlot = 4096
	// mmsgReplySlot is the per-datagram reply buffer: MaxBatch responses.
	mmsgReplySlot = MaxBatch * RespSize

	// clientSendSlot is a client's per-datagram request buffer.
	clientSendSlot = MaxBatch * ReqSize
	// clientRecvSlot is a client's per-datagram response buffer.
	clientRecvSlot = MaxBatch * RespSize
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the number
// of bytes the kernel transferred for that message.
type mmsghdr struct {
	hdr    syscall.Msghdr
	length uint32
	_      [4]byte
}

// Injection points for fault tests: short sendmmsg completions, EAGAIN and
// ENOSYS are simulated by swapping these for wrappers around the raw calls.
var (
	recvmmsgFn = rawRecvmmsg
	sendmmsgFn = rawSendmmsg
)

// rawRecvmmsg receives up to len(hdrs) datagrams in one syscall.
func rawRecvmmsg(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	return int(n), errno
}

// rawSendmmsg sends up to len(hdrs) datagrams in one syscall; the return
// counts how many the kernel accepted (short completions are normal).
func rawSendmmsg(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), 0, 0, 0)
	return int(n), errno
}

// mmsgMissing reports whether a batched syscall's errno means this kernel
// (or its seccomp filter) lacks the batched path. Before the first success
// on a ring it degrades the caller to the sequential path; afterwards it is
// an ordinary I/O error.
func mmsgMissing(errno syscall.Errno) bool {
	return errno == syscall.ENOSYS || errno == syscall.EPERM || errno == syscall.EOPNOTSUPP
}

// mmsgRing is one socket's preallocated batched-I/O state: receive buffers,
// send buffers, the mmsghdr/iovec arrays the syscalls scatter into, and the
// once-created netpoller closures. Nothing here is allocated after
// newMmsgRing; every drain and flush reuses it.
type mmsgRing struct {
	rc    syscall.RawConn
	rslot int    // bytes per receive slot
	rbuf  []byte // receive slots, back to back
	wbuf  []byte // send slots, back to back
	// names holds each received datagram's source address, where replies
	// go back to; nil on a client's connected socket.
	names []syscall.RawSockaddrAny
	riov  []syscall.Iovec
	wiov  []syscall.Iovec
	rhdr  []mmsghdr
	whdr  []mmsghdr
	// waccepted[j] is the query count encoded into a shard's staged reply
	// j, so a failed flush can charge the drop counter exactly.
	waccepted []uint32

	rwant  int           // datagrams the next drain may take
	nrecv  int           // datagrams in the current drain
	rerr   syscall.Errno // fatal recv errno (EAGAIN/EINTR are absorbed)
	wcount int           // datagrams staged for the flush
	wsent  int           // datagrams the kernel has accepted (resume point)
	werr   syscall.Errno // fatal send errno

	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
}

// newMmsgRing allocates a ring over rc and wires its scatter tables and
// netpoller closures. sh is the serving shard, or nil for a client. A shard
// gets mmsgRecvMsgs slots of mmsgRecvSlot/mmsgReplySlot bytes, a source
// address per slot (its socket is unconnected) and a syscall count in sh; a
// client gets MaxBurst slots of clientRecvSlot/clientSendSlot bytes.
func newMmsgRing(rc syscall.RawConn, sh *shard) *mmsgRing {
	slots, rslot, wslot := MaxBurst, clientRecvSlot, clientSendSlot
	if sh != nil {
		slots, rslot, wslot = mmsgRecvMsgs, mmsgRecvSlot, mmsgReplySlot
	}
	r := &mmsgRing{
		rc:    rc,
		rslot: rslot,
		rbuf:  make([]byte, slots*rslot),
		wbuf:  make([]byte, slots*wslot),
		riov:  make([]syscall.Iovec, slots),
		wiov:  make([]syscall.Iovec, slots),
		rhdr:  make([]mmsghdr, slots),
		whdr:  make([]mmsghdr, slots),
	}
	if sh != nil {
		r.names = make([]syscall.RawSockaddrAny, slots)
		r.waccepted = make([]uint32, slots)
	}
	for i := 0; i < slots; i++ {
		r.riov[i].Base = &r.rbuf[i*rslot]
		r.riov[i].Len = uint64(rslot)
		r.rhdr[i].hdr.Iov = &r.riov[i]
		r.rhdr[i].hdr.Iovlen = 1
		r.whdr[i].hdr.Iov = &r.wiov[i]
		r.whdr[i].hdr.Iovlen = 1
	}
	for i := range r.names {
		r.rhdr[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
	}
	r.readFn = func(fd uintptr) bool {
		n, errno := recvmmsgFn(fd, r.rhdr[:r.rwant])
		if sh != nil {
			sh.syscalls.Add(1)
		}
		switch errno {
		case 0:
			r.nrecv, r.rerr = n, 0
			return true
		case syscall.EAGAIN:
			r.nrecv, r.rerr = 0, 0
			return false // park on the netpoller until readable
		case syscall.EINTR:
			r.nrecv, r.rerr = 0, 0
			return true // outer loop retries
		default:
			r.nrecv, r.rerr = 0, errno
			return true
		}
	}
	r.writeFn = func(fd uintptr) bool {
		n, errno := sendmmsgFn(fd, r.whdr[r.wsent:r.wcount])
		if sh != nil {
			sh.syscalls.Add(1)
		}
		switch {
		case errno == syscall.EAGAIN:
			return false // park until writable, then resume
		case errno == syscall.EINTR:
			return true // outer loop retries
		case errno != 0:
			r.werr = errno
			return true
		case n == 0:
			r.werr = syscall.EIO // kernel made no progress: avoid spinning
			return true
		}
		r.wsent += n
		return true
	}
	return r
}

// resetRecv arms a drain of up to want datagrams. The kernel reads each
// Namelen as the sockaddr buffer size and overwrites it with the actual
// source address length, so a shard's ring restores them first.
func (r *mmsgRing) resetRecv(want int) {
	r.rwant = want
	for i := range r.names {
		r.rhdr[i].hdr.Namelen = uint32(syscall.SizeofSockaddrAny)
	}
}

// received returns datagram i of the current drain, clamped to its slot
// (the kernel reports a truncated datagram's full length).
func (r *mmsgRing) received(i int) []byte {
	n := int(r.rhdr[i].length)
	if n > r.rslot {
		n = r.rslot
	}
	return r.rbuf[i*r.rslot : i*r.rslot+n]
}

// dropUnsent charges every reply the flush could not hand to the kernel to
// the shard's drop counter, query by query, and abandons the batch.
func (r *mmsgRing) dropUnsent(sh *shard) {
	for j := r.wsent; j < r.wcount; j++ {
		sh.drops.Add(uint64(r.waccepted[j]))
	}
	r.wsent = r.wcount
}

// serveBatched runs one shard on the batched path. It returns false when the
// connection cannot expose a raw fd or the first drain proves the syscalls
// unavailable — the caller then falls back to the sequential loop.
func (s *Server) serveBatched(pc net.PacketConn, sh *shard) bool {
	sc, ok := pc.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	return s.batchLoop(sh, newMmsgRing(rc, sh))
}

// batchLoop is the batched serve loop: drain the socket with one recvmmsg,
// answer every datagram from one lease snapshot, flush the replies with
// sendmmsg, resuming short completions. Everything it touches was
// preallocated by newMmsgRing; the loop allocates nothing in steady state,
// and ctslint's allocfree rule proves it for every callee it can see (the
// netpoller closures attempt one syscall each and are gated dynamically by
// the 0 allocs/op test instead).
//
//cts:allocfree
func (s *Server) batchLoop(sh *shard, r *mmsgRing) bool {
	proven := false // one drain has succeeded: the syscalls exist
	rc := r.rc      // allocfree vouches for rc.Read/rc.Write by this name
	for {
		r.resetRecv(mmsgRecvMsgs)
		if err := rc.Read(r.readFn); err != nil {
			if s.closed.Load() {
				return true
			}
			continue
		}
		if r.rerr != 0 {
			if s.closed.Load() {
				return true
			}
			if !proven && mmsgMissing(r.rerr) {
				return false // no batched syscalls here: degrade to serveLoop
			}
			continue
		}
		if r.nrecv == 0 {
			continue // EINTR
		}
		proven = true
		s.mmsgDrains.Add(1)
		sh.datagrams.Add(uint64(r.nrecv))
		s.serveBatch(sh, r)
		for r.wsent < r.wcount {
			if err := rc.Write(r.writeFn); err != nil || r.werr != 0 {
				if s.closed.Load() {
					return true
				}
				r.dropUnsent(sh)
				break
			}
		}
	}
}

// serveBatch answers every datagram of the current drain in place from one
// lease snapshot taken for the whole batch (answerDatagram, the loop the
// sequential path runs per datagram), and stages one reply datagram per
// request datagram for the flush. A kernel-truncated oversized datagram
// costs one extra drop.
//
//cts:allocfree
func (s *Server) serveBatch(sh *shard, r *mmsgRing) {
	r.wcount, r.wsent, r.werr = 0, 0, 0
	rd, haveLease := s.cfg.Source.LeaseRead()
	for i := 0; i < r.nrecv; i++ {
		j := r.wcount
		reply, accepted, drops := s.answerDatagram(r.received(i),
			r.wbuf[j*mmsgReplySlot:(j+1)*mmsgReplySlot], rd, haveLease)
		if r.rhdr[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			drops++ // oversized datagram: the kernel cut the tail
		}
		sh.account(accepted, drops, haveLease)
		if accepted == 0 {
			continue
		}
		r.wiov[j].Base = &r.wbuf[j*mmsgReplySlot]
		r.wiov[j].Len = uint64(reply)
		r.whdr[j].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.whdr[j].hdr.Namelen = r.rhdr[i].hdr.Namelen
		r.waccepted[j] = uint32(accepted)
		r.wcount++
	}
}

// mmsgBurst runs one exchange of dgrams request datagrams of k queries over
// target's ring: stage every request, flush them with sendmmsg (resuming
// short completions), then drain replies with recvmmsg into c.resps until
// each datagram is answered or the deadline fires. batched=false means the
// syscalls proved unavailable before they ever worked, and nothing was
// sent: the caller degrades to the sequential exchange.
func (c *Client) mmsgBurst(target int, conn *net.UDPConn, base uint64, dgrams, k int) (batched bool, err error) {
	r := c.rings[target]
	if r == nil {
		rc, err := conn.SyscallConn()
		if err != nil {
			return false, nil
		}
		r = newMmsgRing(rc, nil)
		c.rings[target] = r
	}
	for d := 0; d < dgrams; d++ {
		off := d * clientSendSlot
		for i := 0; i < k; i++ {
			PutRequest(r.wbuf[off+i*ReqSize:], Request{Nonce: base + uint64(d*k+i)})
		}
		r.wiov[d].Base = &r.wbuf[off]
		r.wiov[d].Len = uint64(k * ReqSize)
	}
	r.wcount, r.wsent, r.werr = dgrams, 0, 0
	for r.wsent < r.wcount {
		if err := r.rc.Write(r.writeFn); err != nil {
			return true, fmt.Errorf("timeserve: send to %s: %w", c.cfg.Targets[target], err)
		}
		if r.werr != 0 {
			if !c.mmsgProven && mmsgMissing(r.werr) {
				return false, nil
			}
			return true, fmt.Errorf("timeserve: sendmmsg to %s: %w", c.cfg.Targets[target], error(r.werr))
		}
	}
	c.mmsgProven = true
	for got := 0; got < dgrams; {
		r.resetRecv(dgrams - got)
		if err := r.rc.Read(r.readFn); err != nil || r.rerr != 0 {
			break // deadline: keep whatever arrived
		}
		for i := 0; i < r.nrecv; i++ {
			if c.appendWindow(r.received(i), base, dgrams, k) {
				got++
			}
		}
	}
	return true, nil
}

// steadySource is the fixed lease the allocation probe serves from.
type steadySource struct{}

func (steadySource) LeaseRead() (Reading, bool) {
	return Reading{GroupClock: 1 << 40, Bound: 1 << 16, Epoch: 3}, true
}

// ServeAllocsPerOp measures heap allocations per drain-serve cycle over a
// synthetic full ring (mmsgRecvMsgs datagrams × MaxBatch queries), the
// dynamic counterpart of the static allocfree proof on batchLoop/serveBatch.
// TestServeBatchAllocFree gates it at 0 (`make allocs`, run without -race)
// and bench/ records it as timeserve.serve_allocs_per_drain.
// Returns -1 on builds without the batched path.
//
// The measurement follows testing.AllocsPerRun: one warm-up cycle, a single
// P for the duration so no other goroutine of the process runs (and mallocs)
// in between, and whole-number division, so a stray runtime allocation does
// not read as a fractional per-op cost.
func ServeAllocsPerOp() float64 {
	s := &Server{cfg: Config{Node: 1, Source: steadySource{}}}
	sh := &shard{}
	r := newMmsgRing(nil, sh)
	var req [ReqSize]byte
	for i := 0; i < mmsgRecvMsgs; i++ {
		for q := 0; q < MaxBatch; q++ {
			PutRequest(req[:], Request{Nonce: uint64(i*MaxBatch + q)})
			copy(r.rbuf[i*mmsgRecvSlot+q*ReqSize:], req[:])
		}
		r.rhdr[i].length = MaxBatch * ReqSize
		r.rhdr[i].hdr.Namelen = uint32(syscall.SizeofSockaddrAny)
	}
	r.nrecv = mmsgRecvMsgs
	const iters = 200
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.serveBatch(sh, r)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for it := 0; it < iters; it++ {
		s.serveBatch(sh, r)
	}
	runtime.ReadMemStats(&m1)
	return float64((m1.Mallocs - m0.Mallocs) / iters)
}
