//go:build linux && (amd64 || arm64)

// Batched kernel I/O for the serving hot path: each shard drains its socket
// with recvmmsg into a preallocated ring of mmsghdr/iovec/sockaddr buffers,
// answers every datagram in the drain from ONE lease snapshot (steady-state
// mode: the lease changes far more slowly than a drain lasts, so one
// extrapolation covers the whole batch), and flushes the replies with a
// single sendmmsg — two syscalls for up to mmsgRecvMsgs datagrams instead of
// one recvfrom + one sendto per datagram. Raw Syscall6 over the stdlib
// syscall package, no golang.org/x/sys, mirroring the SO_REUSEPORT shim in
// reuseport_linux.go; the per-arch syscall numbers live in
// mmsg_linux_<arch>.go.
//
// The path integrates with the runtime netpoller through syscall.RawConn:
// the read and write closures are created once per shard (never in the
// loop), attempt one non-blocking syscall each, and return false on EAGAIN
// so the goroutine parks until the fd is ready instead of spinning. Partial
// sendmmsg completions resume from the first unsent reply; EINTR retries;
// ENOSYS/EPERM/EOPNOTSUPP before the first successful drain degrades the
// shard to the sequential serveLoop (seccomp filters and exotic kernels).

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

// mmsgRing is one shard's preallocated batched-I/O state: receive buffers,
// reply buffers, the mmsghdr/iovec/sockaddr arrays the syscalls scatter into,
// and the once-created netpoller closures. Nothing here is allocated after
// newMmsgRing; the drain-serve-flush cycle reuses it forever.
type mmsgRing struct {
	rbuf  []byte // mmsgRecvMsgs × mmsgRecvSlot receive bytes
	wbuf  []byte // mmsgRecvMsgs × mmsgReplySlot reply bytes
	names []syscall.RawSockaddrAny
	riov  []syscall.Iovec
	wiov  []syscall.Iovec
	rhdr  []mmsghdr
	whdr  []mmsghdr
	// waccepted[j] is the query count encoded into staged reply j, so a
	// failed flush can charge the drop counter exactly.
	waccepted []uint32

	nrecv  int           // datagrams in the current drain
	rerr   syscall.Errno // fatal recv errno (EAGAIN/EINTR are absorbed)
	wcount int           // replies staged by serveBatch
	wsent  int           // replies the kernel has accepted (resume point)
	werr   syscall.Errno // fatal send errno

	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
}

// newMmsgRing allocates one shard's ring and wires the scatter tables and
// netpoller closures. sh is captured so the closures can count syscalls.
func newMmsgRing(sh *shard) *mmsgRing {
	r := &mmsgRing{
		rbuf:      make([]byte, mmsgRecvMsgs*mmsgRecvSlot),
		wbuf:      make([]byte, mmsgRecvMsgs*mmsgReplySlot),
		names:     make([]syscall.RawSockaddrAny, mmsgRecvMsgs),
		riov:      make([]syscall.Iovec, mmsgRecvMsgs),
		wiov:      make([]syscall.Iovec, mmsgRecvMsgs),
		rhdr:      make([]mmsghdr, mmsgRecvMsgs),
		whdr:      make([]mmsghdr, mmsgRecvMsgs),
		waccepted: make([]uint32, mmsgRecvMsgs),
	}
	for i := 0; i < mmsgRecvMsgs; i++ {
		r.riov[i].Base = &r.rbuf[i*mmsgRecvSlot]
		r.riov[i].Len = mmsgRecvSlot
		r.rhdr[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.rhdr[i].hdr.Namelen = uint32(syscall.SizeofSockaddrAny)
		r.rhdr[i].hdr.Iov = &r.riov[i]
		r.rhdr[i].hdr.Iovlen = 1
		r.whdr[i].hdr.Iov = &r.wiov[i]
		r.whdr[i].hdr.Iovlen = 1
	}
	r.readFn = func(fd uintptr) bool {
		n, errno := recvmmsgFn(fd, r.rhdr)
		sh.syscalls.Add(1)
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
		sh.syscalls.Add(1)
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

// resetRecv restores the kernel-written header fields before a drain: the
// kernel reads Namelen as the sockaddr buffer size and overwrites it with
// the actual source address length per message.
func (r *mmsgRing) resetRecv() {
	for i := range r.rhdr {
		r.rhdr[i].hdr.Namelen = uint32(syscall.SizeofSockaddrAny)
	}
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
	return s.batchLoop(rc, sh, newMmsgRing(sh))
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
func (s *Server) batchLoop(rc syscall.RawConn, sh *shard, r *mmsgRing) bool {
	proven := false // one drain has succeeded: the syscalls exist
	for {
		r.resetRecv()
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
			if !proven && (r.rerr == syscall.ENOSYS || r.rerr == syscall.EPERM || r.rerr == syscall.EOPNOTSUPP) {
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
		n := int(r.rhdr[i].length)
		if n > mmsgRecvSlot {
			n = mmsgRecvSlot
		}
		j := r.wcount
		reply, accepted, drops := s.answerDatagram(r.rbuf[i*mmsgRecvSlot:i*mmsgRecvSlot+n],
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

const (
	// clientSendSlot is a burst client's per-datagram request buffer.
	clientSendSlot = MaxBatch * ReqSize
	// clientRecvSlot is a burst client's per-datagram response buffer.
	clientRecvSlot = MaxBatch * RespSize
)

// clientBurst is one target's batched-I/O state on the client side: request
// and response rings for up to MaxBurst datagrams over the connected socket
// (no sockaddrs needed — the kernel fills in the peer), plus the once-created
// netpoller closures. Like the server ring, nothing is allocated after
// newClientBurst.
type clientBurst struct {
	rc   syscall.RawConn
	wbuf []byte // MaxBurst × clientSendSlot request bytes
	rbuf []byte // MaxBurst × clientRecvSlot response bytes
	wiov []syscall.Iovec
	riov []syscall.Iovec
	whdr []mmsghdr
	rhdr []mmsghdr

	wcount, wsent int           // staged datagrams / kernel-accepted resume point
	werr          syscall.Errno // fatal send errno
	rwant         int           // datagrams still expected by the current drain
	nrecv         int           // datagrams the last drain delivered
	rerr          syscall.Errno // fatal recv errno

	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
}

// newClientBurst builds the burst ring over conn's raw fd, or returns nil if
// the socket cannot expose one (the caller then stays sequential).
func newClientBurst(conn *net.UDPConn) *clientBurst {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	b := &clientBurst{
		rc:   rc,
		wbuf: make([]byte, MaxBurst*clientSendSlot),
		rbuf: make([]byte, MaxBurst*clientRecvSlot),
		wiov: make([]syscall.Iovec, MaxBurst),
		riov: make([]syscall.Iovec, MaxBurst),
		whdr: make([]mmsghdr, MaxBurst),
		rhdr: make([]mmsghdr, MaxBurst),
	}
	for i := 0; i < MaxBurst; i++ {
		b.riov[i].Base = &b.rbuf[i*clientRecvSlot]
		b.riov[i].Len = clientRecvSlot
		b.rhdr[i].hdr.Iov = &b.riov[i]
		b.rhdr[i].hdr.Iovlen = 1
		b.whdr[i].hdr.Iov = &b.wiov[i]
		b.whdr[i].hdr.Iovlen = 1
	}
	b.readFn = func(fd uintptr) bool {
		n, errno := recvmmsgFn(fd, b.rhdr[:b.rwant])
		switch errno {
		case 0:
			b.nrecv, b.rerr = n, 0
			return true
		case syscall.EAGAIN:
			b.nrecv, b.rerr = 0, 0
			return false // park until readable or the deadline fires
		case syscall.EINTR:
			b.nrecv, b.rerr = 0, 0
			return true
		default:
			b.nrecv, b.rerr = 0, errno
			return true
		}
	}
	b.writeFn = func(fd uintptr) bool {
		n, errno := sendmmsgFn(fd, b.whdr[b.wsent:b.wcount])
		switch {
		case errno == syscall.EAGAIN:
			return false // park until writable, then resume
		case errno == syscall.EINTR:
			return true
		case errno != 0:
			b.werr = errno
			return true
		case n == 0:
			b.werr = syscall.EIO
			return true
		}
		b.wsent += n
		return true
	}
	return b
}

// burstState lazily builds the batched ring for target i.
func (c *Client) burstState(i int, conn *net.UDPConn) *clientBurst {
	if c.bursts[i] == nil {
		c.bursts[i] = newClientBurst(conn)
	}
	return c.bursts[i]
}

// mmsgBurst runs one burst over the batched syscalls: stage every request
// datagram into the ring, flush with sendmmsg (resuming short completions),
// then drain replies with recvmmsg until the burst is answered or the
// deadline fires. ok=false means the syscalls are unavailable before they
// ever worked — the caller degrades to the sequential burst.
func (c *Client) mmsgBurst(b *clientBurst, target int, base uint64, dgrams, k int) ([]Response, bool, error) {
	reqLen := k * ReqSize
	for d := 0; d < dgrams; d++ {
		off := d * clientSendSlot
		for i := 0; i < k; i++ {
			PutRequest(b.wbuf[off+i*ReqSize:off+(i+1)*ReqSize], Request{Nonce: base + uint64(d*k+i)})
		}
		b.wiov[d].Base = &b.wbuf[off]
		b.wiov[d].Len = uint64(reqLen)
	}
	b.wcount, b.wsent, b.werr = dgrams, 0, 0
	for b.wsent < b.wcount {
		if err := b.rc.Write(b.writeFn); err != nil {
			return nil, true, fmt.Errorf("timeserve: send to %s: %w", c.cfg.Targets[target], err)
		}
		if b.werr != 0 {
			if !c.mmsgProven && (b.werr == syscall.ENOSYS || b.werr == syscall.EPERM || b.werr == syscall.EOPNOTSUPP) {
				return nil, false, nil
			}
			return nil, true, fmt.Errorf("timeserve: sendmmsg to %s: %w", c.cfg.Targets[target], error(b.werr))
		}
	}
	c.mmsgProven = true
	c.resps = c.resps[:0]
	span := uint64(dgrams * k)
	got := 0
	for got < dgrams {
		b.rwant = dgrams - got
		if err := b.rc.Read(b.readFn); err != nil {
			break // deadline: return whatever arrived
		}
		if b.rerr != 0 {
			break
		}
		for i := 0; i < b.nrecv; i++ {
			ln := int(b.rhdr[i].length)
			if ln > clientRecvSlot {
				ln = clientRecvSlot
			}
			if c.appendWindow(b.rbuf[i*clientRecvSlot:i*clientRecvSlot+ln], base, span, k) {
				got++
			}
		}
	}
	if len(c.resps) == 0 {
		return nil, true, fmt.Errorf("timeserve: burst to %s: %w", c.cfg.Targets[target], ErrNoReplica)
	}
	return c.resps, true, nil
}

// steadySource is the fixed lease the allocation probe serves from.
type steadySource struct{}

func (steadySource) LeaseRead() (Reading, bool) {
	return Reading{GroupClock: 1 << 40, Bound: 1 << 16, Epoch: 3}, true
}

// ServeAllocsPerOp measures heap allocations per drain-serve cycle over a
// synthetic full ring (mmsgRecvMsgs datagrams × MaxBatch queries), the
// dynamic counterpart of the static allocfree proof on batchLoop/serveBatch.
// ctsload records it in the bench row and `make loadtest` gates it at 0.
// Returns -1 on builds without the batched path.
//
// The measurement follows testing.AllocsPerRun: one warm-up cycle, a single
// P for the duration so no other goroutine of the process runs (and mallocs)
// in between, and whole-number division, so a stray runtime allocation does
// not read as a fractional per-op cost.
func ServeAllocsPerOp() float64 {
	s := &Server{cfg: Config{Node: 1, Source: steadySource{}}}
	sh := &shard{}
	r := newMmsgRing(sh)
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
