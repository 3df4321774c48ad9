package timeserve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cts/internal/hwclock"
	"cts/internal/obs"
)

// Reading is one leased group-clock value handed to an external client. The
// true group clock at the moment of the read lies within
// [GroupClock−Bound, GroupClock+Bound].
type Reading struct {
	GroupClock time.Duration
	Bound      time.Duration
	Epoch      uint64
	Node       uint32 // replica that answered (zero for locally served reads)
}

// LeaseSource answers external reads from the replica's current lease.
// core.TimeService.LeaseRead provides this (adapted by internal/node); the
// call must be safe from any goroutine and lock-free on the fast path, since
// every shard invokes it per drain (per datagram on the sequential path).
type LeaseSource interface {
	LeaseRead() (Reading, bool)
}

// Config configures a Server.
type Config struct {
	// Addr is the UDP listen address (e.g. ":4460", "127.0.0.1:0").
	// Required.
	Addr string
	// Shards is the number of listener shards. On Linux each shard binds its
	// own SO_REUSEPORT socket with a private kernel receive queue; elsewhere
	// the shards share one socket. Default 1.
	Shards int
	// Node identifies this replica in responses.
	Node uint32
	// Source answers the queries. Required.
	Source LeaseSource
	// Obs registers the server's counters. Optional.
	Obs *obs.Recorder
	// Mono measures server uptime for the timeserve.qps sample. Defaults to
	// the machine's monotonic clock (hwclock.Monotonic).
	Mono hwclock.Source
	// IO selects the kernel I/O path. IOAuto (the default) runs the batched
	// recvmmsg/sendmmsg drain-serve-flush cycle where the platform supports
	// it and falls back to the sequential loop otherwise; IOSequential
	// forces the sequential loop everywhere; IOMmsg makes Start fail on
	// platforms without the batched syscalls.
	IO IOMode
	// OnFallback, when set, is called at most once per degradation with a
	// short reason whenever the server cannot take a configured fast path:
	// a refused SO_REUSEPORT bind (shard scaling flatlines on one kernel
	// queue) or batched syscalls unavailable at runtime (seccomp, exotic
	// kernels). The obs counters timeserve.reuseport_fallback and
	// timeserve.mmsg_fallback record the same events unconditionally.
	OnFallback func(reason string)
}

// Validate checks cfg and fills defaults.
func (c Config) Validate() (Config, error) {
	if c.Addr == "" {
		return c, errors.New("timeserve: Config.Addr is required")
	}
	if c.Source == nil {
		return c, errors.New("timeserve: Config.Source is required")
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("timeserve: Config.Shards must not be negative (got %d)", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Mono == nil {
		c.Mono = hwclock.Monotonic()
	}
	if c.IO == IOMmsg && !mmsgSupported {
		return c, errors.New("timeserve: Config.IO requires the batched recvmmsg/sendmmsg path, which this platform does not support (use auto or seq)")
	}
	return c, nil
}

// shard holds one listener's counters. Each shard writes only its own cache
// lines; the padding keeps concurrent shards from false sharing.
type shard struct {
	queries       atomic.Uint64
	leaseHit      atomic.Uint64
	staleRejected atomic.Uint64
	drops         atomic.Uint64
	datagrams     atomic.Uint64
	// syscalls counts kernel I/O operations this shard issued (recvmmsg/
	// sendmmsg attempts on the batched path, one per ReadFrom/WriteTo on the
	// sequential path). syscalls ÷ queries is the bench gate column.
	syscalls atomic.Uint64
	_        [80]byte
}

// Server serves the timeserve protocol off a replica's lease plane.
type Server struct {
	cfg       Config
	conns     []net.PacketConn // distinct sockets (1 in fallback mode)
	shards    []shard
	dropNames []string // per-shard drop metric names, precomputed at Start
	wg        sync.WaitGroup
	addr      net.Addr
	reuseport bool
	closed    atomic.Bool

	ioMmsg       bool          // resolved at Start: shards attempt the batched path
	mmsgDrains   atomic.Uint64 // successful recvmmsg drains across shards
	mmsgFell     atomic.Uint64 // shards degraded to the sequential loop at runtime
	reuseFell    atomic.Uint64 // 1 when the SO_REUSEPORT bind fallback triggered
	fallbackOnce sync.Once     // OnFallback fires once for the mmsg degradation
}

// Start binds the shards and begins serving. With Shards > 1 on Linux each
// shard gets its own SO_REUSEPORT socket; if per-shard binding is
// unavailable the shards share the first socket.
func Start(cfg Config) (*Server, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, shards: make([]shard, cfg.Shards)}
	// Metric names are formatted once here, not per ObsSamples scrape: the
	// allocfree rule drove the serve path to zero fmt use, and the scrape
	// path should not reintroduce per-call Sprintf garbage either.
	s.dropNames = make([]string, cfg.Shards)
	for i := range s.dropNames {
		s.dropNames[i] = fmt.Sprintf("timeserve.shard%d.drops", i)
	}

	useReuse := reusePortAvailable && cfg.Shards > 1
	lc := net.ListenConfig{}
	if useReuse {
		lc.Control = reusePortControl
	}
	first, err := lc.ListenPacket(context.Background(), "udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("timeserve: listen %s: %w", cfg.Addr, err)
	}
	s.addr = first.LocalAddr()
	s.conns = append(s.conns, first)
	s.setBuffers(first)

	if useReuse {
		// Later shards bind the resolved address, so ":0" works.
		for i := 1; i < cfg.Shards; i++ {
			pc, err := lc.ListenPacket(context.Background(), "udp", s.addr.String())
			if err != nil {
				// SO_REUSEPORT bind refused (e.g. exotic kernel config):
				// fall back to sharing the first socket. Recorded — shard
				// scaling flatlines on one kernel queue, and operators need
				// to see why (timeserve.reuseport_fallback, OnFallback).
				s.reuseport = false
				s.reuseFell.Store(1)
				if cfg.OnFallback != nil {
					cfg.OnFallback("SO_REUSEPORT bind refused; shards share one socket: " + err.Error())
				}
				break
			}
			s.setBuffers(pc)
			s.conns = append(s.conns, pc)
			s.reuseport = true
		}
	}

	s.ioMmsg = mmsgSupported && cfg.IO != IOSequential
	for i := 0; i < cfg.Shards; i++ {
		pc := s.conns[0]
		if i < len(s.conns) {
			pc = s.conns[i]
		}
		s.wg.Add(1)
		go s.serve(pc, &s.shards[i])
	}
	cfg.Obs.Register(s)
	return s, nil
}

// socketBuf is the SO_RCVBUF/SO_SNDBUF size requested for every shard
// socket; the kernel may clamp it.
const socketBuf = 4 << 20

// setBuffers requests socketBuf-sized buffers where the connection supports
// them.
func (s *Server) setBuffers(pc net.PacketConn) {
	type bufConn interface {
		SetReadBuffer(int) error
		SetWriteBuffer(int) error
	}
	if bc, ok := pc.(bufConn); ok {
		_ = bc.SetReadBuffer(socketBuf)
		_ = bc.SetWriteBuffer(socketBuf)
	}
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.addr }

// ReusePort reports whether the shards got private SO_REUSEPORT sockets.
func (s *Server) ReusePort() bool { return s.reuseport }

// Shards reports the number of serving shards.
func (s *Server) Shards() int { return len(s.shards) }

// IOPath reports the kernel I/O path the shards are actually on: "mmsg" when
// every shard runs the batched drain-serve-flush cycle, "seq" otherwise
// (sequential build or mode, or any shard degraded at runtime).
func (s *Server) IOPath() string {
	if s.ioMmsg && s.mmsgFell.Load() == 0 {
		return "mmsg"
	}
	return "seq"
}

// Syscalls reports the kernel I/O operations issued across all shards.
func (s *Server) Syscalls() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].syscalls.Load()
	}
	return n
}

// ReusePortFallback reports whether a refused SO_REUSEPORT bind forced the
// shards onto one shared socket.
func (s *Server) ReusePortFallback() bool { return s.reuseFell.Load() != 0 }

// serve runs one shard: the batched recvmmsg/sendmmsg cycle where the mode
// and platform allow it, the sequential loop otherwise. The fallback ladder
// is per shard — a runtime refusal of the batched syscalls (seccomp, exotic
// kernels) degrades only after being counted and reported once. The split
// keeps the loops — the parts that run per datagram, forever — genuinely
// allocation-free under the static rule: everything they need is handed in
// up front.
func (s *Server) serve(pc net.PacketConn, sh *shard) {
	defer s.wg.Done()
	if s.ioMmsg {
		if s.serveBatched(pc, sh) {
			return
		}
		if s.closed.Load() {
			return
		}
		s.mmsgFell.Add(1)
		s.fallbackOnce.Do(func() {
			if s.cfg.OnFallback != nil {
				s.cfg.OnFallback("batched recvmmsg/sendmmsg unavailable at runtime; serving sequentially")
			}
		})
	}
	buf := make([]byte, MaxDatagram)
	out := make([]byte, MaxBatch*RespSize)
	s.serveLoop(pc, sh, buf, out)
}

// serveLoop is one shard's sequential receive loop, a drain of one: read a
// datagram, answer it from one lease read, send one response datagram back.
// Buffers are reused across iterations; the loop allocates nothing in steady
// state, and ctslint's allocfree rule proves it for every callee.
//
//cts:allocfree
func (s *Server) serveLoop(pc net.PacketConn, sh *shard, buf, out []byte) {
	for {
		n, from, err := pc.ReadFrom(buf)
		sh.syscalls.Add(1)
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		sh.datagrams.Add(1)
		rd, ok := s.cfg.Source.LeaseRead()
		reply, accepted, drops := s.answerDatagram(buf[:n], out, rd, ok)
		sh.account(accepted, drops, ok)
		if reply > 0 {
			_, err := pc.WriteTo(out[:reply], from)
			sh.syscalls.Add(1)
			if err != nil && !s.closed.Load() {
				sh.drops.Add(uint64(accepted))
			}
		}
	}
}

// answerDatagram is the one per-datagram answer loop, shared by the
// sequential and the batched I/O paths: parse the queries of request
// datagram in, answer each from the lease reading (rd, ok) into out, and
// report the reply length, the queries accepted and the queries dropped.
// out must hold MaxBatch responses. At most MaxBatch queries are answered —
// backpressure: the excess of an oversized batch is dropped, not queued —
// malformed requests and a runt tail each count one drop, and a datagram
// with no acceptable query gets no reply.
//
//cts:allocfree
func (s *Server) answerDatagram(in, out []byte, rd Reading, ok bool) (reply, accepted, drops int) {
	n := len(in)
	for off := 0; off+ReqSize <= n; off += ReqSize {
		if accepted == MaxBatch {
			drops += (n - off) / ReqSize
			break
		}
		q, err := ParseRequest(in[off : off+ReqSize])
		if err != nil {
			drops++
			continue
		}
		accepted++
		r := Response{Flags: FlagStale, Node: s.cfg.Node, Nonce: q.Nonce, Echo: q.Echo}
		if ok {
			r.Flags = FlagOK
			r.Group = rd.GroupClock
			r.Bound = rd.Bound
			r.Epoch = rd.Epoch
		}
		PutResponse(out[reply:reply+RespSize], r)
		reply += RespSize
	}
	if n%ReqSize != 0 {
		drops++ // runt or trailing garbage
	}
	return reply, accepted, drops
}

// account folds one answered datagram into the shard counters.
func (sh *shard) account(accepted, drops int, ok bool) {
	sh.queries.Add(uint64(accepted))
	if ok {
		sh.leaseHit.Add(uint64(accepted))
	} else {
		sh.staleRejected.Add(uint64(accepted))
	}
	if drops > 0 {
		sh.drops.Add(uint64(drops))
	}
}

// Totals sums the shard counters.
func (s *Server) Totals() (queries, leaseHit, staleRejected, drops uint64) {
	for i := range s.shards {
		sh := &s.shards[i]
		queries += sh.queries.Load()
		leaseHit += sh.leaseHit.Load()
		staleRejected += sh.staleRejected.Load()
		drops += sh.drops.Load()
	}
	return
}

// ObsSamples implements obs.Source. timeserve.qps is the average query rate
// since the server started; the remaining samples are monotonic counters.
func (s *Server) ObsSamples() []obs.Sample {
	queries, hit, stale, drops := s.Totals()
	var datagrams uint64
	for i := range s.shards {
		datagrams += s.shards[i].datagrams.Load()
	}
	qps := uint64(0)
	if el := s.cfg.Mono(); el > 0 {
		qps = uint64(float64(queries) / el.Seconds())
	}
	id := s.cfg.Node
	samples := []obs.Sample{
		{Node: id, Name: "timeserve.qps", Value: qps},
		{Node: id, Name: "timeserve.queries", Value: queries},
		{Node: id, Name: "timeserve.lease_hit", Value: hit},
		{Node: id, Name: "timeserve.stale_rejected", Value: stale},
		{Node: id, Name: "timeserve.datagrams", Value: datagrams},
		{Node: id, Name: "timeserve.drops", Value: drops},
		{Node: id, Name: "timeserve.syscalls", Value: s.Syscalls()},
		{Node: id, Name: "timeserve.mmsg_drains", Value: s.mmsgDrains.Load()},
		{Node: id, Name: "timeserve.mmsg_fallback", Value: s.mmsgFell.Load()},
		{Node: id, Name: "timeserve.reuseport_fallback", Value: s.reuseFell.Load()},
	}
	for i := range s.shards {
		samples = append(samples, obs.Sample{
			Node:  id,
			Name:  s.dropNames[i],
			Value: s.shards[i].drops.Load(),
		})
	}
	return samples
}

// Close stops the shards and releases the sockets.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var first error
	for _, pc := range s.conns {
		if err := pc.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.wg.Wait()
	return first
}
