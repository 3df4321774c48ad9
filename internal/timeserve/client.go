package timeserve

import (
	"errors"
	"fmt"
	"net"
	"time"

	"cts/internal/hwclock"
)

// ClientConfig configures a Client.
type ClientConfig struct {
	// Targets are the replicas' timeserve addresses, in preference order.
	// Required (non-empty).
	Targets []string
	// Timeout is the per-attempt response deadline. Default 250ms.
	Timeout time.Duration
	// Attempts is the total number of query attempts across replicas before
	// giving up. Default 2 × len(Targets).
	Attempts int
	// CacheFor lets Now extrapolate a cached reading for this long before
	// going back to the network. Zero disables caching (every Now queries).
	CacheFor time.Duration
	// DriftPPM is the assumed rate error of the client's local clock, used
	// to widen the bound of extrapolated readings. Default 200 ppm.
	DriftPPM float64
	// Mono measures elapsed time for cache aging. Defaults to the machine's
	// monotonic clock (hwclock.Monotonic); tests inject a manual source.
	Mono hwclock.Source
	// IO selects the I/O path every exchange uses: IOAuto (batched
	// syscalls where the build supports them), IOSequential (one datagram
	// per syscall), or IOMmsg (require batching; Validate errors on builds
	// without it).
	IO IOMode
}

// Validate checks cfg and fills defaults.
func (c ClientConfig) Validate() (ClientConfig, error) {
	if len(c.Targets) == 0 {
		return c, errors.New("timeserve: ClientConfig.Targets is required")
	}
	if c.Timeout <= 0 {
		c.Timeout = 250 * time.Millisecond
	}
	if c.Attempts <= 0 {
		c.Attempts = 2 * len(c.Targets)
	}
	if c.DriftPPM < 0 {
		return c, fmt.Errorf("timeserve: ClientConfig.DriftPPM must not be negative (got %v)", c.DriftPPM)
	}
	if c.DriftPPM == 0 {
		c.DriftPPM = 200
	}
	if c.Mono == nil {
		c.Mono = hwclock.Monotonic()
	}
	if c.IO == IOMmsg && !mmsgSupported {
		return c, errors.New("timeserve: ClientConfig.IO \"mmsg\" is not supported on this platform")
	}
	return c, nil
}

// MaxBurst is the most request datagrams QueryBurst sends in one call.
const MaxBurst = 64

// Errors an exchange wraps. ErrNoReplica: the target sent no answer before
// the deadline. ErrStale: a replica answered but holds no valid lease (a
// FlagStale refusal); a Query or QueryBatch whose every attempt was refused
// returns it.
var (
	ErrNoReplica = errors.New("timeserve: no replica answered from a valid lease")
	ErrStale     = errors.New("timeserve: replica refused (no valid lease)")
)

// Client queries the replica group's timeserve frontends. It caches the last
// leased reading and extrapolates it locally for up to CacheFor, falling
// back to the network — and across replicas — when the cache is cold, the
// lease epoch changes, or a replica refuses. Readings returned by one Client
// never regress.
//
// A Client is NOT safe for concurrent use; create one per goroutine (they
// are cheap: one UDP socket per contacted target).
type Client struct {
	cfg   ClientConfig
	conns []*net.UDPConn // lazily dialed, index-aligned with cfg.Targets
	cur   int            // preferred target
	nonce uint64

	cached   Response
	cachedAt time.Duration // Mono reading anchoring the cached response
	hasCache bool
	floor    time.Duration // monotone guard over returned readings

	hits, misses uint64

	// Exchange state: resps is the reused response slice QueryBatch and
	// QueryBurst return (valid until the next call); rbuf and wbuf serve the
	// sequential path, rings are the lazily built per-target batched-I/O
	// rings; mmsgFell records that the batched syscalls proved unavailable
	// (seccomp, exotic kernels) so exchanges degraded to the sequential path,
	// mmsgProven that they worked once.
	resps      []Response
	rbuf       []byte
	wbuf       []byte
	rings      []*mmsgRing
	mmsgFell   bool
	mmsgProven bool
}

// NewClient returns a client over the given replica targets.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Client{
		cfg:   cfg,
		conns: make([]*net.UDPConn, len(cfg.Targets)),
		rings: make([]*mmsgRing, len(cfg.Targets)),
		rbuf:  make([]byte, MaxDatagram),
		wbuf:  make([]byte, 0, MaxBatch*ReqSize),
	}, nil
}

// Now returns the group clock. It serves from the cached lease when fresh
// (widening the bound by the extrapolation drift), otherwise queries the
// replicas.
func (c *Client) Now() (Reading, error) {
	if c.hasCache && c.cfg.CacheFor > 0 {
		elapsed := c.cfg.Mono() - c.cachedAt
		if elapsed < c.cfg.CacheFor {
			c.hits++
			r := Reading{
				GroupClock: c.cached.Group + elapsed,
				Bound:      c.cached.Bound + time.Duration(float64(elapsed)*c.cfg.DriftPPM/1e6),
				Epoch:      c.cached.Epoch,
				Node:       c.cached.Node,
			}
			return c.monotone(r), nil
		}
	}
	c.misses++
	return c.Query()
}

// Query performs one network query, rotating across replicas on timeout or
// stale refusal, and refreshes the cache.
func (c *Client) Query() (Reading, error) {
	resps, err := c.QueryBatch(1)
	if err != nil {
		return Reading{}, err
	}
	r := resps[0]
	c.cached = r
	c.cachedAt = c.cfg.Mono()
	c.hasCache = true
	return c.monotone(Reading{GroupClock: r.Group, Bound: r.Bound, Epoch: r.Epoch, Node: r.Node}), nil
}

// QueryBatch sends k queries in one datagram and returns the k leased
// responses, rotating across replicas on timeout or stale refusal; when
// every attempt was refused the error wraps ErrStale. Load generators use it
// to amortize the per-datagram syscall cost. k must be in [1, MaxBatch].
// The returned slice is valid until the client's next call.
func (c *Client) QueryBatch(k int) ([]Response, error) {
	if k < 1 || k > MaxBatch {
		return nil, fmt.Errorf("timeserve: batch size %d outside [1, %d]", k, MaxBatch)
	}
	return c.query(1, k, true)
}

// QueryBurst sends dgrams request datagrams of k queries each in one burst
// and collects the replies. It mirrors the server's batched receive path:
// on builds with sendmmsg/recvmmsg the whole burst goes to the kernel in one
// syscall (unless ClientConfig.IO forces the sequential path), driving the
// server into multi-datagram drains. The returned slice — valid until the
// client's next call — holds every response that arrived before the
// deadline, including refusals (FlagStale); callers inspect Flags
// themselves. A target that returns nothing at all before the deadline
// rotates the client to the next replica, like Query. The cache is not
// touched.
func (c *Client) QueryBurst(dgrams, k int) ([]Response, error) {
	if dgrams < 1 || dgrams > MaxBurst {
		return nil, fmt.Errorf("timeserve: burst size %d outside [1, %d]", dgrams, MaxBurst)
	}
	if k < 1 || k > MaxBatch {
		return nil, fmt.Errorf("timeserve: batch size %d outside [1, %d]", k, MaxBatch)
	}
	return c.query(dgrams, k, false)
}

// IOPath names the I/O path exchanges are using: "mmsg" while the batched
// syscalls are in play, "seq" when the build lacks them, the config forbids
// them, or a runtime probe fell back.
func (c *Client) IOPath() string {
	if c.batched() {
		return "mmsg"
	}
	return "seq"
}

// batched reports whether exchanges still try sendmmsg/recvmmsg.
func (c *Client) batched() bool {
	return mmsgSupported && c.cfg.IO != IOSequential && !c.mmsgFell
}

// query is the client's one retry-across-replicas loop: each attempt
// is one exchange of dgrams datagrams of k queries with the preferred
// target, and a target that answers nothing before the deadline rotates the
// client to the next one. With leased set, a FlagStale refusal rotates too;
// otherwise refusals go back to the caller.
func (c *Client) query(dgrams, k int, leased bool) ([]Response, error) {
	var lastErr error = ErrNoReplica
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		resps, err := c.burstOnce(c.cur, dgrams, k)
		if err == nil && leased && !allOK(resps) {
			err = fmt.Errorf("timeserve: %s: %w", c.cfg.Targets[c.cur], ErrStale)
		}
		if err == nil {
			return resps, nil
		}
		lastErr = err
		c.cur = (c.cur + 1) % len(c.cfg.Targets)
	}
	return nil, lastErr
}

func allOK(resps []Response) bool {
	for _, r := range resps {
		if !r.OK() {
			return false
		}
	}
	return true
}

// burstOnce runs one exchange with one target, preferring the batched path
// and degrading permanently to sequential writes if the syscalls prove
// unavailable. Responses outside the exchange's nonce window (strays from
// earlier timed-out attempts) are discarded.
func (c *Client) burstOnce(target, dgrams, k int) ([]Response, error) {
	conn, err := c.conn(target)
	if err != nil {
		return nil, err
	}
	base := c.nonce
	c.nonce += uint64(dgrams * k)
	_ = conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	c.resps = c.resps[:0]
	sent := false
	if c.batched() {
		if sent, err = c.mmsgBurst(target, conn, base, dgrams, k); err != nil {
			return nil, err
		}
		c.mmsgFell = !sent // no batched syscalls here: stay sequential
	}
	if !sent {
		if err := c.seqBurst(conn, target, base, dgrams, k); err != nil {
			return nil, err
		}
	}
	if len(c.resps) == 0 {
		return nil, fmt.Errorf("timeserve: no answer from %s: %w", c.cfg.Targets[target], ErrNoReplica)
	}
	return c.resps, nil
}

// seqBurst is the portable exchange: dgrams writes, then reads into c.resps
// until every datagram answered or the deadline fires.
func (c *Client) seqBurst(conn *net.UDPConn, target int, base uint64, dgrams, k int) error {
	for d := 0; d < dgrams; d++ {
		c.wbuf = c.wbuf[:0]
		for i := 0; i < k; i++ {
			c.wbuf = AppendRequest(c.wbuf, Request{Nonce: base + uint64(d*k+i)})
		}
		if _, err := conn.Write(c.wbuf); err != nil {
			return fmt.Errorf("timeserve: send to %s: %w", c.cfg.Targets[target], err)
		}
	}
	for got := 0; got < dgrams; {
		n, err := conn.Read(c.rbuf)
		if err != nil {
			break // deadline: keep whatever arrived
		}
		if c.appendWindow(c.rbuf[:n], base, dgrams, k) {
			got++
		}
	}
	return nil
}

// appendWindow parses one response datagram against the nonce window of an
// exchange of dgrams datagrams of k queries from base, and appends its
// responses to c.resps. It reports whether the datagram belonged to this
// exchange; strays leave c.resps untouched.
func (c *Client) appendWindow(b []byte, base uint64, dgrams, k int) bool {
	if len(b) == 0 || len(b)%RespSize != 0 || len(b) > k*RespSize {
		return false
	}
	end := base + uint64(dgrams*k)
	mark := len(c.resps)
	for off := 0; off < len(b); off += RespSize {
		r, err := ParseResponse(b[off : off+RespSize])
		if err != nil || r.Nonce < base || r.Nonce >= end {
			c.resps = c.resps[:mark]
			return false
		}
		c.resps = append(c.resps, r)
	}
	return true
}

// CacheStats reports Now's cache hits and misses.
func (c *Client) CacheStats() (hits, misses uint64) { return c.hits, c.misses }

// monotone clamps r so readings never regress, widening the bound by the
// clamp distance (the earlier reading's interval still covers true time).
func (c *Client) monotone(r Reading) Reading {
	if r.GroupClock < c.floor {
		r.Bound += c.floor - r.GroupClock
		r.GroupClock = c.floor
	} else {
		c.floor = r.GroupClock
	}
	return r
}

// conn lazily dials the target's socket.
func (c *Client) conn(i int) (*net.UDPConn, error) {
	if c.conns[i] != nil {
		return c.conns[i], nil
	}
	addr, err := net.ResolveUDPAddr("udp", c.cfg.Targets[i])
	if err != nil {
		return nil, fmt.Errorf("timeserve: resolve %s: %w", c.cfg.Targets[i], err)
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("timeserve: dial %s: %w", c.cfg.Targets[i], err)
	}
	c.conns[i] = conn
	return conn, nil
}

// Close releases the client's sockets.
func (c *Client) Close() error {
	var first error
	for _, conn := range c.conns {
		if conn == nil {
			continue
		}
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
