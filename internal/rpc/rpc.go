// Package rpc provides the remote-method-invocation layer of the paper's
// testbed (its e*ORB equivalent): a client multicasts a request to a
// replicated server group through the group-communication layer and accepts
// the first reply, deduplicating the redundant replies that replication can
// produce. The client participates in the Totem ring (as on the paper's node
// P0) but is not itself replicated.
package rpc

import (
	"errors"
	"fmt"
	"time"

	"cts/internal/gcs"
	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/wire"
)

// ErrTimeout is reported when a call's deadline elapses before any reply.
var ErrTimeout = errors.New("rpc: invocation timed out")

// ErrClosed is reported for calls made after Close.
var ErrClosed = errors.New("rpc: client closed")

// ClientConfig configures a Client.
type ClientConfig struct {
	// Runtime is the client's event loop. Required.
	Runtime sim.Runtime
	// Stack is the client's group-communication endpoint. Required.
	Stack *gcs.Stack
	// ClientGroup is the group replies are addressed to; it must be unique
	// to this client. Required (non-zero).
	ClientGroup wire.GroupID
	// ServerGroup is the replicated server group to invoke. Required.
	ServerGroup wire.GroupID
	// Conn identifies the connection between the two groups. Default 1.
	Conn wire.ConnID
	// Timeout bounds each invocation; zero means no timeout.
	Timeout time.Duration
	// Retry is the retransmission interval for unanswered requests. A
	// request sent while the client is cut off in a non-primary network
	// component dies with that component; retransmission (with the same
	// message identifier — the server suppresses duplicate executions)
	// delivers it after the partition heals. Default Timeout/4 when a
	// timeout is set, otherwise no retransmission.
	Retry time.Duration
	// Obs registers this client's counters and records per-invocation
	// latency into the "rpc.invoke_latency" histogram. A nil recorder
	// disables instrumentation at no cost. Optional.
	Obs *obs.Recorder
}

// Validate checks cfg and fills defaults, returning the effective
// configuration.
func (c ClientConfig) Validate() (ClientConfig, error) {
	if c.Runtime == nil || c.Stack == nil {
		return c, errors.New("rpc: Runtime and Stack are required")
	}
	if c.ClientGroup == 0 || c.ServerGroup == 0 {
		return c, errors.New("rpc: ClientGroup and ServerGroup are required")
	}
	if c.Timeout < 0 {
		return c, fmt.Errorf("rpc: ClientConfig.Timeout must not be negative (got %v)", c.Timeout)
	}
	if c.Retry < 0 {
		return c, fmt.Errorf("rpc: ClientConfig.Retry must not be negative (got %v)", c.Retry)
	}
	if c.Conn == 0 {
		c.Conn = 1
	}
	if c.Retry == 0 && c.Timeout > 0 {
		c.Retry = c.Timeout / 4
	}
	return c, nil
}

// Stats counts client activity.
type Stats struct {
	Invocations uint64 // requests sent
	Replies     uint64 // invocations completed by a first reply
	Timeouts    uint64 // invocations failed by deadline
	Retries     uint64 // request retransmissions
	DupReplies  uint64 // redundant replies dropped
}

// Reply is a completed invocation's result.
type Reply struct {
	Body      []byte
	Replica   uint32        // transport identity of the replica whose reply arrived first
	Timestamp time.Duration // serving group's consistent group clock (§5)
	Err       error
}

type call struct {
	done  func(Reply)
	msg   wire.Message // retained for retransmission
	timer sim.Canceler
	retry sim.Canceler
	start time.Duration // loop clock at send, for the latency histogram
}

// Client invokes methods on a replicated server group.
type Client struct {
	rt     sim.Runtime
	stack  *gcs.Stack
	cfg    ClientConfig
	group  *gcs.Group
	seq    uint64
	nextID uint64
	calls  map[uint64]*call
	closed bool
	stats  Stats
	obs    *obs.Recorder
}

// NewClient creates a client and joins its reply group.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	c := &Client{
		rt:    cfg.Runtime,
		stack: cfg.Stack,
		cfg:   cfg,
		calls: make(map[uint64]*call),
		obs:   cfg.Obs,
	}
	g, err := cfg.Stack.Join(cfg.ClientGroup, c.onReply, nil)
	if err != nil {
		return nil, fmt.Errorf("rpc: %w", err)
	}
	c.group = g
	cfg.Obs.Register(c)
	return c, nil
}

// ObsSamples implements obs.Source under the canonical rpc.* names.
// Loop-only.
func (c *Client) ObsSamples() []obs.Sample {
	id := uint32(c.stack.LocalID())
	return []obs.Sample{
		{Node: id, Name: "rpc.invocations", Value: c.stats.Invocations},
		{Node: id, Name: "rpc.replies", Value: c.stats.Replies},
		{Node: id, Name: "rpc.timeouts", Value: c.stats.Timeouts},
		{Node: id, Name: "rpc.retries", Value: c.stats.Retries},
		{Node: id, Name: "rpc.dup_replies", Value: c.stats.DupReplies},
	}
}

// Invoke sends a request and calls done with the first reply (or an error).
// done runs on the client's runtime loop. Safe to call from any goroutine.
func (c *Client) Invoke(method string, body []byte, done func(Reply)) {
	c.InvokeStamped(method, body, 0, done)
}

// InvokeStamped is Invoke with a causal group clock timestamp attached: the
// serving group's clock is advanced past ts before the request executes, so
// readings produced downstream causally follow readings obtained from
// another group (§5 of the paper). Pass the Timestamp of an earlier Reply.
func (c *Client) InvokeStamped(method string, body []byte, ts time.Duration, done func(Reply)) {
	bodyCopy := make([]byte, len(body))
	copy(bodyCopy, body)
	c.rt.Post(func() {
		if c.closed {
			done(Reply{Err: ErrClosed})
			return
		}
		c.nextID++
		c.seq++
		id := c.nextID
		payload, err := wire.MarshalRequest(wire.RequestPayload{
			InvocationID: id,
			ClientNode:   uint32(c.stack.LocalID()),
			Timestamp:    ts,
			Method:       method,
			Body:         bodyCopy,
		})
		if err != nil {
			done(Reply{Err: fmt.Errorf("rpc: %w", err)})
			return
		}
		msg := wire.Message{
			Header: wire.Header{Type: wire.TypeRequest,
				SrcGroup: c.cfg.ClientGroup, DstGroup: c.cfg.ServerGroup,
				Conn: c.cfg.Conn, Seq: c.seq},
			Payload: payload,
		}
		cl := &call{done: done, msg: msg, start: c.rt.Now()}
		c.calls[id] = cl
		c.stats.Invocations++
		if c.cfg.Timeout > 0 {
			cl.timer = c.rt.After(c.cfg.Timeout, func() {
				c.drop(id)
				c.stats.Timeouts++
				done(Reply{Err: ErrTimeout})
			})
		}
		if c.cfg.Retry > 0 {
			c.armRetry(cl)
		}
		if err := c.stack.Multicast(msg); err != nil {
			c.drop(id)
			done(Reply{Err: fmt.Errorf("rpc: %w", err)})
		}
	})
}

// drop removes a call and cancels its timers. Cancellation is exact
// (sim.Canceler), so neither timer's callback runs once its call is gone.
func (c *Client) drop(id uint64) {
	cl, ok := c.calls[id]
	if !ok {
		return
	}
	delete(c.calls, id)
	if cl.timer != nil {
		cl.timer.Cancel()
	}
	if cl.retry != nil {
		cl.retry.Cancel()
	}
}

// armRetry schedules periodic retransmission of an unanswered request.
func (c *Client) armRetry(cl *call) {
	cl.retry = c.rt.After(c.cfg.Retry, func() {
		c.stats.Retries++
		_ = c.stack.Multicast(cl.msg)
		c.armRetry(cl)
	})
}

// InvokeSync is a blocking convenience for real-time deployments. It must
// not be called from the runtime loop (it would deadlock a simulation).
func (c *Client) InvokeSync(method string, body []byte) ([]byte, error) {
	ch := make(chan Reply, 1)
	c.Invoke(method, body, func(r Reply) { ch <- r })
	r := <-ch
	return r.Body, r.Err
}

// Close fails all outstanding calls and leaves the reply group.
func (c *Client) Close() {
	c.rt.Post(func() {
		if c.closed {
			return
		}
		c.closed = true
		for id, cl := range c.calls {
			c.drop(id)
			cl.done(Reply{Err: ErrClosed})
		}
		c.group.Leave()
	})
}

// onReply handles a delivered reply: the first reply per invocation wins and
// duplicates (from redundant replicas) are dropped.
func (c *Client) onReply(m wire.Message, _ gcs.Meta) {
	if m.Type != wire.TypeReply {
		return
	}
	p, err := wire.UnmarshalReply(m.Payload)
	if err != nil {
		return
	}
	cl, ok := c.calls[p.InvocationID]
	if !ok {
		c.stats.DupReplies++
		return // duplicate or stale reply
	}
	c.drop(p.InvocationID)
	c.stats.Replies++
	c.obs.Observe("rpc.invoke_latency", c.rt.Now()-cl.start)
	body := make([]byte, len(p.Body))
	copy(body, p.Body)
	cl.done(Reply{Body: body, Replica: p.ReplicaNode, Timestamp: p.Timestamp})
}
