// Package udptransport implements transport.Transport over real UDP sockets
// using only the net stdlib. It is the deployment transport used by
// cmd/ctsnode and cmd/ctsclient; each datagram is framed with the sender's
// NodeID so receivers learn the logical source without reverse address
// lookups.
package udptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cts/internal/obs"
	"cts/internal/transport"
)

const (
	frameHeaderLen = 4        // big-endian sender NodeID
	maxDatagram    = 64 << 10 // read buffer size

	// defaultSockBuf is the SO_RCVBUF/SO_SNDBUF size requested at bind.
	// Token-ring traffic is bursty (a token visit flushes a whole window of
	// messages); large kernel buffers absorb the bursts instead of dropping.
	defaultSockBuf = 4 << 20
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("udptransport: closed")

// ErrUnknownPeer is returned when sending to a node with no registered address.
var ErrUnknownPeer = errors.New("udptransport: unknown peer")

// Transport is a UDP-backed transport endpoint.
type Transport struct {
	id   transport.NodeID
	conn *net.UDPConn

	// frames pools send-frame buffers so concurrent senders do not allocate
	// per datagram; the receive path reuses one long-lived buffer, since
	// the read loop is the sole reader.
	frames sync.Pool

	effRecvBuf int // effective SO_RCVBUF as reported by the kernel
	effSendBuf int // effective SO_SNDBUF as reported by the kernel

	// read is the receive primitive of the read loop, split out so tests can
	// inject transient socket errors. Set once in New, before the read
	// goroutine starts. It is the connection's plain Read: the sender's id
	// travels in the frame, so the source address (which ReadFromUDP
	// allocates per datagram) is never needed.
	read readFunc

	readErrors atomic.Uint64 // transient receive failures the loop survived
	sendErrors atomic.Uint64 // failed datagram sends, summed over peers

	mu    sync.Mutex
	peers map[transport.NodeID]*net.UDPAddr
	// dests is the broadcast fan-out: every peer but this node, sorted by
	// id. SetPeer replaces it with a fresh slice, so a Broadcast may keep
	// using the one it read after releasing mu.
	dests  []dest
	recv   transport.Receiver
	closed bool

	done chan struct{}
}

var _ transport.Transport = (*Transport)(nil)

// dest is one broadcast destination.
type dest struct {
	id   transport.NodeID
	addr *net.UDPAddr
}

// Option configures a Transport.
type Option func(*options)

// readFunc is the receive primitive of the read loop.
type readFunc func([]byte) (int, error)

type options struct {
	recvBuf, sendBuf int
	// wrapRead, when set, wraps the read loop's receive primitive —
	// test-only seam for injecting transient socket errors.
	wrapRead func(readFunc) readFunc
}

// WithSocketBuffers requests SO_RCVBUF/SO_SNDBUF sizes (the kernel may
// clamp; BufferSizes reports what it granted). Zero keeps the default
// (4 MiB each).
func WithSocketBuffers(recv, send int) Option {
	return func(o *options) {
		if recv > 0 {
			o.recvBuf = recv
		}
		if send > 0 {
			o.sendBuf = send
		}
	}
}

// New binds a UDP socket on bindAddr (e.g. "127.0.0.1:0") for node id and
// starts the receive loop. Peer addresses are registered with SetPeer.
func New(id transport.NodeID, bindAddr string, opts ...Option) (*Transport, error) {
	o := options{recvBuf: defaultSockBuf, sendBuf: defaultSockBuf}
	for _, opt := range opts {
		opt(&o)
	}
	laddr, err := net.ResolveUDPAddr("udp", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: resolve %q: %w", bindAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: listen %q: %w", bindAddr, err)
	}
	_ = conn.SetReadBuffer(o.recvBuf)
	_ = conn.SetWriteBuffer(o.sendBuf)
	tr := &Transport{
		id:    id,
		conn:  conn,
		peers: make(map[transport.NodeID]*net.UDPAddr),
		done:  make(chan struct{}),
	}
	tr.frames.New = func() any { return make([]byte, 0, 2048) }
	tr.read = conn.Read
	if o.wrapRead != nil {
		tr.read = o.wrapRead(tr.read)
	}
	tr.effRecvBuf, tr.effSendBuf = effectiveBufferSizes(conn)
	go tr.readLoop()
	return tr, nil
}

// BufferSizes reports the effective socket buffer sizes the kernel granted
// at bind (0, 0 where the platform offers no way to read them back). On
// Linux the reported SO_RCVBUF value includes the kernel's bookkeeping
// doubling.
func (t *Transport) BufferSizes() (recv, send int) {
	return t.effRecvBuf, t.effSendBuf
}

// LocalID implements transport.Transport.
func (t *Transport) LocalID() transport.NodeID { return t.id }

// LocalAddr reports the bound socket address (useful when binding port 0).
func (t *Transport) LocalAddr() string { return t.conn.LocalAddr().String() }

// SetPeer registers (or updates) the address of a peer node.
func (t *Transport) SetPeer(id transport.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udptransport: resolve peer %v %q: %w", id, addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = ua
	dests := make([]dest, 0, len(t.peers))
	for id, addr := range t.peers {
		if id != t.id {
			dests = append(dests, dest{id, addr})
		}
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i].id < dests[j].id })
	t.dests = dests
	return nil
}

// SetReceiver implements transport.Transport. The receiver is invoked
// serially from the transport's read goroutine; the payload is only valid
// for the duration of the call.
func (t *Transport) SetReceiver(r transport.Receiver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recv = r
}

// Send implements transport.Transport.
func (t *Transport) Send(to transport.NodeID, payload []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	addr, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", ErrUnknownPeer, to)
	}
	frame := t.frame(payload)
	err := t.writeFrame(to, addr, frame)
	t.frames.Put(frame) //nolint:staticcheck // slice header boxing is fine here
	return err
}

// Broadcast implements transport.Transport.
func (t *Transport) Broadcast(payload []byte) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	dests := t.dests
	t.mu.Unlock()
	// Attempt every peer even after a failure — a broadcast that stops at the
	// first bad peer would silently skip the rest of the ring — and report
	// every failed destination, not just the first.
	frame := t.frame(payload)
	var errs []error
	for _, d := range dests {
		if err := t.writeFrame(d.id, d.addr, frame); err != nil {
			errs = append(errs, err)
		}
	}
	t.frames.Put(frame) //nolint:staticcheck // slice header boxing is fine here
	return errors.Join(errs...)
}

// frame prefixes payload with the sender id in a pooled buffer; the caller
// returns it to t.frames once sent.
func (t *Transport) frame(payload []byte) []byte {
	frame := t.frames.Get().([]byte)[:0]
	frame = binary.BigEndian.AppendUint32(frame, uint32(t.id))
	return append(frame, payload...)
}

func (t *Transport) writeFrame(to transport.NodeID, addr *net.UDPAddr, frame []byte) error {
	if _, err := t.conn.WriteToUDP(frame, addr); err != nil {
		t.sendErrors.Add(1)
		return fmt.Errorf("udptransport: send to node %v (%v): %w", to, addr, err)
	}
	return nil
}

// ObsSamples implements obs.Source, exposing the transport's error counters
// (udp.read_errors, udp.send_errors). Unlike the loop-confined stack
// sources, these counters are atomics, so gathering is safe from any
// goroutine.
func (t *Transport) ObsSamples() []obs.Sample {
	return []obs.Sample{
		{Node: uint32(t.id), Name: "udp.read_errors", Value: t.readErrors.Load()},
		{Node: uint32(t.id), Name: "udp.send_errors", Value: t.sendErrors.Load()},
	}
}

// Close implements transport.Transport. It stops the read loop and waits for
// it to exit.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		<-t.done
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	<-t.done
	return err
}

func (t *Transport) readLoop() {
	defer close(t.done)
	buf := make([]byte, maxDatagram)
	for {
		n, err := t.read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // Close tore down the socket; end the loop
			}
			// Transient receive failure (ICMP-induced errors, EINTR,
			// momentary resource exhaustion): one bad datagram must not
			// silence the node for good. Count it and keep serving.
			t.readErrors.Add(1)
			continue
		}
		if n < frameHeaderLen {
			continue // runt frame
		}
		from := transport.NodeID(binary.BigEndian.Uint32(buf))
		t.mu.Lock()
		recv := t.recv
		t.mu.Unlock()
		if recv != nil {
			recv(from, buf[frameHeaderLen:n])
		}
	}
}

// ParsePeers parses a comma-separated "id=host:port" list (the -peers flag
// of ctsnode and ctsclient) into a node→address map. Node 0, the paper's
// client processor, is a valid id; a repeated id is an error rather than a
// silent overwrite.
func ParsePeers(spec string) (map[transport.NodeID]string, error) {
	if spec == "" {
		return nil, errors.New("empty peer list")
	}
	out := make(map[transport.NodeID]string)
	for _, entry := range strings.Split(spec, ",") {
		idStr, addr, ok := strings.Cut(entry, "=")
		idStr, addr = strings.TrimSpace(idStr), strings.TrimSpace(addr)
		if !ok || addr == "" {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", entry)
		}
		n, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad peer entry %q: node id: %v", entry, err)
		}
		id := transport.NodeID(n)
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("bad peer entry %q: duplicate node id %d", entry, n)
		}
		out[id] = addr
	}
	return out, nil
}
