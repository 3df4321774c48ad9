package udptransport

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cts/internal/transport"
)

// newPair builds n transports on loopback with full peer meshes.
func newMesh(t *testing.T, n int) []*Transport {
	t.Helper()
	trs := make([]*Transport, n)
	for i := 0; i < n; i++ {
		tr, err := New(transport.NodeID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	for i, a := range trs {
		for j, b := range trs {
			if i == j {
				continue
			}
			if err := a.SetPeer(transport.NodeID(j), b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return trs
}

type collector struct {
	mu   sync.Mutex
	from []transport.NodeID
	data []string
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) receiver(from transport.NodeID, payload []byte) {
	c.mu.Lock()
	c.from = append(c.from, from)
	c.data = append(c.data, string(payload))
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for datagram %d/%d", i+1, n)
		}
	}
}

func TestUnicast(t *testing.T) {
	trs := newMesh(t, 2)
	c := newCollector()
	trs[1].SetReceiver(c.receiver)
	if err := trs[0].Send(1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.from[0] != 0 || c.data[0] != "ping" {
		t.Fatalf("got from=%v data=%q", c.from[0], c.data[0])
	}
}

func TestBroadcastReachesAllPeers(t *testing.T) {
	trs := newMesh(t, 4)
	cols := make([]*collector, 4)
	for i, tr := range trs {
		cols[i] = newCollector()
		tr.SetReceiver(cols[i].receiver)
	}
	if err := trs[2].Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		cols[i].wait(t, 1)
		cols[i].mu.Lock()
		if cols[i].from[0] != 2 || cols[i].data[0] != "hello" {
			t.Fatalf("node %d: got from=%v data=%q", i, cols[i].from[0], cols[i].data[0])
		}
		cols[i].mu.Unlock()
	}
	// Sender must not hear itself.
	select {
	case <-cols[2].ch:
		t.Fatal("sender received its own broadcast")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestUnknownPeer(t *testing.T) {
	tr, err := New(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(9, []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	tr, err := New(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send err = %v, want ErrClosed", err)
	}
	if err := tr.Broadcast([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Broadcast err = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	tr, err := New(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestManyDatagramsArriveSerially(t *testing.T) {
	trs := newMesh(t, 2)
	c := newCollector()
	trs[1].SetReceiver(c.receiver)
	const n = 200
	for i := 0; i < n; i++ {
		if err := trs[0].Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// UDP on loopback rarely drops, but tolerate a little loss to avoid
	// flakes: require at least 90% delivery.
	deadline := time.After(5 * time.Second)
	got := 0
	for got < n*9/10 {
		select {
		case <-c.ch:
			got++
		case <-deadline:
			t.Fatalf("only %d/%d datagrams arrived", got, n)
		}
	}
}

func TestBadBindAddr(t *testing.T) {
	if _, err := New(0, "not an address"); err == nil {
		t.Fatal("expected error for bad bind address")
	}
}

func TestBadPeerAddr(t *testing.T) {
	tr, err := New(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.SetPeer(1, "bogus::::"); err == nil {
		t.Fatal("expected error for bad peer address")
	}
}

func TestLocalIDAndAddr(t *testing.T) {
	tr, err := New(5, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.LocalID() != 5 {
		t.Fatalf("LocalID = %v, want 5", tr.LocalID())
	}
	if tr.LocalAddr() == "" {
		t.Fatal("LocalAddr empty")
	}
}

func TestSocketBufferSizes(t *testing.T) {
	tr, err := New(1, "127.0.0.1:0", WithSocketBuffers(1<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	recv, send := tr.BufferSizes()
	// On unix the kernel reports the granted sizes (possibly clamped or
	// doubled); all we require is that the readback works at all there.
	if recv <= 0 || send <= 0 {
		t.Skipf("platform reports no effective buffer sizes (recv=%d send=%d)", recv, send)
	}
}

// obsCounter reads one of the transport's error counters by name.
func obsCounter(t *testing.T, tr *Transport, name string) uint64 {
	t.Helper()
	for _, s := range tr.ObsSamples() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("counter %q not exposed", name)
	return 0
}

// TestReadLoopSurvivesTransientErrors injects transient receive errors ahead
// of real datagrams: the read loop must count them and keep serving instead
// of exiting on the first failure, and must still shut down cleanly on Close
// (which the Cleanup verifies — a loop that ignored net.ErrClosed would hang
// it).
func TestReadLoopSurvivesTransientErrors(t *testing.T) {
	const transientErrs = 3
	var injected atomic.Uint64
	inject := func(o *options) {
		o.wrapRead = func(real readFunc) readFunc {
			return func(b []byte) (int, error) {
				if injected.Add(1) <= transientErrs {
					return 0, errors.New("simulated transient receive failure")
				}
				return real(b)
			}
		}
	}
	tr, err := New(1, "127.0.0.1:0", inject)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	sender, err := New(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	if err := sender.SetPeer(1, tr.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	tr.SetReceiver(c.receiver)

	if err := sender.Send(1, []byte("after the storm")); err != nil {
		t.Fatal(err)
	}
	c.wait(t, 1)
	c.mu.Lock()
	if c.from[0] != 0 || c.data[0] != "after the storm" {
		t.Fatalf("got from=%v data=%q", c.from[0], c.data[0])
	}
	c.mu.Unlock()
	if got := obsCounter(t, tr, "udp.read_errors"); got != transientErrs {
		t.Fatalf("udp.read_errors = %d, want %d", got, transientErrs)
	}
}

// TestBroadcastPartialFailure gives the sender one unreachable peer (an IPv6
// destination through its IPv4-bound socket) sorted ahead of a healthy one:
// the broadcast must still reach the healthy peer, report the failed peer by
// node id, and count the failure.
func TestBroadcastPartialFailure(t *testing.T) {
	sender, err := New(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	good, err := New(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { good.Close() })

	// Peer 1 (sorted first, so its failure precedes the healthy send) points
	// at an IPv6 address the IPv4-bound socket cannot reach.
	if err := sender.SetPeer(1, "[::1]:9"); err != nil {
		t.Fatal(err)
	}
	if err := sender.SetPeer(2, good.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	good.SetReceiver(c.receiver)

	err = sender.Broadcast([]byte("partial"))
	if err == nil {
		t.Fatal("broadcast to an unreachable peer reported no error")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("node %v", transport.NodeID(1))) {
		t.Fatalf("error does not name the failed peer: %v", err)
	}
	// The failure on peer 1 must not have short-circuited peer 2's send.
	c.wait(t, 1)
	c.mu.Lock()
	if c.from[0] != 0 || c.data[0] != "partial" {
		t.Fatalf("got from=%v data=%q", c.from[0], c.data[0])
	}
	c.mu.Unlock()
	if got := obsCounter(t, sender, "udp.send_errors"); got != 1 {
		t.Fatalf("udp.send_errors = %d, want 1", got)
	}
	if got := obsCounter(t, sender, "udp.read_errors"); got != 0 {
		t.Fatalf("udp.read_errors = %d, want 0", got)
	}
}

// TestBroadcastFollowsPeerChanges pins the cached fan-out list: it is rebuilt
// on every SetPeer (a new peer, a re-pointed peer), stays sorted by id
// whatever the registration order, and never contains the local node.
func TestBroadcastFollowsPeerChanges(t *testing.T) {
	sender, err := New(5, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sender.Close() })
	var rx [3]*Transport
	var got [3]*collector
	for i := range rx {
		rx[i], err = New(transport.NodeID(10+i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr := rx[i]
		t.Cleanup(func() { tr.Close() })
		got[i] = newCollector()
		rx[i].SetReceiver(got[i].receiver)
	}
	destIDs := func() []transport.NodeID {
		sender.mu.Lock()
		defer sender.mu.Unlock()
		var ids []transport.NodeID
		for _, d := range sender.dests {
			ids = append(ids, d.id)
		}
		return ids
	}

	// Registered out of order, with the local node among them.
	for _, p := range []struct {
		id   transport.NodeID
		addr string
	}{{9, rx[1].LocalAddr()}, {5, sender.LocalAddr()}, {2, rx[0].LocalAddr()}} {
		if err := sender.SetPeer(p.id, p.addr); err != nil {
			t.Fatal(err)
		}
	}
	if ids := destIDs(); len(ids) != 2 || ids[0] != 2 || ids[1] != 9 {
		t.Fatalf("fan-out = %v, want [P2 P9]", ids)
	}
	if err := sender.Broadcast([]byte("one")); err != nil {
		t.Fatal(err)
	}
	got[0].wait(t, 1)
	got[1].wait(t, 1)

	// Re-point peer 9 at a different socket: the next broadcast goes there.
	if err := sender.SetPeer(9, rx[2].LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := sender.Broadcast([]byte("two")); err != nil {
		t.Fatal(err)
	}
	got[0].wait(t, 1)
	got[2].wait(t, 1)
	got[1].mu.Lock()
	defer got[1].mu.Unlock()
	if len(got[1].data) != 1 {
		t.Fatalf("old address of a re-pointed peer received %v", got[1].data)
	}
}

func TestParsePeers(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		want    map[transport.NodeID]string
		wantErr string
	}{
		{"good with client node 0", "0=127.0.0.1:9000,1=127.0.0.1:9001,2=host:9002",
			map[transport.NodeID]string{0: "127.0.0.1:9000", 1: "127.0.0.1:9001", 2: "host:9002"}, ""},
		{"duplicate id", "1=a:1,1=b:2", nil, "duplicate node id 1"},
		{"missing =", "1=a:1,2b:2", nil, "want id=host:port"},
		{"bad id", "x=a:1", nil, "node id"},
		{"empty list", "", nil, "empty peer list"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := ParsePeers(c.spec)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("ParsePeers(%q) = %v, %v; want error containing %q", c.spec, got, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParsePeers(%q): %v", c.spec, err)
			}
			if !maps.Equal(got, c.want) {
				t.Fatalf("ParsePeers(%q) = %v, want %v", c.spec, got, c.want)
			}
		})
	}
}
