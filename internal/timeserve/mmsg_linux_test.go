//go:build linux && (amd64 || arm64)

package timeserve

import (
	"syscall"
	"testing"
	"time"

	"cts/internal/testutil"
)

// startFaultServer starts a server without t.Cleanup so the test controls
// shutdown ordering: the server must be closed BEFORE an injected syscall
// stub is restored, or the serve goroutines race the restore.
func startFaultServer(t *testing.T, src LeaseSource) *Server {
	t.Helper()
	srv, err := Start(Config{Addr: "127.0.0.1:0", Node: 1, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestShortSendmmsgResume injects a sendmmsg that accepts at most one reply
// per call and asserts the flush loop resumes short completions until every
// staged reply is out.
func TestShortSendmmsgResume(t *testing.T) {
	defer func() { sendmmsgFn = rawSendmmsg }()
	sendmmsgFn = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
		return rawSendmmsg(fd, hdrs[:1])
	}

	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	srv := startFaultServer(t, src)
	defer srv.Close()

	const dgrams = 8
	var all [][]byte
	for d := 0; d < dgrams; d++ {
		all = append(all, reqs(seqNonces(uint64(d*10), 2), nil))
	}
	got := sendAndCollect(t, srv.Addr(), all)
	if len(got) != dgrams {
		t.Fatalf("got %d response datagrams, want %d (short completions not resumed)", len(got), dgrams)
	}
	if srv.IOPath() != "mmsg" {
		t.Fatalf("IOPath = %q, want mmsg", srv.IOPath())
	}

	srv.Close()
}

// TestRecvmmsgENOSYSDegrades injects ENOSYS before the first drain ever
// succeeds and asserts the shard falls back to the sequential loop — queries
// still answered, fallback counted, OnFallback fired exactly once.
func TestRecvmmsgENOSYSDegrades(t *testing.T) {
	defer func() { recvmmsgFn = rawRecvmmsg }()
	recvmmsgFn = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
		return 0, syscall.ENOSYS
	}

	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	fellReasons := make(chan string, 4)
	srv, err := Start(Config{Addr: "127.0.0.1:0", Node: 1, Source: src,
		OnFallback: func(reason string) { fellReasons <- reason }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := NewClient(ClientConfig{
		Targets: []string{srv.Addr().String()},
		Timeout: time.Second,
		IO:      IOSequential, // keep the client off the injected stub
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Query(); err != nil {
		t.Fatalf("degraded server did not answer: %v", err)
	}
	if srv.IOPath() != "seq" {
		t.Fatalf("IOPath = %q, want seq after ENOSYS", srv.IOPath())
	}
	if srv.mmsgFell.Load() == 0 {
		t.Fatal("mmsg fallback not counted")
	}
	select {
	case reason := <-fellReasons:
		if reason == "" {
			t.Fatal("empty fallback reason")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnFallback never fired")
	}
	select {
	case r := <-fellReasons:
		t.Fatalf("OnFallback fired more than once (%q)", r)
	default:
	}

	cli.Close()
	srv.Close()
}

// TestClientBurstENOSYSDegrades injects ENOSYS into sendmmsg before the
// client has ever proven the syscalls and asserts QueryBurst silently
// degrades to the sequential burst.
func TestClientBurstENOSYSDegrades(t *testing.T) {
	defer func() { sendmmsgFn = rawSendmmsg }()
	sendmmsgFn = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
		return 0, syscall.ENOSYS
	}

	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	// Sequential server: the injected stub must stay client-side only.
	srv, err := Start(Config{Addr: "127.0.0.1:0", Node: 2, Source: src, IO: IOSequential})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := NewClient(ClientConfig{Targets: []string{srv.Addr().String()}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if got := cli.IOPath(); got != "mmsg" {
		t.Fatalf("fresh client IOPath = %q, want mmsg", got)
	}
	resps, err := cli.QueryBurst(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 16 {
		t.Fatalf("got %d responses, want 16", len(resps))
	}
	if got := cli.IOPath(); got != "seq" {
		t.Fatalf("client IOPath = %q, want seq after ENOSYS", got)
	}

	cli.Close()
	srv.Close()
}

// TestOversizedDatagramTruncated sends a datagram larger than the receive
// slot: the kernel truncates it (MSG_TRUNC), the batch still serves MaxBatch
// queries, and the lost tail is charged to the drop counter.
func TestOversizedDatagramTruncated(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	srv := startIOServer(t, src, 1, IOMmsg)

	// 173 requests = 4152 bytes > mmsgRecvSlot (4096): the kernel keeps 170
	// full requests plus a 16-byte runt tail.
	oversized := reqs(seqNonces(0, 173), nil)
	if len(oversized) <= mmsgRecvSlot {
		t.Fatalf("test datagram only %d bytes, want > %d", len(oversized), mmsgRecvSlot)
	}
	got := sendAndCollect(t, srv.Addr(), [][]byte{oversized})
	if len(got) != 1 {
		t.Fatalf("got %d response datagrams, want 1", len(got))
	}
	if wantLen := MaxBatch * RespSize * 2; len(got[0]) != wantLen { // hex doubles
		t.Fatalf("response datagram %d hex chars, want %d (MaxBatch responses)", len(got[0]), wantLen)
	}
	// Drops: 1 (MSG_TRUNC) + 106 (over-batch tail of the truncated 4096
	// bytes) + 1 (16-byte runt remainder).
	const wantDrops = 1 + (mmsgRecvSlot-MaxBatch*ReqSize)/ReqSize + 1
	deadline := time.Now().Add(2 * time.Second)
	for {
		queries, _, _, drops := srv.Totals()
		if queries == MaxBatch && drops == wantDrops {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("totals queries=%d drops=%d, want %d/%d", queries, drops, MaxBatch, wantDrops)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeBatchAllocFree gates the batched drain-serve cycle at zero heap
// allocations per operation, the dynamic counterpart of the static allocfree
// proof on batchLoop/serveBatch.
func TestServeBatchAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocs/op is perturbed by race-detector instrumentation")
	}
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
	if allocs := testing.AllocsPerRun(200, func() { s.serveBatch(sh, r) }); allocs != 0 {
		t.Fatalf("serveBatch allocates %.1f allocs/op, want 0", allocs)
	}
	if got := ServeAllocsPerOp(); got != 0 {
		t.Fatalf("ServeAllocsPerOp() = %v, want 0", got)
	}
}
