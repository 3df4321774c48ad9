package timeserve

import (
	"encoding/hex"
	"net"
	"sort"
	"testing"
	"time"
)

// startIOServer starts a test server with an explicit I/O mode.
func startIOServer(t *testing.T, src LeaseSource, node uint32, io IOMode) *Server {
	t.Helper()
	srv, err := Start(Config{Addr: "127.0.0.1:0", Node: node, Source: src, IO: io})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// sendAndCollect fires the raw datagrams at addr and returns every response
// datagram (hex-encoded, sorted) that arrives before 150ms of silence.
func sendAndCollect(t *testing.T, addr net.Addr, dgrams [][]byte) []string {
	t.Helper()
	conn, err := net.Dial("udp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, d := range dgrams {
		if _, err := conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	buf := make([]byte, MaxDatagram)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
		n, err := conn.Read(buf)
		if err != nil {
			break // silence: the server is done answering
		}
		got = append(got, hex.EncodeToString(buf[:n]))
	}
	sort.Strings(got)
	return got
}

// reqs builds one request datagram holding the given nonces; corrupt nonces
// (flagged via badMagic) get their magic byte smashed.
func reqs(nonces []uint64, badMagic map[int]bool) []byte {
	var b []byte
	for i, n := range nonces {
		off := len(b)
		b = AppendRequest(b, Request{Nonce: n, Echo: n})
		if badMagic[i] {
			b[off] = 0xFF
		}
	}
	return b
}

func seqNonces(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// TestMmsgSeqEquivalence replays the same request streams through the batched
// and the sequential serve paths and asserts byte-identical response sets and
// identical counters. Both paths answer through answerDatagram (whose parse
// rules TestAnswerDatagram pins), so what this suite tests is the I/O
// primitives around it: recvmmsg/sendmmsg staging against ReadFrom/WriteTo.
// Conforming datagrams (≤ MaxBatch requests) must be indistinguishable
// between the two paths.
func TestMmsgSeqEquivalence(t *testing.T) {
	over := make([]uint64, MaxBatch+5)
	for i := range over {
		over[i] = uint64(1000 + i)
	}
	cases := []struct {
		name   string
		lease  bool
		dgrams [][]byte
	}{
		{"single-query", true, [][]byte{reqs([]uint64{1}, nil)}},
		{"full-batch", true, [][]byte{reqs(seqNonces(10, MaxBatch), nil)}},
		{"multi-datagram", true, [][]byte{
			reqs(seqNonces(100, 4), nil),
			reqs(seqNonces(200, 4), nil),
			reqs(seqNonces(300, 4), nil),
			reqs(seqNonces(400, 4), nil),
			reqs(seqNonces(500, 4), nil),
			reqs(seqNonces(600, 4), nil),
			reqs(seqNonces(700, 4), nil),
			reqs(seqNonces(800, 4), nil),
		}},
		{"runt-then-valid", true, [][]byte{{1, 2, 3}, reqs([]uint64{9}, nil)}},
		{"bad-magic-mid-batch", true, [][]byte{reqs(seqNonces(40, 3), map[int]bool{1: true})}},
		{"over-batch", true, [][]byte{reqs(over, nil)}},
		{"stale-refusal", false, [][]byte{reqs(seqNonces(70, 8), nil)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &fakeSource{}
			if tc.lease {
				src.set(Reading{GroupClock: 9 * time.Second, Bound: 33 * time.Microsecond, Epoch: 5})
			}
			seq := startIOServer(t, src, 3, IOSequential)
			auto := startIOServer(t, src, 3, IOAuto)

			seqResp := sendAndCollect(t, seq.Addr(), tc.dgrams)
			autoResp := sendAndCollect(t, auto.Addr(), tc.dgrams)
			if len(seqResp) != len(autoResp) {
				t.Fatalf("response count: seq=%d mmsg=%d", len(seqResp), len(autoResp))
			}
			for i := range seqResp {
				if seqResp[i] != autoResp[i] {
					t.Fatalf("response %d differs:\nseq  %s\nmmsg %s", i, seqResp[i], autoResp[i])
				}
			}

			// Counters must agree exactly (poll briefly: drops are charged
			// after the reply goes out).
			deadline := time.Now().Add(2 * time.Second)
			for {
				q1, h1, s1, d1 := seq.Totals()
				q2, h2, s2, d2 := auto.Totals()
				if q1 == q2 && h1 == h2 && s1 == s2 && d1 == d2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("totals diverge: seq=%d/%d/%d/%d mmsg=%d/%d/%d/%d",
						q1, h1, s1, d1, q2, h2, s2, d2)
				}
				time.Sleep(2 * time.Millisecond)
			}
			if MmsgSupported() {
				if got := auto.IOPath(); got != "mmsg" {
					t.Fatalf("auto server IOPath = %q, want mmsg", got)
				}
				if auto.mmsgDrains.Load() == 0 && len(autoResp) > 0 {
					t.Fatal("auto server answered without a single mmsg drain")
				}
			}
			if got := seq.IOPath(); got != "seq" {
				t.Fatalf("seq server IOPath = %q, want seq", got)
			}
		})
	}
}

func TestQueryBurst(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 4})
	srv := startTestServer(t, src, 9)

	cli, err := NewClient(ClientConfig{Targets: []string{srv.Addr().String()}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const dgrams, k = 8, 4
	resps, err := cli.QueryBurst(dgrams, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != dgrams*k {
		t.Fatalf("got %d responses, want %d", len(resps), dgrams*k)
	}
	seen := make(map[uint64]bool)
	for _, r := range resps {
		if !r.OK() || r.Epoch != 4 || r.Node != 9 {
			t.Fatalf("bad burst response %+v", r)
		}
		if seen[r.Nonce] {
			t.Fatalf("duplicate nonce %d", r.Nonce)
		}
		seen[r.Nonce] = true
	}
	if queries, hit, _, _ := srv.Totals(); queries != dgrams*k || hit != dgrams*k {
		t.Fatalf("totals queries=%d hit=%d, want %d", queries, hit, dgrams*k)
	}
	want := "seq"
	if MmsgSupported() {
		want = "mmsg"
	}
	if got := cli.IOPath(); got != want {
		t.Fatalf("client IOPath = %q, want %q", got, want)
	}
}

func TestQueryBurstSequentialForced(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 2})
	srv := startIOServer(t, src, 5, IOSequential)

	cli, err := NewClient(ClientConfig{
		Targets: []string{srv.Addr().String()},
		Timeout: time.Second,
		IO:      IOSequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if got := cli.IOPath(); got != "seq" {
		t.Fatalf("client IOPath = %q, want seq", got)
	}
	resps, err := cli.QueryBurst(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 32 {
		t.Fatalf("got %d responses, want 32", len(resps))
	}
	for _, r := range resps {
		if !r.OK() || r.Epoch != 2 || r.Node != 5 {
			t.Fatalf("bad response %+v", r)
		}
	}
	if srv.mmsgDrains.Load() != 0 {
		t.Fatal("forced-sequential server used the mmsg path")
	}
}

func TestQueryBurstReturnsRefusals(t *testing.T) {
	src := &fakeSource{} // no lease: replies carry FlagStale
	srv := startTestServer(t, src, 1)

	cli, err := NewClient(ClientConfig{
		Targets:  []string{srv.Addr().String()},
		Timeout:  500 * time.Millisecond,
		Attempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resps, err := cli.QueryBurst(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 6 {
		t.Fatalf("got %d responses, want 6", len(resps))
	}
	for _, r := range resps {
		if r.OK() {
			t.Fatalf("expected a refusal, got %+v", r)
		}
	}
}

func TestQueryBurstValidates(t *testing.T) {
	cli, err := NewClient(ClientConfig{Targets: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, bad := range [][2]int{{0, 1}, {MaxBurst + 1, 1}, {1, 0}, {1, MaxBatch + 1}} {
		if _, err := cli.QueryBurst(bad[0], bad[1]); err == nil {
			t.Fatalf("QueryBurst(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

func TestParseIOMode(t *testing.T) {
	cases := map[string]IOMode{"": IOAuto, "auto": IOAuto, "seq": IOSequential, "mmsg": IOMmsg}
	for in, want := range cases {
		got, err := ParseIOMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseIOMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseIOMode("zerocopy"); err == nil {
		t.Fatal("ParseIOMode accepted garbage")
	}
	if IOAuto.String() != "auto" || IOSequential.String() != "seq" || IOMmsg.String() != "mmsg" {
		t.Fatal("IOMode.String mismatch")
	}
}

func TestIOMmsgModeRejectedWhereUnsupported(t *testing.T) {
	if MmsgSupported() {
		// The require-mode must start and stay on the batched path.
		src := &fakeSource{}
		src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
		srv := startIOServer(t, src, 1, IOMmsg)
		if srv.IOPath() != "mmsg" {
			t.Fatalf("IOMmsg server path = %q", srv.IOPath())
		}
		return
	}
	if _, err := Start(Config{Addr: "127.0.0.1:0", Node: 1, Source: &fakeSource{}, IO: IOMmsg}); err == nil {
		t.Fatal("Start accepted IOMmsg on a build without the batched path")
	}
	if _, err := NewClient(ClientConfig{Targets: []string{"127.0.0.1:1"}, IO: IOMmsg}); err == nil {
		t.Fatal("NewClient accepted IOMmsg on a build without the batched path")
	}
}

func TestReusePortFallbackObs(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	srv := startTestServer(t, src, 1)
	if srv.ReusePortFallback() {
		t.Fatal("unexpected reuseport fallback on a fresh bind")
	}
	found := false
	for _, s := range srv.ObsSamples() {
		if s.Name == "timeserve.reuseport_fallback" {
			found = true
			if s.Value != 0 {
				t.Fatalf("reuseport_fallback = %v, want 0", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("timeserve.reuseport_fallback sample missing")
	}
}
