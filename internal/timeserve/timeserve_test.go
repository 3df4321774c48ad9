package timeserve

import (
	"sync/atomic"
	"testing"
	"time"

	"cts/internal/obs"
)

func TestWireRoundTrip(t *testing.T) {
	q := Request{Flags: 0, Nonce: 0xDEADBEEF01234567, Echo: 42}
	b := AppendRequest(nil, q)
	if len(b) != ReqSize {
		t.Fatalf("request size %d, want %d", len(b), ReqSize)
	}
	got, err := ParseRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Fatalf("request round trip: got %+v want %+v", got, q)
	}

	r := Response{Flags: FlagOK, Node: 3, Nonce: 7, Echo: 42,
		Group: 123456789 * time.Nanosecond, Bound: time.Millisecond, Epoch: 9}
	rb := make([]byte, RespSize)
	PutResponse(rb, r)
	rgot, err := ParseResponse(rb)
	if err != nil {
		t.Fatal(err)
	}
	if rgot != r {
		t.Fatalf("response round trip: got %+v want %+v", rgot, r)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	if _, err := ParseRequest(make([]byte, ReqSize-1)); err != ErrShort {
		t.Fatalf("short request: got %v", err)
	}
	b := AppendRequest(nil, Request{})
	b[0] = 0xFF
	if _, err := ParseRequest(b); err != ErrMagic {
		t.Fatalf("bad magic: got %v", err)
	}
	b = AppendRequest(nil, Request{})
	b[2] = 99
	if _, err := ParseRequest(b); err != ErrVersion {
		t.Fatalf("bad version: got %v", err)
	}
}

// fakeSource is a concurrency-safe scriptable lease source.
type fakeSource struct {
	reading atomic.Pointer[Reading]
}

func (f *fakeSource) set(r Reading) { f.reading.Store(&r) }
func (f *fakeSource) invalidate()   { f.reading.Store(nil) }
func (f *fakeSource) LeaseRead() (Reading, bool) {
	if r := f.reading.Load(); r != nil {
		return *r, true
	}
	return Reading{}, false
}

func startTestServer(t *testing.T, src LeaseSource, node uint32) *Server {
	t.Helper()
	srv, err := Start(Config{Addr: "127.0.0.1:0", Node: node, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServerAnswersFromLease(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: 5 * time.Second, Bound: 80 * time.Microsecond, Epoch: 2})
	srv := startTestServer(t, src, 7)

	cli, err := NewClient(ClientConfig{Targets: []string{srv.Addr().String()}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	r, err := cli.Query()
	if err != nil {
		t.Fatal(err)
	}
	if r.GroupClock != 5*time.Second || r.Bound != 80*time.Microsecond || r.Epoch != 2 || r.Node != 7 {
		t.Fatalf("unexpected reading %+v", r)
	}
	queries, hit, stale, drops := srv.Totals()
	if queries != 1 || hit != 1 || stale != 0 || drops != 0 {
		t.Fatalf("totals: q=%d hit=%d stale=%d drops=%d", queries, hit, stale, drops)
	}
}

func TestServerRejectsWithoutLease(t *testing.T) {
	src := &fakeSource{}
	srv := startTestServer(t, src, 1)

	cli, err := NewClient(ClientConfig{
		Targets:  []string{srv.Addr().String()},
		Timeout:  200 * time.Millisecond,
		Attempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Query(); err == nil {
		t.Fatal("expected refusal without a lease")
	}
	_, _, stale, _ := srv.Totals()
	if stale == 0 {
		t.Fatal("stale_rejected not counted")
	}
}

func TestClientRetriesAcrossReplicas(t *testing.T) {
	stale := &fakeSource{} // replica 0: no lease
	good := &fakeSource{}
	good.set(Reading{GroupClock: time.Hour, Bound: time.Microsecond, Epoch: 1})
	srv0 := startTestServer(t, stale, 0)
	srv1 := startTestServer(t, good, 1)

	cli, err := NewClient(ClientConfig{
		Targets: []string{srv0.Addr().String(), srv1.Addr().String()},
		Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	r, err := cli.Query()
	if err != nil {
		t.Fatal(err)
	}
	if r.Node != 1 {
		t.Fatalf("expected answer from replica 1, got node %d", r.Node)
	}
}

func TestClientCachesAndExtrapolates(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Minute, Bound: 50 * time.Microsecond, Epoch: 1})
	srv := startTestServer(t, src, 2)

	cli, err := NewClient(ClientConfig{
		Targets:  []string{srv.Addr().String()},
		Timeout:  time.Second,
		CacheFor: time.Hour, // everything after the first query is a hit
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	first, err := cli.Now()
	if err != nil {
		t.Fatal(err)
	}
	prev := first
	for i := 0; i < 10; i++ {
		r, err := cli.Now()
		if err != nil {
			t.Fatal(err)
		}
		if r.GroupClock < prev.GroupClock {
			t.Fatalf("cached reading regressed: %v < %v", r.GroupClock, prev.GroupClock)
		}
		if r.Bound < first.Bound {
			t.Fatalf("extrapolated bound shrank: %v < %v", r.Bound, first.Bound)
		}
		prev = r
	}
	hits, misses := cli.CacheStats()
	if hits != 10 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 10/1", hits, misses)
	}
	if queries, _, _, _ := srv.Totals(); queries != 1 {
		t.Fatalf("server saw %d queries, want 1 (cache should absorb the rest)", queries)
	}
}

func TestQueryBatch(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 4})
	srv := startTestServer(t, src, 9)

	cli, err := NewClient(ClientConfig{Targets: []string{srv.Addr().String()}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resps, err := cli.QueryBatch(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 16 {
		t.Fatalf("got %d responses, want 16", len(resps))
	}
	seen := make(map[uint64]bool)
	for _, r := range resps {
		if !r.OK() || r.Epoch != 4 || r.Node != 9 {
			t.Fatalf("bad batched response %+v", r)
		}
		if seen[r.Nonce] {
			t.Fatalf("duplicate nonce %d", r.Nonce)
		}
		seen[r.Nonce] = true
	}
	if queries, hit, _, _ := srv.Totals(); queries != 16 || hit != 16 {
		t.Fatalf("totals queries=%d hit=%d, want 16/16", queries, hit)
	}
}

func TestServerShardsAndObs(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	rec, err := obs.New(obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Start(Config{Addr: "127.0.0.1:0", Shards: 4, Node: 1, Source: src, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", srv.Shards())
	}

	cli, err := NewClient(ClientConfig{Targets: []string{srv.Addr().String()}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 20; i++ {
		if _, err := cli.Query(); err != nil {
			t.Fatal(err)
		}
	}

	m := obs.SampleMap(rec.Samples())
	if m["timeserve.queries"] != 20 || m["timeserve.lease_hit"] != 20 {
		t.Fatalf("obs samples: %v", m)
	}
	if _, ok := m["timeserve.qps"]; !ok {
		t.Fatal("missing timeserve.qps")
	}
	if _, ok := m["timeserve.shard0.drops"]; !ok {
		t.Fatal("missing per-shard drop counter")
	}
}

func TestServerDropsMalformedAndOverBatch(t *testing.T) {
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	srv := startTestServer(t, src, 1)

	cli, err := NewClient(ClientConfig{Targets: []string{srv.Addr().String()}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conn, err := cli.conn(0)
	if err != nil {
		t.Fatal(err)
	}

	// A runt datagram and a corrupt-magic request are both dropped.
	if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	bad := AppendRequest(nil, Request{Nonce: 1})
	bad[0] = 0xFF
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	// Over-batch: MaxBatch+5 queries in one datagram; 5 must be dropped.
	var over []byte
	for i := 0; i < MaxBatch+5; i++ {
		over = AppendRequest(over, Request{Nonce: uint64(i)})
	}
	if _, err := conn.Write(over); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		queries, _, _, drops := srv.Totals()
		if queries == MaxBatch && drops == 2+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("totals queries=%d drops=%d, want %d/%d", queries, drops, MaxBatch, 7)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAnswerDatagram pins the per-datagram parse rules once, without
// sockets: both I/O paths answer through this one function, so the
// mmsg-vs-seq equivalence suite only has to test the I/O primitives.
func TestAnswerDatagram(t *testing.T) {
	lease := Reading{GroupClock: 9 * time.Second, Bound: 33 * time.Microsecond, Epoch: 5}
	cases := []struct {
		name     string
		in       []byte
		ok       bool
		nonces   []uint64 // answered queries, in order
		accepted int
		drops    int
	}{
		{"empty", nil, true, nil, 0, 0},
		{"runt", []byte{1, 2, 3}, true, nil, 0, 1},
		{"single", reqs([]uint64{7}, nil), true, []uint64{7}, 1, 0},
		{"runt-tail", append(reqs([]uint64{7, 8}, nil), 0xAA), true, []uint64{7, 8}, 2, 1},
		{"bad-magic-mid-batch", reqs(seqNonces(40, 3), map[int]bool{1: true}), true, []uint64{40, 42}, 2, 1},
		{"all-bad-magic", reqs(seqNonces(40, 2), map[int]bool{0: true, 1: true}), true, nil, 0, 2},
		{"full-batch", reqs(seqNonces(10, MaxBatch), nil), true, seqNonces(10, MaxBatch), MaxBatch, 0},
		{"over-batch", reqs(seqNonces(1000, MaxBatch+5), nil), true, seqNonces(1000, MaxBatch), MaxBatch, 5},
		{"stale", reqs(seqNonces(70, 8), nil), false, seqNonces(70, 8), 8, 0},
	}
	s := &Server{cfg: Config{Node: 3}}
	out := make([]byte, MaxBatch*RespSize)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reply, accepted, drops := s.answerDatagram(tc.in, out, lease, tc.ok)
			if accepted != tc.accepted || drops != tc.drops || reply != len(tc.nonces)*RespSize {
				t.Fatalf("answerDatagram = (reply %d, accepted %d, drops %d), want (%d, %d, %d)",
					reply, accepted, drops, len(tc.nonces)*RespSize, tc.accepted, tc.drops)
			}
			for i, nonce := range tc.nonces {
				r, err := ParseResponse(out[i*RespSize : (i+1)*RespSize])
				if err != nil {
					t.Fatalf("response %d: %v", i, err)
				}
				want := Response{Flags: FlagStale, Node: 3, Nonce: nonce, Echo: nonce}
				if tc.ok {
					want = Response{Flags: FlagOK, Node: 3, Nonce: nonce, Echo: nonce,
						Group: lease.GroupClock, Bound: lease.Bound, Epoch: lease.Epoch}
				}
				if r != want {
					t.Fatalf("response %d = %+v, want %+v", i, r, want)
				}
			}
		})
	}
}
