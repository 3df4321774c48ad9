package timeserve

import (
	"errors"
	"net"
	"testing"
	"time"

	"cts/internal/testutil"
)

// clientModes are the two client I/O paths every exchange test runs under:
// batched where the build has it, and forced sequential.
var clientModes = []IOMode{IOAuto, IOSequential}

func newModeClient(t *testing.T, io IOMode, attempts int, targets ...string) *Client {
	t.Helper()
	cli, err := NewClient(ClientConfig{Targets: targets, Timeout: 500 * time.Millisecond, Attempts: attempts, IO: io})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func TestQueryBatchRotatesPastRefusal(t *testing.T) {
	for _, io := range clientModes {
		t.Run(io.String(), func(t *testing.T) {
			good := &fakeSource{}
			good.set(Reading{GroupClock: time.Hour, Bound: time.Microsecond, Epoch: 6})
			refusing := startTestServer(t, &fakeSource{}, 1)
			serving := startTestServer(t, good, 2)
			cli := newModeClient(t, io, 0, refusing.Addr().String(), serving.Addr().String())

			const k = 8
			resps, err := cli.QueryBatch(k)
			if err != nil {
				t.Fatal(err)
			}
			if len(resps) != k {
				t.Fatalf("got %d responses, want %d", len(resps), k)
			}
			for _, r := range resps {
				if !r.OK() || r.Node != 2 || r.Epoch != 6 {
					t.Fatalf("response %+v, want a leased answer from node 2", r)
				}
			}
			if _, _, stale, _ := refusing.Totals(); stale != k {
				t.Fatalf("refusing replica counted %d refusals, want %d", stale, k)
			}
		})
	}
}

func TestQueryBatchAllRefusedIsStale(t *testing.T) {
	for _, io := range clientModes {
		t.Run(io.String(), func(t *testing.T) {
			a := startTestServer(t, &fakeSource{}, 1)
			b := startTestServer(t, &fakeSource{}, 2)
			cli := newModeClient(t, io, 0, a.Addr().String(), b.Addr().String())

			if _, err := cli.QueryBatch(4); !errors.Is(err, ErrStale) {
				t.Fatalf("QueryBatch error %v, want one wrapping ErrStale", err)
			}
			if _, err := cli.Query(); !errors.Is(err, ErrStale) {
				t.Fatalf("Query error %v, want one wrapping ErrStale", err)
			}
			_, _, staleA, _ := a.Totals()
			_, _, staleB, _ := b.Totals()
			if staleA == 0 || staleB == 0 {
				t.Fatalf("refusals a=%d b=%d: the client did not try both targets", staleA, staleB)
			}
		})
	}
}

// strayGroup marks the responses of the datagrams strayResponder sends out of
// the exchange's nonce window; the client must never return one.
const strayGroup = 666 * time.Second

// strayResponder answers every request datagram twice: first with a
// well-formed response datagram whose nonces lie outside the client's window
// (a reply to some other attempt), then with the right one.
func strayResponder(t *testing.T) net.Addr {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		in := make([]byte, MaxDatagram)
		out := make([]byte, MaxBatch*RespSize)
		for {
			n, from, err := pc.ReadFrom(in)
			if err != nil {
				return
			}
			for _, stray := range []bool{true, false} {
				reply := 0
				for off := 0; off+ReqSize <= n; off += ReqSize {
					q, err := ParseRequest(in[off : off+ReqSize])
					if err != nil {
						continue
					}
					r := Response{Flags: FlagOK, Node: 4, Nonce: q.Nonce, Group: time.Second, Bound: time.Microsecond, Epoch: 1}
					if stray {
						r.Nonce += 1 << 40
						r.Group = strayGroup
					}
					PutResponse(out[reply:], r)
					reply += RespSize
				}
				if _, err := pc.WriteTo(out[:reply], from); err != nil {
					return
				}
			}
		}
	}()
	return pc.LocalAddr()
}

func TestStrayDatagramsDiscarded(t *testing.T) {
	for _, io := range clientModes {
		t.Run(io.String(), func(t *testing.T) {
			cli := newModeClient(t, io, 1, strayResponder(t).String())
			check := func(call string, resps []Response, err error, want int) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", call, err)
				}
				if len(resps) != want {
					t.Fatalf("%s: got %d responses, want %d", call, len(resps), want)
				}
				for _, r := range resps {
					if r.Group == strayGroup {
						t.Fatalf("%s returned a stray response %+v", call, r)
					}
				}
			}

			if rd, err := cli.Query(); err != nil || rd.GroupClock != time.Second {
				t.Fatalf("Query = %+v, %v; want the in-window reading", rd, err)
			}
			resps, err := cli.QueryBatch(4)
			check("QueryBatch", resps, err, 4)
			resps, err = cli.QueryBurst(3, 2)
			check("QueryBurst", resps, err, 6)
		})
	}
}

// TestQueryBatchAllocFree holds a warmed-up QueryBatch(1) against a loopback
// server at zero heap allocations per call on both client I/O paths: the
// exchange reuses the client's response slice, buffers and rings.
func TestQueryBatchAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocs/op is perturbed by race-detector instrumentation")
	}
	src := &fakeSource{}
	src.set(Reading{GroupClock: time.Second, Bound: time.Microsecond, Epoch: 1})
	srv := startTestServer(t, src, 1)
	for _, io := range clientModes {
		t.Run(io.String(), func(t *testing.T) {
			cli := newModeClient(t, io, 0, srv.Addr().String())
			for i := 0; i < 10; i++ {
				if _, err := cli.QueryBatch(1); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			allocs := testing.AllocsPerRun(200, func() { _, err = cli.QueryBatch(1) })
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("QueryBatch(1) allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}
