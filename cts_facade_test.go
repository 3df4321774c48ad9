package cts_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"cts"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

// TestFacadeThreeReplicaGroup assembles a three-way actively replicated time
// server purely through the public cts facade (transport in, facade-built
// stacks) and checks that the default application answers consistent,
// monotone CurrentTime reads.
func TestFacadeThreeReplicaGroup(t *testing.T) {
	k := sim.NewKernel(7)
	net := simnet.NewNetwork(k, nil)
	ring := []transport.NodeID{0, 1, 2, 3}

	sink := cts.NewMemorySink(0)
	rec, err := cts.NewRecorder(0, sink)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}

	offsets := map[transport.NodeID]time.Duration{1: 0, 2: 5 * time.Second, 3: 15 * time.Second}
	svcs := make([]*cts.Service, 0, 3)
	for _, id := range ring[1:] {
		svc, err := cts.New(
			cts.WithRuntime(k),
			cts.WithTransport(net.Endpoint(id)),
			cts.WithMembers(ring),
			cts.WithClock(hwclock.NewSim(k.Now, hwclock.WithOffset(offsets[id]))),
			cts.WithStyle(cts.Active),
			cts.WithObservability(rec),
		)
		if err != nil {
			t.Fatalf("cts.New(P%d): %v", id, err)
		}
		if svc.Observability() == nil {
			t.Fatal("Observability() returned nil with an explicit recorder")
		}
		if err := svc.Start(); err != nil {
			t.Fatalf("Start(P%d): %v", id, err)
		}
		svcs = append(svcs, svc)
	}

	// The client rides on its own stack outside the facade.
	cstack, err := gcs.New(gcs.Config{
		Runtime:   k,
		Transport: net.Endpoint(0),
		Members:   ring,
		Bootstrap: true,
	})
	if err != nil {
		t.Fatalf("client gcs.New: %v", err)
	}
	client, err := rpc.NewClient(rpc.ClientConfig{
		Runtime:     k,
		Stack:       cstack,
		ClientGroup: 900,
		ServerGroup: cts.DefaultGroup,
	})
	if err != nil {
		t.Fatalf("rpc.NewClient: %v", err)
	}
	cstack.Start()
	k.RunFor(3 * time.Millisecond)

	const want = 6
	var reads []time.Duration
	var invoke func()
	invoke = func() {
		client.Invoke("CurrentTime", nil, func(r rpc.Reply) {
			if r.Err != nil {
				t.Errorf("invoke %d: %v", len(reads)+1, r.Err)
				return
			}
			reads = append(reads, time.Duration(binary.BigEndian.Uint64(r.Body)))
			if len(reads) < want {
				invoke()
			}
		})
	}
	invoke()
	for k.Now() < 5*time.Second && len(reads) < want {
		k.RunFor(time.Millisecond)
	}
	if len(reads) != want {
		t.Fatalf("completed %d/%d invocations", len(reads), want)
	}
	for i := 1; i < len(reads); i++ {
		if reads[i] < reads[i-1] {
			t.Errorf("group clock regressed: read %d = %v < read %d = %v",
				i+1, reads[i], i, reads[i-1])
		}
	}

	// The shared recorder saw the round trace and gathered every layer.
	if sink.Len() == 0 {
		t.Error("trace sink received no events")
	}
	var buf bytes.Buffer
	svcs[0].DumpMetrics(&buf)
	for _, name := range []string{"core.rounds_initiated", "totem.delivered", "gcs.multicasts", "repl.executed"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("DumpMetrics output missing %s", name)
		}
	}

	for _, svc := range svcs {
		svc.Stop()
	}
}

// TestFacadeDefaultsAndValidation pins the facade's error paths and the
// always-usable sink-less recorder.
func TestFacadeDefaultsAndValidation(t *testing.T) {
	if _, err := cts.New(); err == nil {
		t.Error("New() without runtime succeeded, want error")
	}
	if _, err := cts.New(cts.WithRuntime(sim.NewKernel(1))); err == nil || !strings.Contains(err.Error(), "WithTransport") {
		t.Errorf("New() without transport: err = %v, want one naming WithTransport", err)
	}

	k := sim.NewKernel(2)
	net := simnet.NewNetwork(k, nil)
	svc, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(1)),
		cts.WithMembers([]transport.NodeID{1}),
	)
	if err != nil {
		t.Fatalf("minimal New: %v", err)
	}
	rec := svc.Observability()
	if rec == nil {
		t.Fatal("Observability() is nil without WithObservability")
	}
	if rec.Tracing() {
		t.Error("sink-less recorder reports Tracing() == true")
	}

	// Invalid layer knobs must surface as constructor errors.
	if _, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(2)),
		cts.WithMembers([]transport.NodeID{2}),
		cts.WithCompensation(cts.Compensation(99)),
	); err == nil {
		t.Error("invalid compensation mode accepted, want error")
	}
	if _, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(3)),
		cts.WithMembers([]transport.NodeID{3}),
		cts.WithStyle(cts.Style(42)),
	); err == nil {
		t.Error("invalid replication style accepted, want error")
	}
	if _, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(4)),
		cts.WithMembers([]transport.NodeID{4}),
		cts.WithCheckpointEvery(-1),
	); err == nil {
		t.Error("negative checkpoint interval accepted, want error")
	}
}

// TestFacadeOrdererOptions pins the WithOrderer surface: kind selection and
// cross-orderer tuning rejection.
func TestFacadeOrdererOptions(t *testing.T) {
	k := sim.NewKernel(3)
	net := simnet.NewNetwork(k, nil)

	// A facade-built stack on the leader sequencer works end to end.
	svc, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(1)),
		cts.WithMembers([]transport.NodeID{1}),
		cts.WithOrderer(cts.OrdererOptions{Kind: cts.OrdererSeq}),
	)
	if err != nil {
		t.Fatalf("New with seq orderer: %v", err)
	}
	svc.Stop()

	// Unknown kinds and tuning for a non-selected orderer are construction
	// errors, not silent fallbacks.
	if _, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(2)),
		cts.WithMembers([]transport.NodeID{2}),
		cts.WithOrderer(cts.OrdererOptions{Kind: "ring"}),
	); err == nil || !strings.Contains(err.Error(), "unknown orderer") {
		t.Errorf("unknown orderer kind: err = %v, want unknown-orderer error", err)
	}
	if _, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(3)),
		cts.WithMembers([]transport.NodeID{3}),
		cts.WithOrderer(cts.OrdererOptions{
			Kind: cts.OrdererTotem,
			Seq:  cts.SeqTuning{LeaderTimeout: time.Second},
		}),
	); err == nil || !strings.Contains(err.Error(), "Seq tuning") {
		t.Errorf("cross-orderer tuning: err = %v, want Seq-tuning error", err)
	}

	// ParseOrdererKind mirrors the flag surface of ctsnode/ctsclient.
	if kind, err := cts.ParseOrdererKind("seq"); err != nil || kind != cts.OrdererSeq {
		t.Errorf(`ParseOrdererKind("seq") = %v, %v`, kind, err)
	}
	if kind, err := cts.ParseOrdererKind(""); err != nil || kind != cts.OrdererTotem {
		t.Errorf(`ParseOrdererKind("") = %v, %v; want totem default`, kind, err)
	}
	if _, err := cts.ParseOrdererKind("lockstep"); err == nil {
		t.Error(`ParseOrdererKind("lockstep") succeeded, want error`)
	}
}

// variantApp answers each §4.1 clock variant by name through the Service's
// per-variant entry points.
type variantApp struct{ svc *cts.Service }

func (a *variantApp) Invoke(ctx *cts.Ctx, method string, _ []byte) []byte {
	var v time.Duration
	switch method {
	case "time":
		v = a.svc.Time(ctx)
	case "ftime":
		v = a.svc.Ftime(ctx)
	case "clock":
		v = a.svc.Clock(ctx).Gettimeofday()
	}
	return binary.BigEndian.AppendUint64(nil, uint64(v))
}

func (a *variantApp) Snapshot() []byte { return nil }
func (a *variantApp) Restore([]byte)   {}

// TestFacadeClockVariants drives time(), ftime() and gettimeofday() (the
// latter through Service.Clock) from an application's Invoke: each read's
// CCS message carries its own op, and each value is truncated to the op's
// granularity. ObserveTimestamp's causal floor lifts the next read above
// it, and Timestamp reports at least that read.
func TestFacadeClockVariants(t *testing.T) {
	k := sim.NewKernel(11)
	net := simnet.NewNetwork(k, nil)
	ring := []transport.NodeID{0, 1}
	app := &variantApp{}
	svc, err := cts.New(
		cts.WithRuntime(k),
		cts.WithTransport(net.Endpoint(1)),
		cts.WithMembers(ring),
		cts.WithClock(hwclock.NewSim(k.Now, hwclock.WithOffset(7*time.Second+123456789))),
		cts.WithApplication(app),
	)
	if err != nil {
		t.Fatalf("cts.New: %v", err)
	}
	app.svc = svc
	var ops []wire.ClockOp
	var proposed []time.Duration
	svc.Stack().WatchMessages(func(m wire.Message, _ gcs.Meta) {
		if p, err := wire.UnmarshalCCS(m.Payload); m.Type == wire.TypeCCS && err == nil {
			ops = append(ops, p.Op)
			proposed = append(proposed, p.Proposed)
		}
	})
	if err := svc.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	cstack, err := gcs.New(gcs.Config{Runtime: k, Transport: net.Endpoint(0), Members: ring, Bootstrap: true})
	if err != nil {
		t.Fatalf("client gcs.New: %v", err)
	}
	client, err := rpc.NewClient(rpc.ClientConfig{Runtime: k, Stack: cstack, ClientGroup: 900, ServerGroup: cts.DefaultGroup})
	if err != nil {
		t.Fatalf("rpc.NewClient: %v", err)
	}
	cstack.Start()
	k.RunFor(3 * time.Millisecond)

	read := func(method string) time.Duration {
		t.Helper()
		var body []byte
		client.Invoke(method, nil, func(r rpc.Reply) {
			if r.Err != nil {
				t.Errorf("%s: %v", method, r.Err)
			}
			body = r.Body
		})
		for k.Now() < 5*time.Second && body == nil {
			k.RunFor(time.Millisecond)
		}
		if len(body) != 8 {
			t.Fatalf("%s: reply %x", method, body)
		}
		return time.Duration(binary.BigEndian.Uint64(body))
	}
	var last time.Duration
	for _, c := range []struct {
		method string
		op     wire.ClockOp
		unit   time.Duration
	}{
		{"time", wire.OpTime, time.Second},
		{"ftime", wire.OpFtime, time.Millisecond},
		{"clock", wire.OpGettimeofday, time.Microsecond},
	} {
		before := len(ops)
		v := read(c.method)
		if len(ops) != before+1 || ops[before] != c.op {
			t.Fatalf("%s: CCS ops %v after %d, want one %v", c.method, ops, before, c.op)
		}
		if p := proposed[before]; v != p-p%c.unit || p%c.unit == 0 && c.unit > time.Microsecond {
			t.Fatalf("%s = %v for proposed %v, want it truncated to %v", c.method, v, p, c.unit)
		}
		last = v
	}

	floor := last + 10*time.Second
	k.Post(func() { svc.ObserveTimestamp(floor) })
	v := read("clock")
	if v <= floor {
		t.Fatalf("read %v after ObserveTimestamp(%v), want above the causal floor", v, floor)
	}
	var stamp time.Duration
	k.Post(func() { stamp = svc.Timestamp() })
	k.RunFor(time.Millisecond)
	if stamp < v {
		t.Fatalf("Timestamp() = %v, want at least the last read %v", stamp, v)
	}
	svc.Stop()
}
