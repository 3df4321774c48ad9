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
	if _, err := cts.New(cts.WithRuntime(sim.NewKernel(1))); err == nil {
		t.Error("New() without stack or transport succeeded, want error")
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

// TestFacadeOrdererOptions pins the WithOrderer surface: kind selection,
// cross-orderer tuning rejection, and the WithStack conflict.
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

	// WithOrderer cannot retune a caller-owned stack.
	stack, err := gcs.New(gcs.Config{
		Runtime:   k,
		Transport: net.Endpoint(4),
		Members:   []transport.NodeID{4},
		Bootstrap: true,
	})
	if err != nil {
		t.Fatalf("gcs.New: %v", err)
	}
	if _, err := cts.New(
		cts.WithRuntime(k),
		cts.WithStack(stack),
		cts.WithOrderer(cts.OrdererOptions{Kind: cts.OrdererSeq}),
	); err == nil || !strings.Contains(err.Error(), "WithStack") {
		t.Errorf("WithOrderer+WithStack: err = %v, want conflict error", err)
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
