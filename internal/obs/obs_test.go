package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic recorder clock for tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += time.Microsecond
	return c.t
}

func newTestRecorder(t *testing.T, sink TraceSink) *Recorder {
	t.Helper()
	clk := &fakeClock{}
	r, err := New(Config{Node: 1, Now: clk.Now, Sink: sink})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	// Every method must be callable on a nil recorder.
	r.Trace(ScopeCore, EvReadStart, 1, 1, 42, "")
	r.Observe("x", time.Millisecond)
	r.Register(nil)
	if r.ForNode(7) != nil {
		t.Fatal("ForNode on nil recorder should be nil")
	}
	if r.Node() != 0 {
		t.Fatal("Node on nil recorder should be 0")
	}
	if r.Tracing() {
		t.Fatal("nil recorder must not report tracing")
	}
	if got := r.Samples(); got != nil {
		t.Fatalf("Samples on nil recorder = %v, want nil", got)
	}
	if got := r.Histogram("x"); got != nil {
		t.Fatalf("Histogram on nil recorder = %v, want nil", got)
	}
	var buf bytes.Buffer
	r.DumpMetrics(&buf)
	if buf.Len() != 0 {
		t.Fatalf("DumpMetrics on nil recorder wrote %q", buf.String())
	}
}

func TestNilSinkDropsTraces(t *testing.T) {
	r := newTestRecorder(t, nil)
	if r.Tracing() {
		t.Fatal("recorder without sink must not report tracing")
	}
	r.Trace(ScopeCore, EvReadStart, 1, 1, 0, "")
	// Metrics still work without a sink.
	r.Observe("lat", 3*time.Millisecond)
	if h := r.Histogram("lat"); h == nil || h.N() != 1 {
		t.Fatalf("Histogram without sink = %v", h)
	}
}

func TestTraceEmissionAndForNode(t *testing.T) {
	sink := NewMemorySink(0)
	r := newTestRecorder(t, sink)
	r2 := r.ForNode(2)
	r.Trace(ScopeCore, EvReadStart, 1, 5, 100, "")
	r2.Trace(ScopeTotem, EvTokenRecv, 0, 9, 0, "")
	evs := sink.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Node != 1 || evs[0].Name != EvReadStart || evs[0].Round != 5 || evs[0].Value != 100 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Node != 2 || evs[1].Scope != ScopeTotem || evs[1].Round != 9 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if !(evs[0].T < evs[1].T) {
		t.Fatalf("timestamps not increasing: %v then %v", evs[0].T, evs[1].T)
	}
	if r2.Node() != 2 {
		t.Fatalf("ForNode(2).Node() = %d", r2.Node())
	}
}

func TestConcurrentRecording(t *testing.T) {
	sink := NewMemorySink(0)
	r := newTestRecorder(t, sink)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			child := r.ForNode(uint32(id + 1))
			for i := 0; i < perWorker; i++ {
				child.Trace(ScopeTotem, EvTokenRecv, 0, uint64(i), 0, "")
				child.Observe("lat", time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := sink.Len(); got != workers*perWorker {
		t.Fatalf("sink has %d events, want %d", got, workers*perWorker)
	}
	if h := r.Histogram("lat"); h == nil || h.N() != workers*perWorker {
		t.Fatalf("histogram N = %v, want %d", h, workers*perWorker)
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink, err := NewJSONLinesSink(&buf)
	if err != nil {
		t.Fatalf("NewJSONLinesSink: %v", err)
	}
	r := newTestRecorder(t, sink)
	want := []Event{
		{Node: 1, Scope: ScopeCore, Name: EvReadStart, Thread: 1, Round: 3, Value: 42},
		{Node: 1, Scope: ScopeCore, Name: EvFirstOrdered, Thread: 1, Round: 3, Value: 99, Attr: "n2"},
		{Node: 1, Scope: ScopeTotem, Name: EvTokenRecv, Round: 17},
	}
	for _, ev := range want {
		r.Trace(ev.Scope, ev.Name, ev.Thread, ev.Round, ev.Value, ev.Attr)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if sink.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", sink.Count(), len(want))
	}
	got, err := DecodeJSONLines(&buf)
	if err != nil {
		t.Fatalf("DecodeJSONLines: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range want {
		g := got[i]
		w := want[i]
		if g.T == 0 {
			t.Fatalf("event %d lost timestamp", i)
		}
		g.T = 0
		if g != w {
			t.Fatalf("event %d round-trip = %+v, want %+v", i, g, w)
		}
	}
}

func TestDecodeJSONLinesRejectsGarbage(t *testing.T) {
	in := strings.NewReader("{\"node\":1,\"scope\":\"core\",\"event\":\"read_start\",\"t\":1}\nnot json\n")
	if _, err := DecodeJSONLines(in); err == nil {
		t.Fatal("want error on malformed line")
	}
}

func TestMemorySinkLimit(t *testing.T) {
	sink := NewMemorySink(3)
	for i := 0; i < 10; i++ {
		sink.Emit(Event{Round: uint64(i)})
	}
	evs := sink.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Round != want {
			t.Fatalf("event %d round = %d, want %d", i, ev.Round, want)
		}
	}
}

func TestMultiSink(t *testing.T) {
	a := NewMemorySink(0)
	b := NewMemorySink(0)
	if MultiSink(nil, nil) != nil {
		t.Fatal("MultiSink of nils should be nil")
	}
	if MultiSink(a, nil) != TraceSink(a) {
		t.Fatal("MultiSink of one sink should return it directly")
	}
	ms := MultiSink(a, b)
	ms.Emit(Event{Name: "x"})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out missed: a=%d b=%d", a.Len(), b.Len())
	}
}

type fakeSource struct {
	samples []Sample
}

func (s fakeSource) ObsSamples() []Sample { return s.samples }

func TestRegistryGatherSorted(t *testing.T) {
	r := newTestRecorder(t, nil)
	r.Register(fakeSource{samples: []Sample{
		{Node: 2, Name: "totem.tokens_handled", Value: 7},
		{Node: 2, Name: "core.rounds_initiated", Value: 3},
	}})
	r.Register(fakeSource{samples: []Sample{
		{Node: 1, Name: "totem.tokens_handled", Value: 5},
	}})
	got := r.Samples()
	if len(got) != 3 {
		t.Fatalf("gathered %d samples, want 3", len(got))
	}
	wantOrder := []Sample{
		{Node: 1, Name: "totem.tokens_handled", Value: 5},
		{Node: 2, Name: "core.rounds_initiated", Value: 3},
		{Node: 2, Name: "totem.tokens_handled", Value: 7},
	}
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("sample %d = %+v, want %+v", i, got[i], wantOrder[i])
		}
	}
	m := SampleMap(got)
	if m["totem.tokens_handled"] != 12 {
		t.Fatalf("SampleMap sum = %d, want 12", m["totem.tokens_handled"])
	}
}

func TestDumpMetrics(t *testing.T) {
	r := newTestRecorder(t, nil)
	r.Register(fakeSource{samples: []Sample{
		{Node: 1, Name: "core.ccs_sent", Value: 4},
	}})
	r.Observe("rpc.invoke_latency", 2*time.Millisecond)
	var buf bytes.Buffer
	r.DumpMetrics(&buf)
	out := buf.String()
	if !strings.Contains(out, "core.ccs_sent") || !strings.Contains(out, "4") {
		t.Fatalf("dump missing counter: %q", out)
	}
	if !strings.Contains(out, "rpc.invoke_latency") {
		t.Fatalf("dump missing histogram: %q", out)
	}
}

func TestVerifyRound(t *testing.T) {
	mk := func(name string) Event {
		return Event{Node: 1, Scope: ScopeCore, Name: name, Thread: 1, Round: 4}
	}
	var evs []Event
	// Interleave noise from other nodes, threads, and scopes.
	evs = append(evs, Event{Node: 2, Scope: ScopeCore, Name: EvReadStart, Thread: 1, Round: 4})
	for _, name := range RoundLifecycle {
		evs = append(evs, Event{Node: 1, Scope: ScopeTotem, Name: EvTokenRecv, Round: 99})
		evs = append(evs, mk(name))
	}
	got, err := VerifyRound(evs, 1, 1, 4)
	if err != nil {
		t.Fatalf("VerifyRound: %v", err)
	}
	if len(got) != len(RoundLifecycle) {
		t.Fatalf("matched %d events, want %d", len(got), len(RoundLifecycle))
	}
	for i, name := range RoundLifecycle {
		if got[i].Name != name {
			t.Fatalf("event %d = %q, want %q", i, got[i].Name, name)
		}
	}
	// Wrong round: incomplete.
	if _, err := VerifyRound(evs, 1, 1, 5); err == nil {
		t.Fatal("want error for missing round")
	}
	// Out-of-order lifecycle: incomplete.
	swapped := make([]Event, len(evs))
	copy(swapped, evs)
	// Find adopted and read_done and swap them.
	var ai, di int
	for i, ev := range swapped {
		if ev.Node == 1 && ev.Scope == ScopeCore {
			if ev.Name == EvAdopted {
				ai = i
			}
			if ev.Name == EvReadDone {
				di = i
			}
		}
	}
	swapped[ai], swapped[di] = swapped[di], swapped[ai]
	if _, err := VerifyRound(swapped, 1, 1, 4); err == nil {
		t.Fatal("want error for out-of-order lifecycle")
	}
}

func TestLoggerSink(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf)
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	l.Log("status", F("view", 3), F("msg", "two words"))
	r := newTestRecorder(t, l.Sink())
	r.Trace(ScopeCore, EvAdopted, 1, 2, 555, "")
	out := buf.String()
	if !strings.Contains(out, "event=status view=3 msg=\"two words\"") {
		t.Fatalf("log line missing: %q", out)
	}
	if !strings.Contains(out, "event=adopted") || !strings.Contains(out, "round=2") || !strings.Contains(out, "value=555") {
		t.Fatalf("trace line missing: %q", out)
	}
}

func TestHistogramCopyIsolation(t *testing.T) {
	r := newTestRecorder(t, nil)
	r.Observe("h", time.Second)
	cp := r.Histogram("h")
	cp.Add(2 * time.Second)
	if h := r.Histogram("h"); h.N() != 1 {
		t.Fatalf("internal histogram mutated: N=%d", h.N())
	}
}
