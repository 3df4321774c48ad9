package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanRPCInvoke = "rpc.invoke"           // client: Invoke → reply callback
	spanAppInvoke = "app.invoke"           // replica: Application.Invoke
	spanCoreRead  = "core.read"            // replica: one Gettimeofday call
	spanUDPSend   = "udptransport.send"    // one Send or Broadcast
	spanExchange  = "client.exchange"      // timeserve client: one burst/batch
	spanLeaseRead = "timeserve.lease_read" // shard → LeaseSource.LeaseRead
)

// maxSpansPerName caps what one log keeps of one span name, so that the
// frequent spans (a send per token pass) cannot crowd out the rare ones and
// a trace file stays in the tens of megabytes.
const maxSpansPerName = 10_000

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	Name   string        `json:"name"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req,omitempty"`
	Node   uint32        `json:"node"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanKind numbers the span names so IDs can be derived on both sides of a
// causal edge without passing them over the wire.
var spanKind = map[string]uint64{
	spanRPCInvoke: 1, spanAppInvoke: 2, spanCoreRead: 3,
	spanUDPSend: 4, spanExchange: 5, spanLeaseRead: 6,
}

// spanID derives a span identifier from its kind, node and a per-kind
// sequence number (a request id or a local counter).
func spanID(name string, node uint32, seq uint64) uint64 {
	return spanKind[name]<<60 | uint64(node&0xff)<<52 | seq&(1<<52-1)
}

// spanLog keeps spans in memory until the run ends. A nil log is the
// untraced configuration: add is a no-op.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	kept  map[string]int
}

func newSpanLog() *spanLog {
	return &spanLog{spans: make([]span, 0, 4096), kept: map[string]int{}}
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.kept[s.Name] < maxSpansPerName {
		l.kept[s.Name]++
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
}

// snapshot copies the spans kept so far; the layers may still be adding.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once, and
// a child is clipped to its parent's interval).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// writeSpans writes the logs as JSON lines under dir, one file per workload.
func writeSpans(dir, workload string, logs []*spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, sp := range l.snapshot() {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
