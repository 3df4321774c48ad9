package obs

import (
	"sort"
	"sync"
)

// Sample is one gathered metric value. Names follow the stack's canonical
// scheme — "<scope>.<metric>", e.g. "totem.tokens_handled",
// "core.rounds_initiated", "totem.suppressed" — so counters from
// every layer land in one flat, greppable namespace.
type Sample struct {
	// Node is the transport identity of the processor the sample describes.
	Node uint32
	// Name is the canonical metric name, scope-prefixed.
	Name string
	// Value is the counter or gauge reading.
	Value uint64
}

// Source exposes one component's metrics to the registry. Implementations
// (order's three orderers, gcs.Stack, replication.Manager, core.TimeService, rpc.Client)
// read loop-confined counters, so ObsSamples must be called on the
// component's runtime loop — the registry inherits that contract.
type Source interface {
	// ObsSamples returns the component's current counters under canonical
	// scope-prefixed names. Loop-only.
	ObsSamples() []Sample
}

// Registry collects metric sources from every layer of the stack — the
// single stats surface, superseding the divergent per-package snapshot
// accessors the layers used to carry. The zero value is ready to use.
type Registry struct {
	mu      sync.Mutex
	sources []Source
}

// Register adds a source. Safe from any goroutine.
func (g *Registry) Register(s Source) {
	if s == nil {
		return
	}
	g.mu.Lock()
	g.sources = append(g.sources, s)
	g.mu.Unlock()
}

// Gather reads every registered source and returns the samples sorted by
// (node, name). Sources are loop-confined; call Gather on (or posted to)
// their runtime loop.
func (g *Registry) Gather() []Sample {
	g.mu.Lock()
	sources := make([]Source, len(g.sources))
	copy(sources, g.sources)
	g.mu.Unlock()
	var out []Sample
	for _, s := range sources {
		out = append(out, s.ObsSamples()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// SampleMap folds samples into a name → summed-value map across nodes,
// convenient for assertions and quick summaries.
func SampleMap(samples []Sample) map[string]uint64 {
	out := make(map[string]uint64, len(samples))
	for _, s := range samples {
		out[s.Name] += s.Value
	}
	return out
}
