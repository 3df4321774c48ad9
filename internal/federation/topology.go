// Package federation stitches multiple CCS groups into one coherent clock.
//
// Each group runs the paper's consistent clock synchronization internally,
// exactly as before; a thin inter-group plane periodically exchanges
// authenticated (group_clock, bound, epoch) summaries with parent/peer
// groups (wire.GroupSummary) and applies a bounded-influence merge rule:
// when a neighbor group is confidently ahead, the local group proposes a
// federated CCS round (wire.TypeCCSFed) that nudges the whole group forward
// by at most MaxStep, and every round carries a slack term that keeps the
// published staleness bound honest about the residual inter-group skew. This
// follows the gradient clock synchronization line of work: the invariant
// maintained is bounded *neighbor* skew, which is what a tree of timeserve
// shards needs — global skew grows only with topology diameter.
package federation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cts/internal/transport"
	"cts/internal/udptransport"
)

// GroupSpec describes one CCS group in a federation topology file.
type GroupSpec struct {
	// Name is the group's human identifier, referenced by Edges and by
	// `ctsnode -group`.
	Name string `json:"name"`
	// ID is the wire group identifier. Must be unique and non-zero.
	ID uint32 `json:"id"`
	// Peers lists the group's members as "id=host:port" entries — the same
	// syntax as `ctsnode -peers` — naming each member's CCS transport
	// address.
	Peers []string `json:"peers"`
	// Fed lists each member's federation UDP address as "id=host:port"
	// entries. Summaries for this group are sent to every listed address.
	Fed []string `json:"fed,omitempty"`
}

// Topology is the JSON schema of a federation topology file: the groups, the
// parent/peer edges between them, and the exchange-plane tuning shared by
// every agent. A tuning key left out (zero) takes the Config default.
type Topology struct {
	Groups []GroupSpec `json:"groups"`
	// Edges connects groups by name; each edge is bidirectional.
	Edges [][2]string `json:"edges"`
	// Key authenticates summary frames. Every group in one federation must
	// share it.
	Key string `json:"key,omitempty"`
	// The agents' tuning (see Config), in nanoseconds.
	ExchangeEvery time.Duration `json:"exchange_every_ns,omitempty"`
	MaxStep       time.Duration `json:"max_step_ns,omitempty"`
	Precision     time.Duration `json:"precision_ns,omitempty"`
	InitialSlack  time.Duration `json:"initial_slack_ns,omitempty"`
}

// ParseTopology decodes and validates a topology document. An unknown key
// (a misspelled tuning key would otherwise run with the default) and data
// after the object are errors.
func ParseTopology(b []byte) (*Topology, error) {
	var t Topology
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("federation: parse topology: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("federation: parse topology: data after the topology object")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks the topology for structural errors.
func (t *Topology) Validate() error {
	if len(t.Groups) == 0 {
		return fmt.Errorf("federation: topology has no groups")
	}
	names := make(map[string]bool, len(t.Groups))
	ids := make(map[uint32]bool, len(t.Groups))
	for i, g := range t.Groups {
		if g.Name == "" {
			return fmt.Errorf("federation: group %d has no name", i)
		}
		if names[g.Name] {
			return fmt.Errorf("federation: duplicate group name %q", g.Name)
		}
		names[g.Name] = true
		if g.ID == 0 {
			return fmt.Errorf("federation: group %q has no id", g.Name)
		}
		if ids[g.ID] {
			return fmt.Errorf("federation: duplicate group id %d", g.ID)
		}
		ids[g.ID] = true
		if len(g.Peers) == 0 {
			return fmt.Errorf("federation: group %q lists no peers", g.Name)
		}
		if _, err := ParseMembers(g.Peers); err != nil {
			return fmt.Errorf("federation: group %q peers: %w", g.Name, err)
		}
		if len(g.Fed) > 0 {
			if _, err := ParseMembers(g.Fed); err != nil {
				return fmt.Errorf("federation: group %q fed: %w", g.Name, err)
			}
		}
	}
	seen := make(map[[2]string]bool, len(t.Edges))
	for _, e := range t.Edges {
		if e[0] == e[1] {
			return fmt.Errorf("federation: self edge on group %q", e[0])
		}
		for _, n := range []string{e[0], e[1]} {
			if !names[n] {
				return fmt.Errorf("federation: edge references unknown group %q", n)
			}
		}
		k := normalizeEdge(e[0], e[1])
		if seen[k] {
			return fmt.Errorf("federation: duplicate edge %v", e)
		}
		seen[k] = true
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"exchange_every_ns", t.ExchangeEvery},
		{"max_step_ns", t.MaxStep},
		{"precision_ns", t.Precision},
		{"initial_slack_ns", t.InitialSlack},
	} {
		if d.v < 0 {
			return fmt.Errorf("federation: %s must not be negative (got %d)", d.name, d.v)
		}
	}
	return nil
}

func normalizeEdge(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Group returns the spec for the named group.
func (t *Topology) Group(name string) (GroupSpec, bool) {
	for _, g := range t.Groups {
		if g.Name == name {
			return g, true
		}
	}
	return GroupSpec{}, false
}

// Neighbors returns the groups adjacent to name, sorted by name.
func (t *Topology) Neighbors(name string) []GroupSpec {
	var out []GroupSpec
	for _, e := range t.Edges {
		var other string
		switch name {
		case e[0]:
			other = e[1]
		case e[1]:
			other = e[0]
		default:
			continue
		}
		if g, ok := t.Group(other); ok {
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParseMembers parses "id=host:port" entries (the `ctsnode -peers` syntax)
// into an id-to-address map. Group members have positive ids: node 0 is
// the paper's client processor.
func ParseMembers(entries []string) (map[transport.NodeID]string, error) {
	out, err := udptransport.ParsePeers(strings.Join(entries, ","))
	if err != nil {
		return nil, err
	}
	if _, ok := out[0]; ok {
		return nil, errors.New("node id must be positive")
	}
	return out, nil
}
