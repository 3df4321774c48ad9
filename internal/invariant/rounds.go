package invariant

import (
	"fmt"
	"time"
)

// RoundReport is one replica's completion of one CCS round: the read of
// (Thread, Round) returned Value at Node, decided by Winner's proposal, with
// Node's physical clock at Physical.
type RoundReport struct {
	Node          uint32
	Thread, Round uint64
	Value         time.Duration
	Winner        uint32
	Physical      time.Duration
}

// Violation is the kind of promise a round witness breaks.
type Violation int

const (
	// Disagreement: two replicas completed one (thread, round) with
	// different values.
	Disagreement Violation = iota + 1
	// Reorder: one replica completed a (thread, round) twice, or a thread's
	// rounds out of order.
	Reorder
	// Regression: at one replica, a thread's later round returned a lower
	// value than its earlier one.
	Regression
)

// RoundWitness is a violation with both reports. For Reorder and Regression
// First is the replica's previous report of the thread, of which the oracle
// keeps only Round and Value.
type RoundWitness struct {
	Kind          Violation
	First, Second RoundReport
}

func (w RoundWitness) String() string {
	f, s := w.First, w.Second
	switch w.Kind {
	case Disagreement:
		return fmt.Sprintf("key (%d,%d) decided %v at node %d (winner %d) and %v at node %d (winner %d)",
			s.Thread, s.Round, f.Value, f.Node, f.Winner, s.Value, s.Node, s.Winner)
	case Reorder:
		return fmt.Sprintf("node %d completed thread %d round %d after round %d",
			s.Node, s.Thread, s.Round, f.Round)
	}
	return fmt.Sprintf("node %d thread %d: round %d returned %v after round %d returned %v",
		s.Node, s.Thread, s.Round, s.Value, f.Round, f.Value)
}

type roundKey struct{ thread, round uint64 }

type threadKey struct {
	node   uint32
	thread uint64
}

// decision is the first report of a key; shared marks that another replica
// has reported the same value since.
type decision struct {
	first  RoundReport
	shared bool
}

// progress is the last round a replica completed on one thread.
type progress struct {
	round uint64
	value time.Duration
}

// Rounds is the round oracle: it checks, report by report, that every
// replica completing the read of (thread, round) returns the same group
// clock value, and that each replica completes a thread's rounds once each,
// in order, with non-decreasing values. It keeps one entry per key and, per
// replica, the last round of each thread. The zero value is ready to use.
// Rounds is not safe for concurrent use: feed it from the simulation loop.
type Rounds struct {
	decided    map[roundKey]decision
	last       map[threadKey]progress
	shared     map[uint32]int
	violations int
	first      RoundWitness
}

// Report checks one completed round and records it.
func (o *Rounds) Report(r RoundReport) {
	if o.decided == nil {
		o.decided = make(map[roundKey]decision)
		o.last = make(map[threadKey]progress)
		o.shared = make(map[uint32]int)
	}
	tk := threadKey{r.Node, r.Thread}
	if p, ok := o.last[tk]; ok {
		prev := RoundReport{Node: r.Node, Thread: r.Thread, Round: p.round, Value: p.value}
		if r.Round <= p.round {
			o.violate(Reorder, prev, r)
			return
		}
		if r.Value < p.value {
			o.violate(Regression, prev, r)
		}
	}
	o.last[tk] = progress{r.Round, r.Value}
	k := roundKey{r.Thread, r.Round}
	d, ok := o.decided[k]
	switch {
	case !ok:
		o.decided[k] = decision{first: r}
	case d.first.Value != r.Value:
		o.violate(Disagreement, d.first, r)
	default:
		o.shared[r.Node]++
		if !d.shared {
			o.shared[d.first.Node]++
			o.decided[k] = decision{first: d.first, shared: true}
		}
	}
}

func (o *Rounds) violate(kind Violation, first, second RoundReport) {
	if o.violations == 0 {
		o.first = RoundWitness{Kind: kind, First: first, Second: second}
	}
	o.violations++
}

// Violations reports how many violations the oracle has seen and the first.
func (o *Rounds) Violations() (int, RoundWitness) { return o.violations, o.first }

// Shared reports how many keys node reported that another replica also
// reported with the same value: the rounds on which its agreement was
// actually checked.
func (o *Rounds) Shared(node uint32) int { return o.shared[node] }

// Err is nil while no violation has been seen, else it names the count and
// the first witness.
func (o *Rounds) Err() error {
	if o.violations == 0 {
		return nil
	}
	return fmt.Errorf("round oracle: %d violation(s), first: %v", o.violations, o.first)
}
