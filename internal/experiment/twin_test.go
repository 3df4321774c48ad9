package experiment

import (
	"reflect"
	"testing"
	"time"

	"cts/internal/core"
	"cts/internal/order"
	"cts/internal/rpc"
	"cts/internal/transport"
)

// TestSameSeedSameRun builds one short cluster under the leader-sequencer
// twice in one process, with the same seed, and drives the same 200 reads.
// A seed must fix the run: both must read the same values and every replica
// must report the same rounds. Under the sequencer, any reordering of the
// time-0 sends changes the run: stacks started in map order fail this test
// in about half of all runs.
func TestSameSeedSameRun(t *testing.T) {
	defer func(k order.Kind) { DefaultOrderer = k }(DefaultOrderer)
	DefaultOrderer = order.KindSeq
	const reads = 200
	run := func() ([]time.Duration, map[transport.NodeID][]core.RoundReport) {
		specs := make([]ClockSpec, 3)
		for i := range specs {
			specs[i] = ClockSpec{Offset: time.Duration(i*13) * time.Second, DriftPPM: float64(i*11%60) - 30}
		}
		c, err := NewCluster(ClusterConfig{Seed: 84, Clocks: specs, ClientTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var values []time.Duration
		var next func()
		next = func() {
			c.invoke(MethodCurrentTime, nil, func(r rpc.Reply) {
				if v, err := DecodeTimeval(r.Body); r.Err == nil && err == nil {
					values = append(values, v)
				}
				if len(values) < reads {
					c.K.After(20*time.Millisecond, next)
				}
			})
		}
		next()
		if !c.RunUntil(reads*100*time.Millisecond, func() bool { return len(values) == reads }) {
			t.Fatalf("read %d of %d values: %v", len(values), reads, c.Err())
		}
		return values, c.Reports
	}
	values, reports := run()
	values2, reports2 := run()
	if !reflect.DeepEqual(values, values2) {
		t.Error("same seed, different reads")
	}
	if !reflect.DeepEqual(reports, reports2) {
		t.Error("same seed, different round reports")
	}
}
