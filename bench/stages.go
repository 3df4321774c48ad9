package main

import (
	"time"

	"cts/internal/core"
	"cts/internal/obs"
)

// roundStages are the stage durations of the CCS rounds one node initiated,
// derived from the trace events the stack itself emits per (thread, round):
//
//	read_start → proposal_queued → ccs_sent → first_ordered → adopted → read_done
//	     queue              send        order            adopt       resume
//
// order is the ordering layer's share (token wait, broadcast, safe-delivery
// wait); the other four are core's. A round whose proposal was suppressed or
// satisfied from the input buffer lacks some events and contributes only the
// stages it has both edges of. Each slice is ascending.
type roundStages struct {
	queue, send, order, adopt, resume []time.Duration
}

// stageEdges lists the stages as (from, to) event names in lifecycle order.
var stageEdges = [5][2]string{
	{obs.EvReadStart, obs.EvProposalQueued},
	{obs.EvProposalQueued, obs.EvCCSSent},
	{obs.EvCCSSent, obs.EvFirstOrdered},
	{obs.EvFirstOrdered, obs.EvAdopted},
	{obs.EvAdopted, obs.EvReadDone},
}

// deriveStages folds node's core-scope round events into stage durations.
// Lease-refresh rounds and the state-transfer special round (thread 0) are
// not reads and are skipped.
func deriveStages(evs []obs.Event, node uint32) roundStages {
	type key struct{ thread, round uint64 }
	at := map[key]map[string]time.Duration{}
	for _, ev := range evs {
		if ev.Scope != obs.ScopeCore || ev.Node != node ||
			ev.Thread == 0 || ev.Thread == core.RefreshThreadID {
			continue
		}
		k := key{ev.Thread, ev.Round}
		if at[k] == nil {
			at[k] = map[string]time.Duration{}
		}
		if _, seen := at[k][ev.Name]; !seen {
			at[k][ev.Name] = ev.T
		}
	}
	var st roundStages
	out := [5]*[]time.Duration{&st.queue, &st.send, &st.order, &st.adopt, &st.resume}
	for _, t := range at {
		for i, edge := range stageEdges {
			from, ok1 := t[edge[0]]
			to, ok2 := t[edge[1]]
			if ok1 && ok2 && to >= from {
				*out[i] = append(*out[i], to-from)
			}
		}
	}
	for _, s := range out {
		sortDurations(*s)
	}
	return st
}

// report writes the stage metrics into layers.
func (st roundStages) report(layers metrics) {
	p50 := func(name string, v []time.Duration) {
		layers.setN(name, us(percentile(v, 50)), "us", len(v))
	}
	p50("core.stage_queue_p50_us", st.queue)
	p50("core.stage_send_p50_us", st.send)
	p50("order.stage_order_p50_us", st.order)
	layers.setN("order.stage_order_p99_us", us(percentile(st.order, 99)), "us", len(st.order))
	p50("core.stage_adopt_p50_us", st.adopt)
	p50("core.stage_resume_p50_us", st.resume)
}
