package campaign

import (
	"time"

	"cts/internal/order"
)

// Builtin returns the stock scenario catalog. Instant-orderer scenarios
// (churn-storm, slow-clocks) scale to 1000 nodes; wire-orderer scenarios
// model real network weather and cap their node counts with MaxNodes,
// since a message-passing orderer at 1000 nodes is not what those cells
// measure. Axis counts under the cap run as requested; counts
// above it are clamped and the requested size is recorded in the cell, so
// the reduced coverage is visible in the campaign artifacts rather than
// silently pinned.
func Builtin() []Scenario {
	return []Scenario{
		{
			Name:        "churn-storm",
			Description: "waves of crash/recovery churn under the instant orderer; gates bounded reconvergence after the last wave",
			Orderer:     order.KindInstant,
			Clocks:      DefaultClocks(),
			Duration:    2 * time.Second,
			Faults: []FaultEvent{
				{Kind: FaultChurn, At: 300 * time.Millisecond, For: 900 * time.Millisecond, Count: 8},
			},
			Gates: Gates{ReconvergeWithin: 400 * time.Millisecond},
		},
		{
			Name:        "slow-clocks",
			Description: "5% of the population drifts at +400 ppm; gates honest staleness bounds with no faults at all",
			Orderer:     order.KindInstant,
			Clocks: ClockPlan{
				MaxOffset:       2 * time.Millisecond,
				MaxDriftPPM:     50,
				OutlierFrac:     0.05,
				OutlierDriftPPM: 400,
			},
			Duration: 1500 * time.Millisecond,
			Gates:    Gates{ReconvergeWithin: 200 * time.Millisecond},
		},
		{
			Name:        "partition-heal",
			Description: "a 30% minority island partitions away and re-merges; the majority keeps serving throughout",
			Orderer:     order.KindSeq,
			Clocks:      DefaultClocks(),
			Duration:    1500 * time.Millisecond,
			Faults: []FaultEvent{
				{Kind: FaultPartition, At: 300 * time.Millisecond, For: 300 * time.Millisecond, Fraction: 0.3},
			},
			Gates:     Gates{ReconvergeWithin: 600 * time.Millisecond},
			MaxNodes:  100,
			MeanDelay: 5 * time.Millisecond,
		},
		{
			Name:        "asym-partition",
			Description: "one-way silence toward 20% of the nodes: they hear nobody's datagrams arriving but still transmit",
			Orderer:     order.KindSeq,
			Clocks:      DefaultClocks(),
			Duration:    1500 * time.Millisecond,
			Faults: []FaultEvent{
				{Kind: FaultAsymmetric, At: 300 * time.Millisecond, For: 250 * time.Millisecond, Fraction: 0.2},
			},
			Gates:     Gates{ReconvergeWithin: 700 * time.Millisecond},
			MaxNodes:  100,
			MeanDelay: 5 * time.Millisecond,
		},
		{
			Name:        "partial-partition",
			Description: "two islands lose sight of each other while third parties bridge both; no component ever loses quorum",
			Orderer:     order.KindSeq,
			Clocks:      DefaultClocks(),
			Duration:    1500 * time.Millisecond,
			Faults: []FaultEvent{
				{Kind: FaultPartial, At: 300 * time.Millisecond, For: 300 * time.Millisecond, Fraction: 0.15},
			},
			Gates:     Gates{ReconvergeWithin: 600 * time.Millisecond},
			MaxNodes:  100,
			MeanDelay: 5 * time.Millisecond,
		},
		{
			Name:         "wan-bursts",
			Description:  "20 ms WAN links with correlated loss bursts; orderer timers stretched to match the fabric",
			Orderer:      order.KindSeq,
			Links:        Links{Profile: ProfileWAN, WANBase: 20 * time.Millisecond},
			Clocks:       DefaultClocks(),
			Duration:     20 * time.Second,
			RefreshEvery: 250 * time.Millisecond,
			Faults: []FaultEvent{
				{Kind: FaultLossBursts, At: 5 * time.Second, Count: 3,
					For: 300 * time.Millisecond, Gap: time.Second, Loss: 0.6},
			},
			Gates:    Gates{ReconvergeWithin: 8 * time.Second},
			MaxNodes: 50,
			// 20 ms one-way plus a couple of resend cycles when a burst eats
			// the first delivery.
			MeanDelay: 60 * time.Millisecond,
			Seq: order.SeqTuning{
				HeartbeatInterval: 100 * time.Millisecond,
				LeaderTimeout:     time.Second,
				// Resend aggressively: every missed sequenced message adds
				// unmeasured delivery lag at its adopters, and the lag
				// estimator only learns about it on the node's next own
				// proposal.
				ResendInterval:  100 * time.Millisecond,
				ElectionTimeout: 400 * time.Millisecond,
			},
		},
		{
			Name:         "token-cascade",
			Description:  "repeated total-loss bursts swallow the totem token several times in a row; gates recovery of the ring",
			Orderer:      order.KindTotem,
			Clocks:       DefaultClocks(),
			Duration:     2 * time.Second,
			RefreshEvery: 5 * time.Millisecond,
			Faults: []FaultEvent{
				{Kind: FaultLossBursts, At: 300 * time.Millisecond, Count: 3,
					For: 5 * time.Millisecond, Gap: 150 * time.Millisecond, Loss: 1.0},
			},
			Gates:    Gates{ReconvergeWithin: 1200 * time.Millisecond},
			MaxNodes: 8,
		},
	}
}

// BuiltinMatrix is the stock sweep ctscampaign runs by default: every
// builtin scenario over the matrix axis, clamped per scenario to its
// MaxNodes cap (wire scenarios) with the clamp recorded in each cell.
func BuiltinMatrix(nodeCounts []int, seeds []int64) Matrix {
	return Matrix{Scenarios: Builtin(), NodeCounts: nodeCounts, Seeds: seeds}
}
