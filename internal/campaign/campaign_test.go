package campaign

import (
	"reflect"
	"testing"
	"time"

	"cts/internal/order"
)

// TestClockPlanDeterministic checks that per-node clock specs depend only on
// (seed, index, n) — the order-independence the deployment relies on.
func TestClockPlanDeterministic(t *testing.T) {
	p := DefaultClocks()
	a := p.Spec(42, 7, 100)
	b := p.Spec(42, 7, 100)
	if a != b {
		t.Fatalf("same (seed,index,n) gave %+v vs %+v", a, b)
	}
	if c := p.Spec(43, 7, 100); c == a {
		t.Fatalf("different seed gave identical spec %+v", a)
	}
	if c := p.Spec(42, 8, 100); c == a {
		t.Fatalf("different index gave identical spec %+v", a)
	}
	if a.Offset < -p.MaxOffset || a.Offset > p.MaxOffset {
		t.Fatalf("offset %v outside ±%v", a.Offset, p.MaxOffset)
	}
	if a.DriftPPM < -p.MaxDriftPPM || a.DriftPPM > p.MaxDriftPPM {
		t.Fatalf("drift %v outside ±%v ppm", a.DriftPPM, p.MaxDriftPPM)
	}
}

func TestClockPlanOutliers(t *testing.T) {
	p := ClockPlan{MaxOffset: time.Millisecond, MaxDriftPPM: 10, OutlierFrac: 0.1, OutlierDriftPPM: 400}
	n := 50
	outliers := 0
	for i := 0; i < n; i++ {
		if p.Spec(1, i, n).DriftPPM == 400 {
			outliers++
			if i < n-5 {
				t.Fatalf("outlier at index %d, want only the top 5 ids", i)
			}
		}
	}
	if outliers != 5 {
		t.Fatalf("got %d outliers, want 5 (10%% of %d)", outliers, n)
	}
}

func TestClockPlanExplicit(t *testing.T) {
	p := ClockPlan{Explicit: []ClockSpec{{Offset: time.Millisecond}, {DriftPPM: 7}}}
	if got := p.Spec(99, 1, 2); got.DriftPPM != 7 {
		t.Fatalf("explicit spec ignored: %+v", got)
	}
}

func TestScenarioValidate(t *testing.T) {
	base := Scenario{
		Name:     "ok",
		Duration: time.Second,
		Gates:    Gates{ReconvergeWithin: 100 * time.Millisecond},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"no duration", func(s *Scenario) { s.Duration = 0 }},
		{"no gate", func(s *Scenario) { s.Gates = Gates{} }},
		{"bad orderer", func(s *Scenario) { s.Orderer = "gossip" }},
		{"bad link profile", func(s *Scenario) { s.Links.Profile = "carrier-pigeon" }},
		{"removed fixed link profile", func(s *Scenario) { s.Links.Profile = "fixed" }},
		{"partition under instant", func(s *Scenario) {
			s.Faults = []FaultEvent{{Kind: FaultPartition, At: 100 * time.Millisecond,
				For: 100 * time.Millisecond, Fraction: 0.3}}
		}},
		{"majority-killing fraction", func(s *Scenario) {
			s.Orderer = order.KindSeq
			s.Faults = []FaultEvent{{Kind: FaultPartition, At: 100 * time.Millisecond,
				For: 100 * time.Millisecond, Fraction: 0.6}}
		}},
		{"fault past duration", func(s *Scenario) {
			s.Faults = []FaultEvent{{Kind: FaultChurn, At: 900 * time.Millisecond,
				For: 200 * time.Millisecond, Count: 2}}
		}},
		{"no room for gate", func(s *Scenario) {
			s.Gates.ReconvergeWithin = time.Second
			s.Faults = []FaultEvent{{Kind: FaultChurn, At: 100 * time.Millisecond,
				For: 100 * time.Millisecond, Count: 2}}
		}},
		{"unknown fault kind", func(s *Scenario) {
			s.Faults = []FaultEvent{{Kind: "meteor", At: 100 * time.Millisecond}}
		}},
	}
	for _, tc := range cases {
		sc := base
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestBuiltinScenariosValidate(t *testing.T) {
	for _, sc := range Builtin() {
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %q: %v", sc.Name, err)
		}
	}
}

func TestMatrixCells(t *testing.T) {
	m := Matrix{
		Scenarios: []Scenario{
			{Name: "a", Duration: time.Second, Gates: Gates{ReconvergeWithin: time.Millisecond}},
			{Name: "b", Duration: time.Second, Gates: Gates{ReconvergeWithin: time.Millisecond},
				NodeCounts: []int{8}},
		},
		NodeCounts: []int{100, 1000},
		Seeds:      []int64{1, 2},
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	want := []Cell{
		{Scenario: "a", Nodes: 100, Seed: 1}, {Scenario: "a", Nodes: 100, Seed: 2},
		{Scenario: "a", Nodes: 1000, Seed: 1}, {Scenario: "a", Nodes: 1000, Seed: 2},
		{Scenario: "b", Nodes: 8, Seed: 1}, {Scenario: "b", Nodes: 8, Seed: 2},
	}
	if got := m.Cells(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cells = %v, want %v", got, want)
	}

	dup := m
	dup.Scenarios = append(dup.Scenarios, Scenario{Name: "a", Duration: time.Second,
		Gates: Gates{ReconvergeWithin: time.Millisecond}})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate scenario name accepted")
	}
	noSeeds := m
	noSeeds.Seeds = nil
	if err := noSeeds.Validate(); err == nil {
		t.Fatal("matrix without seeds accepted")
	}
	// A cell needs two nodes; a smaller count on either axis is rejected
	// here, not partway through the sweep.
	for _, n := range []int{1, 0, -3} {
		small := m
		small.NodeCounts = []int{100, n}
		if err := small.Validate(); err == nil {
			t.Fatalf("matrix node count %d accepted", n)
		}
		small = m
		small.Scenarios = append([]Scenario(nil), m.Scenarios...)
		small.Scenarios[1].NodeCounts = []int{n}
		if err := small.Validate(); err == nil {
			t.Fatalf("scenario node count %d accepted", n)
		}
	}
}

// TestMatrixMaxNodes pins the anti-silent-cap contract: an axis count above
// a scenario's MaxNodes runs at MaxNodes, and the clamped cell records the
// requested size.
func TestMatrixMaxNodes(t *testing.T) {
	capped := Scenario{Name: "capped", Duration: time.Second,
		Gates: Gates{ReconvergeWithin: time.Millisecond}, MaxNodes: 50}
	m := Matrix{Scenarios: []Scenario{capped}, NodeCounts: []int{10, 100, 1000}, Seeds: []int64{1}}
	if err := m.Validate(); err != nil {
		t.Fatalf("clamping matrix rejected: %v", err)
	}
	want := []Cell{
		{Scenario: "capped", Nodes: 10, Seed: 1},
		// 100 and 1000 both clamp to 50; the duplicate cell is dropped.
		{Scenario: "capped", Nodes: 50, Seed: 1, ClampedFrom: 100},
	}
	if got := m.Cells(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cells = %v, want %v", got, want)
	}

	for _, n := range []int{-1, 1} {
		bad := capped
		bad.MaxNodes = n
		if err := bad.Validate(); err == nil {
			t.Fatalf("max_nodes %d accepted", n)
		}
	}
}

// TestBuiltinWireScenariosClampVisibly covers the regression this sweep
// fixes: the builtin wire scenarios used to pin NodeCounts, silently running
// 100 (or 8) nodes no matter what axis the user asked for. Now an oversized
// axis clamps with the requested size recorded on the cell.
func TestBuiltinWireScenariosClampVisibly(t *testing.T) {
	m := BuiltinMatrix([]int{1000}, []int64{7})
	if err := m.Validate(); err != nil {
		t.Fatalf("builtin matrix rejected: %v", err)
	}
	byName := make(map[string]Cell)
	for _, c := range m.Cells() {
		byName[c.Scenario] = c
	}
	for name, wantNodes := range map[string]int{
		"partition-heal": 100, "asym-partition": 100, "partial-partition": 100,
		"wan-bursts": 50, "token-cascade": 8,
	} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("builtin scenario %q missing from cells", name)
		}
		if c.Nodes != wantNodes || c.ClampedFrom != 1000 {
			t.Fatalf("%s cell = %+v, want nodes=%d clamped_from=1000", name, c, wantNodes)
		}
	}
	// Instant scenarios follow the axis unclamped.
	if c := byName["churn-storm"]; c.Nodes != 1000 || c.ClampedFrom != 0 {
		t.Fatalf("churn-storm cell = %+v, want nodes=1000 unclamped", c)
	}
	// Under the cap, wire scenarios run at the requested size.
	small := BuiltinMatrix([]int{9}, []int64{7})
	for _, c := range small.Cells() {
		if c.Scenario == "partition-heal" && (c.Nodes != 9 || c.ClampedFrom != 0) {
			t.Fatalf("under-cap cell = %+v, want nodes=9 unclamped", c)
		}
	}
}

func TestParseMatrix(t *testing.T) {
	data := []byte(`{
		"scenarios": [{
			"name": "json-churn",
			"orderer": "instant",
			"duration_ns": 500000000,
			"faults": [{"kind": "churn", "at_ns": 100000000, "for_ns": 100000000, "count": 2}],
			"gates": {"reconverge_within_ns": 200000000}
		}, {
			"name": "json-wan",
			"orderer": "seq",
			"links": {"profile": "wan", "wan_base_ns": 20000000},
			"duration_ns": 1000000000,
			"mean_delay_ns": 60000000,
			"gates": {"reconverge_within_ns": 200000000},
			"node_counts": [9],
			"seq": {"heartbeat_interval_ns": 100000000, "leader_timeout_ns": 1000000000}
		}],
		"node_counts": [10],
		"seeds": [1]
	}`)
	m, err := ParseMatrix(data)
	if err != nil {
		t.Fatalf("ParseMatrix: %v", err)
	}
	sc, ok := m.ScenarioByName("json-churn")
	if !ok || sc.Duration != 500*time.Millisecond || len(sc.Faults) != 1 {
		t.Fatalf("parsed scenario wrong: %+v", sc)
	}
	// The EXPERIMENTS.md schema: fabric declaration and orderer tuning are
	// part of the JSON surface, so their field names are pinned here.
	wan, ok := m.ScenarioByName("json-wan")
	if !ok || wan.MeanDelay != 60*time.Millisecond ||
		wan.Links.WANBase != 20*time.Millisecond ||
		wan.Seq.HeartbeatInterval != 100*time.Millisecond ||
		wan.Seq.LeaderTimeout != time.Second {
		t.Fatalf("parsed WAN scenario wrong: %+v", wan)
	}
	// Each rejection row breaks one thing in an otherwise valid matrix.
	matrix := func(extra, counts string) []byte {
		return []byte(`{"scenarios":[{"name":"ok","duration_ns":1000000000,` +
			`"gates":{"reconverge_within_ns":1000000}` + extra + `}],"node_counts":` + counts + `,"seeds":[1]}`)
	}
	if _, err := ParseMatrix(matrix("", "[10]")); err != nil {
		t.Fatalf("base of the rejection rows rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		json []byte
	}{
		{"empty matrix", []byte(`{"scenarios":[]}`)},
		{"malformed JSON", []byte(`{not json`)},
		{"node count 1", matrix("", "[1]")},
		{"negative node count", matrix("", "[-3]")},
		{"misspelled key", matrix(`,"mean_delay":5000000`, "[10]")},
		{"removed clamp_nodes", matrix(`,"max_nodes":8,"clamp_nodes":true`, "[10]")},
		{"removed sample_every_ns", matrix(`,"sample_every_ns":1000000`, "[10]")},
		{"removed totem", matrix(`,"totem":{}`, "[10]")},
		{"removed fixed link profile", matrix(`,"links":{"profile":"fixed"}`, "[10]")},
		{"removed fixed_ns", matrix(`,"links":{"fixed_ns":1000000}`, "[10]")},
		{"negative seq timeout", matrix(`,"orderer":"seq","seq":{"leader_timeout_ns":-1}`, "[10]")},
		{"seq tuning on instant", matrix(`,"seq":{"leader_timeout_ns":1000000}`, "[10]")},
		{"seq tuning on totem", matrix(`,"orderer":"totem","seq":{"leader_timeout_ns":1000000}`, "[10]")},
		{"trailing data", append(matrix("", "[10]"), '}')},
	} {
		if _, err := ParseMatrix(tc.json); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// mustScenario pulls a builtin by name.
func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range Builtin() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no builtin scenario %q", name)
	return Scenario{}
}

// TestRunChurnStormSmoke is the campaign smoke test: the churn-storm cell at
// 100 nodes must complete and pass its gates.
func TestRunChurnStormSmoke(t *testing.T) {
	res, err := Run(mustScenario(t, "churn-storm"), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("churn-storm/100 failed gates: %v\nmetrics: %+v", res.Failures, res.Metrics)
	}
	if res.Metrics.Samples == 0 || res.Metrics.Refreshes == 0 {
		t.Fatalf("empty cell: %+v", res.Metrics)
	}
	if res.Metrics.Invalidations == 0 {
		t.Fatalf("churn never invalidated a lease: %+v", res.Metrics)
	}
}

// TestRunSlowClocksSmoke is the second smoke scenario: drift outliers, no
// faults, staleness bounds must stay honest throughout.
func TestRunSlowClocksSmoke(t *testing.T) {
	res, err := Run(mustScenario(t, "slow-clocks"), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("slow-clocks/100 failed gates: %v\nmetrics: %+v", res.Failures, res.Metrics)
	}
	if res.Metrics.MaxBoundUS <= 0 {
		t.Fatalf("bounds never grew: %+v", res.Metrics)
	}
}

// TestRunWireOrdererCell exercises a seq-orderer cell with a real partition
// at a size small enough for the test suite.
func TestRunWireOrdererCell(t *testing.T) {
	sc := mustScenario(t, "partition-heal")
	res, err := Run(sc, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("partition-heal/9 failed gates: %v\nmetrics: %+v", res.Failures, res.Metrics)
	}
	if res.Orderer != "seq" {
		t.Fatalf("orderer = %q, want seq", res.Orderer)
	}
}

// TestRunDeterministic re-runs the same cell and demands identical metrics —
// the reproducibility contract of the whole campaign subsystem.
func TestRunDeterministic(t *testing.T) {
	sc := mustScenario(t, "churn-storm")
	a, err := Run(sc, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same cell diverged:\n a=%+v\n b=%+v", a, b)
	}
	c, err := Run(sc, 50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Metrics, c.Metrics) {
		t.Fatalf("different seed gave identical metrics: %+v", a.Metrics)
	}
}
