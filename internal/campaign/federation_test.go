package campaign

import (
	"testing"
	"time"
)

func TestFedSpecValidate(t *testing.T) {
	good := FedSpec{Name: "x", Groups: 2, NodesPerGroup: 2, Duration: time.Second,
		Gates: FedGates{MaxSeamSkew: time.Millisecond, ReconvergeWithin: time.Second}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got := good.initialSlack(); got != fedGroupSkew+6*time.Millisecond {
		t.Fatalf("initial slack for 2 groups = %v", got)
	}
	cases := []func(*FedSpec){
		func(s *FedSpec) { s.Name = "" },
		func(s *FedSpec) { s.Groups = 1 },
		func(s *FedSpec) { s.NodesPerGroup = 1 },
		func(s *FedSpec) { s.Duration = 0 },
		func(s *FedSpec) { s.Gates.MaxSeamSkew = 0 },
		func(s *FedSpec) { s.SeverFor = time.Second },                                                // no SeverAt
		func(s *FedSpec) { s.SeverAt = 900 * time.Millisecond; s.SeverFor = 100 * time.Millisecond }, // no heal room
	}
	for i, mut := range cases {
		bad := good
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("case %d: invalid spec accepted: %+v", i, bad)
		}
	}
}

// mustFedSpec pulls a builtin federated spec by name.
func mustFedSpec(t *testing.T, name string) FedSpec {
	t.Helper()
	for _, sp := range BuiltinFederation() {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("no builtin federated spec %q", name)
	return FedSpec{}
}

// TestRunFederatedTwoGroups runs the smallest federated cell end to end: two
// groups whose clock planes start 2 ms apart must converge under the seam
// gate with zero cross-group staleness violations — the migrating-client
// floor (keyed by group AND node) holds across the seam.
func TestRunFederatedTwoGroups(t *testing.T) {
	spec := mustFedSpec(t, "fed-2-line")
	res, err := RunFederated(spec, 2003)
	if err != nil {
		t.Fatalf("RunFederated: %v", err)
	}
	if !res.Pass {
		t.Fatalf("federated cell failed its gates: %v\nmetrics: %+v", res.Failures, res.Metrics)
	}
	if res.Metrics.Nudges == 0 {
		t.Fatal("no nudges: the lagging group never moved toward its neighbor")
	}
	if res.Metrics.SummariesRecv == 0 {
		t.Fatal("no summaries received")
	}
}

// TestRunFederatedSeverHeal cuts every inter-group edge mid-run: the seams
// must stay honest throughout (bounds grow instead of lying) and reconverge
// after the heal.
func TestRunFederatedSeverHeal(t *testing.T) {
	spec := mustFedSpec(t, "fed-partition")
	res, err := RunFederated(spec, 2003)
	if err != nil {
		t.Fatalf("RunFederated: %v", err)
	}
	if !res.Pass {
		t.Fatalf("sever/heal cell failed its gates: %v\nmetrics: %+v", res.Failures, res.Metrics)
	}
	if res.Metrics.FabricDropped == 0 {
		t.Fatal("sever window dropped no frames: the partition never took effect")
	}
}

func TestRunFederatedDeterministic(t *testing.T) {
	spec := FedSpec{Name: "det", Groups: 2, NodesPerGroup: 2,
		Duration: 400 * time.Millisecond,
		Gates:    FedGates{MaxSeamSkew: 4 * time.Millisecond, ReconvergeWithin: 400 * time.Millisecond}}
	a, err := RunFederated(spec, 7)
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := RunFederated(spec, 7)
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("same spec and seed diverged:\nA: %+v\nB: %+v", a.Metrics, b.Metrics)
	}
}
