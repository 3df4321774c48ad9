package experiment

import (
	"strings"
	"testing"

	"cts/internal/campaign"
)

// TestFederationSweepGate drives the E17 gate on hand-built cells: a clean
// sweep passes, and a failing one names every failed cell with each of its
// failures, and no passing cell.
func TestFederationSweepGate(t *testing.T) {
	pass := campaign.FedResult{Name: "fed-2-line", Pass: true}
	if err := (&FederationSweepResult{Cells: []campaign.FedResult{pass}}).Gate(); err != nil {
		t.Fatalf("passing sweep gated: %v", err)
	}
	res := &FederationSweepResult{Cells: []campaign.FedResult{
		pass,
		{Name: "fed-4-line", Failures: []string{"3 group-clock regressions (want 0)", "seams never converged under the skew gate"}},
		{Name: "fed-partition", Failures: []string{"final seam skew 9000µs, gate 5000µs"}},
	}}
	err := res.Gate()
	if err == nil {
		t.Fatal("failing sweep passed the gate")
	}
	msg := err.Error()
	for _, want := range []string{
		"2 federated cell(s) failed",
		"fed-4-line: 3 group-clock regressions (want 0); seams never converged under the skew gate",
		"fed-partition: final seam skew 9000µs, gate 5000µs",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("gate error %q lacks %q", msg, want)
		}
	}
	if strings.Contains(msg, "fed-2-line") {
		t.Errorf("gate error %q names the passing cell", msg)
	}
}
