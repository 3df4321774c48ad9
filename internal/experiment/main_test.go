package experiment

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"cts/internal/order"
)

// -orderer reruns the whole experiment suite over a different total-order
// protocol, e.g.
//
//	go test ./internal/experiment -orderer=seq
//
// CI runs the suite under both totem and seq. The instant orderer needs a
// shared hub per cluster and models no network faults, so it is exercised by
// the order conformance suite instead.
var ordererFlag = flag.String("orderer", "", "total-order protocol for every cluster in the suite (totem|seq)")

// -churn-seeds lists the seeds TestChurnStress runs (`make churn-sweep`).
var churnSeeds = flag.String("churn-seeds", "99", "TestChurnStress seeds: comma-separated seeds or lo-hi ranges")

func TestMain(m *testing.M) {
	flag.Parse()
	kind, err := order.ParseKind(*ordererFlag)
	if err != nil || kind == order.KindInstant {
		fmt.Fprintf(os.Stderr, "experiment: -orderer must be totem or seq (got %q)\n", *ordererFlag)
		os.Exit(2)
	}
	DefaultOrderer = kind
	os.Exit(m.Run())
}

// totemOnly skips tests that pin Totem-specific wire behavior — token
// timing, per-token suppression counts, token_recv trace spans — when the
// suite runs under another orderer.
func totemOnly(t *testing.T) {
	t.Helper()
	if DefaultOrderer != order.KindTotem {
		t.Skipf("pins totem wire behavior; suite is running -orderer=%s", DefaultOrderer)
	}
}
