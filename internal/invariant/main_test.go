package invariant

import (
	"testing"

	"cts/internal/testutil"
)

// TestMain fails the package if any test leaves goroutines running.
func TestMain(m *testing.M) { testutil.Main(m) }
