package baseline_test

import (
	"testing"
	"time"

	"cts/internal/baseline"
	"cts/internal/campaign"
	"cts/internal/experiment"
	"cts/internal/hwclock"
	"cts/internal/replication"
	"cts/internal/transport"
)

// The baseline is exercised through the experiment cluster (client on P0,
// replicas on P1..P3), the same way the paper compares approaches.

func readOnce(t *testing.T, c *experiment.Cluster) time.Duration {
	t.Helper()
	v, err := c.ReadOnce()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPrimaryBackupConsistentWhilePrimaryAlive(t *testing.T) {
	c, err := experiment.NewCluster(experiment.ClusterConfig{
		Seed: 1,
		Topology: campaign.Explicit(
			experiment.ClockSpec{Offset: 20 * time.Second},
			experiment.ClockSpec{Offset: 0},
			experiment.ClockSpec{Offset: 40 * time.Second}),
		Style: replication.Passive,
		Mode:  experiment.ModePrimaryBackup,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for i := 0; i < 8; i++ {
		v := readOnce(t, c)
		// Values come from the primary's clock (+20s), monotonically.
		if v < prev {
			t.Fatalf("baseline rolled back with primary alive: %v -> %v", prev, v)
		}
		if v < 19*time.Second || v > 21*time.Second {
			t.Fatalf("value %v not from the primary's clock (+20s)", v)
		}
		prev = v
	}
	// Only the primary put messages on the wire.
	c.K.Post(func() {
		if c.PBs[1].Sent == 0 {
			t.Error("primary sent no conveyance messages")
		}
		if c.PBs[2].Sent != 0 || c.PBs[3].Sent != 0 {
			t.Error("backups sent conveyance messages")
		}
	})
	c.K.RunFor(time.Millisecond)
}

func TestPrimaryBackupRollsBackOnFailover(t *testing.T) {
	// Backup's clock 5s behind the primary's.
	c, err := experiment.NewCluster(experiment.ClusterConfig{
		Seed: 2,
		Topology: campaign.Explicit(
			experiment.ClockSpec{Offset: 20 * time.Second},
			experiment.ClockSpec{Offset: 15 * time.Second},
			experiment.ClockSpec{Offset: 15 * time.Second}),
		Style:           replication.Passive,
		Mode:            experiment.ModePrimaryBackup,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before time.Duration
	for i := 0; i < 5; i++ {
		before = readOnce(t, c)
	}
	c.Crash(1)
	after := readOnce(t, c)
	if after >= before {
		t.Fatalf("expected roll-back: %v -> %v", before, after)
	}
	if before-after < 4*time.Second {
		t.Fatalf("roll-back magnitude %v, want ≈5s", before-after)
	}
	// The takeover consumed conveyed values for replayed rounds.
	c.K.Post(func() {
		if c.PBs[2].FromBuffer == 0 {
			t.Error("new primary ignored conveyed values during replay")
		}
	})
	c.K.RunFor(time.Millisecond)
}

func TestPrimaryBackupFastForwardOnFailover(t *testing.T) {
	c, err := experiment.NewCluster(experiment.ClusterConfig{
		Seed: 3,
		Topology: campaign.Explicit(
			experiment.ClockSpec{Offset: 20 * time.Second},
			experiment.ClockSpec{Offset: 27 * time.Second},
			experiment.ClockSpec{Offset: 27 * time.Second}),
		Style:           replication.Passive,
		Mode:            experiment.ModePrimaryBackup,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before time.Duration
	for i := 0; i < 5; i++ {
		before = readOnce(t, c)
	}
	c.Crash(1)
	after := readOnce(t, c)
	if after-before < 6*time.Second {
		t.Fatalf("expected ≈7s fast-forward: %v -> %v (jump %v)",
			before, after, after-before)
	}
}

func TestLocalClockIsUncoordinated(t *testing.T) {
	clock := hwclock.NewManual(time.Hour)
	lc := baseline.NewLocalClock(clock)
	if got := lc.Gettimeofday(nil); got != time.Hour {
		t.Fatalf("LocalClock read %v, want 1h", got)
	}
	clock.Set(time.Minute) // clocks may even go backwards
	if got := lc.Gettimeofday(nil); got != time.Minute {
		t.Fatalf("LocalClock read %v, want 1m", got)
	}
}

func TestNewPrimaryBackupValidation(t *testing.T) {
	if _, err := baseline.NewPrimaryBackup(nil, hwclock.NewManual(0), nil); err == nil {
		t.Fatal("nil manager accepted")
	}
}

func TestPrimaryBackupReportsWinners(t *testing.T) {
	c, err := experiment.NewCluster(experiment.ClusterConfig{
		Seed:     4,
		Topology: campaign.Explicit(experiment.ClockSpec{}, experiment.ClockSpec{}, experiment.ClockSpec{}),
		Style:    replication.Passive,
		Mode:     experiment.ModePrimaryBackup,
	})
	if err != nil {
		t.Fatal(err)
	}
	readOnce(t, c)
	reps := c.PBReports[1]
	if len(reps) == 0 {
		t.Fatal("no baseline reports at the primary")
	}
	if reps[0].Sender != transport.NodeID(1) || !reps[0].FromOwn {
		t.Fatalf("report = %+v, want own-clock read at P1", reps[0])
	}
}
