package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDurationsEmpty(t *testing.T) {
	var d Durations
	if d.N() != 0 || d.Min() != 0 || d.Max() != 0 || d.Mean() != 0 ||
		d.Stddev() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty sample statistics should all be zero")
	}
}

func TestDurationsBasicStats(t *testing.T) {
	var d Durations
	for _, v := range []time.Duration{4, 1, 3, 2, 5} {
		d.Add(v * time.Millisecond)
	}
	if d.N() != 5 {
		t.Fatalf("N = %d, want 5", d.N())
	}
	if d.Min() != time.Millisecond || d.Max() != 5*time.Millisecond {
		t.Fatalf("min/max = %v/%v", d.Min(), d.Max())
	}
	if d.Mean() != 3*time.Millisecond {
		t.Fatalf("mean = %v, want 3ms", d.Mean())
	}
	if d.Median() != 3*time.Millisecond {
		t.Fatalf("median = %v, want 3ms", d.Median())
	}
	// stddev of 1..5 ms with n-1 denominator = sqrt(2.5) ms.
	want := time.Duration(math.Sqrt(2.5) * float64(time.Millisecond))
	if diff := d.Stddev() - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("stddev = %v, want ~%v", d.Stddev(), want)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var d Durations
	d.Add(0)
	d.Add(100 * time.Millisecond)
	if got := d.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := d.Percentile(0); got != 0 {
		t.Fatalf("p0 = %v, want 0", got)
	}
	if got := d.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := d.Percentile(25); got != 25*time.Millisecond {
		t.Fatalf("p25 = %v, want 25ms", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var d Durations
		for _, r := range raw {
			d.Add(time.Duration(r) * time.Microsecond)
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		return d.Percentile(a) <= d.Percentile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	var d Durations
	d.Add(time.Second)
	v := d.Values()
	v[0] = 0
	if d.Max() != time.Second {
		t.Fatal("Values must return a copy")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 100*time.Microsecond)
	h.Add(50 * time.Microsecond)  // bin 0
	h.Add(150 * time.Microsecond) // bin 1
	h.Add(199 * time.Microsecond) // bin 1
	h.Add(350 * time.Microsecond) // bin 3
	bins := h.Bins()
	if len(bins) != 4 {
		t.Fatalf("got %d bins, want 4", len(bins))
	}
	wantCounts := []int{1, 2, 0, 1}
	for i, b := range bins {
		if b.Count != wantCounts[i] {
			t.Fatalf("bin %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d, want 4", h.Total())
	}
}

func TestHistogramMassSumsToOne(t *testing.T) {
	h := NewHistogram(0, 10*time.Microsecond)
	for i := 0; i < 1000; i++ {
		h.Add(time.Duration(i%37) * 3 * time.Microsecond)
	}
	var sum float64
	for _, b := range h.Bins() {
		sum += b.Mass
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("total probability mass = %g, want 1", sum)
	}
}

func TestHistogramDensityNormalization(t *testing.T) {
	// All mass in one 100µs bin: density = 1 / 100µs = 10,000 per second.
	h := NewHistogram(0, 100*time.Microsecond)
	h.Add(10 * time.Microsecond)
	bins := h.Bins()
	if len(bins) != 1 {
		t.Fatalf("got %d bins, want 1", len(bins))
	}
	if math.Abs(bins[0].Density-10000) > 1e-6 {
		t.Fatalf("density = %g, want 10000", bins[0].Density)
	}
}

func TestHistogramBelowOriginClamped(t *testing.T) {
	h := NewHistogram(time.Millisecond, time.Millisecond)
	h.Add(0) // below origin
	bins := h.Bins()
	if len(bins) != 1 || bins[0].Count != 1 || bins[0].Lo != time.Millisecond {
		t.Fatalf("below-origin observation not clamped to first bin: %+v", bins)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 10*time.Microsecond)
	for i := 0; i < 5; i++ {
		h.Add(55 * time.Microsecond) // bin [50,60)
	}
	h.Add(5 * time.Microsecond)
	m := h.Mode()
	if m.Lo != 50*time.Microsecond || m.Count != 5 {
		t.Fatalf("mode = %+v, want bin starting at 50µs with count 5", m)
	}
}

func TestHistogramModeEmpty(t *testing.T) {
	h := NewHistogram(0, time.Microsecond)
	if m := h.Mode(); m.Count != 0 {
		t.Fatalf("empty histogram mode = %+v", m)
	}
}

func TestDurationsHistogramHelper(t *testing.T) {
	var d Durations
	d.Add(5 * time.Microsecond)
	d.Add(15 * time.Microsecond)
	h := d.Histogram(0, 10*time.Microsecond)
	if h.Total() != 2 || len(h.Bins()) != 2 {
		t.Fatalf("histogram: total=%d bins=%d", h.Total(), len(h.Bins()))
	}
}

func TestHistogramDefaultBinWidth(t *testing.T) {
	h := NewHistogram(0, 0)
	h.Add(3 * time.Microsecond)
	if h.BinWidth != time.Microsecond {
		t.Fatalf("default bin width = %v, want 1µs", h.BinWidth)
	}
}

func TestSummaryNonEmpty(t *testing.T) {
	var d Durations
	d.Add(time.Millisecond)
	if d.Summary() == "" {
		t.Fatal("summary should not be empty")
	}
}
