// Package stats provides the small statistical toolkit the experiment
// harness needs: duration samples with percentiles, fixed-width histograms
// with probability-density normalization (the paper's Figure 5 plots a PDF
// of end-to-end latency), and online mean/variance accumulation.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Durations accumulates a sample of durations. The zero value is ready to
// use. It is not safe for concurrent use.
type Durations struct {
	v      []time.Duration
	sorted bool
}

// Add appends one observation.
func (d *Durations) Add(x time.Duration) {
	d.v = append(d.v, x)
	d.sorted = false
}

// N reports the sample size.
func (d *Durations) N() int { return len(d.v) }

// Values returns a copy of the observations in insertion order.
func (d *Durations) Values() []time.Duration {
	out := make([]time.Duration, len(d.v))
	copy(out, d.v)
	return out
}

func (d *Durations) sort() {
	if !d.sorted {
		sort.Slice(d.v, func(i, j int) bool { return d.v[i] < d.v[j] })
		d.sorted = true
	}
}

// Min returns the smallest observation, or 0 for an empty sample.
func (d *Durations) Min() time.Duration {
	if len(d.v) == 0 {
		return 0
	}
	d.sort()
	return d.v[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (d *Durations) Max() time.Duration {
	if len(d.v) == 0 {
		return 0
	}
	d.sort()
	return d.v[len(d.v)-1]
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (d *Durations) Mean() time.Duration {
	if len(d.v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range d.v {
		sum += float64(x)
	}
	return time.Duration(sum / float64(len(d.v)))
}

// Stddev returns the sample standard deviation (n−1 denominator), or 0 for
// samples of size < 2.
func (d *Durations) Stddev() time.Duration {
	n := len(d.v)
	if n < 2 {
		return 0
	}
	mean := float64(d.Mean())
	var ss float64
	for _, x := range d.v {
		dx := float64(x) - mean
		ss += dx * dx
	}
	return time.Duration(math.Sqrt(ss / float64(n-1)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank interpolation. It returns 0 for an empty sample.
func (d *Durations) Percentile(p float64) time.Duration {
	if len(d.v) == 0 {
		return 0
	}
	d.sort()
	if p <= 0 {
		return d.v[0]
	}
	if p >= 100 {
		return d.v[len(d.v)-1]
	}
	rank := p / 100 * float64(len(d.v)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.v[lo]
	}
	frac := rank - float64(lo)
	return d.v[lo] + time.Duration(frac*float64(d.v[hi]-d.v[lo]))
}

// Median is Percentile(50).
func (d *Durations) Median() time.Duration { return d.Percentile(50) }

// Summary formats the sample's headline statistics on one line.
func (d *Durations) Summary() string {
	return fmt.Sprintf("n=%d min=%v p50=%v mean=%v p99=%v max=%v",
		d.N(), d.Min(), d.Median(), d.Mean(), d.Percentile(99), d.Max())
}

// Histogram bins the sample into fixed-width bins starting at origin.
// Observations below origin are clamped into the first bin.
func (d *Durations) Histogram(origin, binWidth time.Duration) *Histogram {
	if binWidth <= 0 {
		binWidth = time.Microsecond
	}
	h := &Histogram{Origin: origin, BinWidth: binWidth}
	for _, x := range d.v {
		h.Add(x)
	}
	return h
}

// Histogram is a fixed-bin-width histogram of durations.
type Histogram struct {
	Origin   time.Duration
	BinWidth time.Duration
	counts   []int
	total    int
}

// NewHistogram returns an empty histogram with the given origin and width.
func NewHistogram(origin, binWidth time.Duration) *Histogram {
	if binWidth <= 0 {
		binWidth = time.Microsecond
	}
	return &Histogram{Origin: origin, BinWidth: binWidth}
}

// Add records one observation.
func (h *Histogram) Add(x time.Duration) {
	idx := 0
	if x > h.Origin {
		idx = int((x - h.Origin) / h.BinWidth)
	}
	for idx >= len(h.counts) {
		h.counts = append(h.counts, 0)
	}
	h.counts[idx]++
	h.total++
}

// Total reports the number of recorded observations.
func (h *Histogram) Total() int { return h.total }

// Bin is one histogram bin with its probability mass and density.
type Bin struct {
	Lo, Hi  time.Duration
	Count   int
	Mass    float64 // fraction of all observations in this bin
	Density float64 // Mass normalized by bin width in seconds
}

// Bins returns the non-empty prefix of bins (all bins up to the last
// non-empty one, including interior empty bins).
func (h *Histogram) Bins() []Bin {
	last := -1
	for i, c := range h.counts {
		if c > 0 {
			last = i
		}
	}
	out := make([]Bin, 0, last+1)
	for i := 0; i <= last; i++ {
		lo := h.Origin + time.Duration(i)*h.BinWidth
		mass := 0.0
		if h.total > 0 {
			mass = float64(h.counts[i]) / float64(h.total)
		}
		out = append(out, Bin{
			Lo:      lo,
			Hi:      lo + h.BinWidth,
			Count:   h.counts[i],
			Mass:    mass,
			Density: mass / h.BinWidth.Seconds(),
		})
	}
	return out
}

// Mode returns the bin with the highest count. For an empty histogram it
// returns a zero Bin.
func (h *Histogram) Mode() Bin {
	best, bestCount := -1, 0
	for i, c := range h.counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return Bin{}
	}
	lo := h.Origin + time.Duration(best)*h.BinWidth
	mass := float64(bestCount) / float64(h.total)
	return Bin{Lo: lo, Hi: lo + h.BinWidth, Count: bestCount,
		Mass: mass, Density: mass / h.BinWidth.Seconds()}
}
