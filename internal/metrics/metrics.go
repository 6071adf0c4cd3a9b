// Package metrics provides the measurement primitives used by every
// experiment: high-dynamic-range latency histograms with percentile
// queries, counters and gauges, and the tables experiments print.
//
// The histogram is log-linear (HDR-style): values are bucketed with a
// bounded relative error (~1/32 by default) so that tail percentiles of
// microsecond-to-second latency distributions can be extracted cheaply.
// Its bucket array grows one power-of-two range at a time, up to the
// largest value observed, so the many per-port and per-engine histograms
// of a fabric model hold only the ranges their samples reach; once a
// histogram has seen its largest value, recording allocates nothing.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Histogram records int64 samples (typically latencies in virtual
// nanoseconds) with bounded relative error. The zero value is NOT usable;
// construct with NewHistogram.
type Histogram struct {
	// subBits controls precision: each power-of-two range is split into
	// 2^subBits linear buckets, giving worst-case relative error 2^-subBits.
	subBits uint
	// buckets covers whole ranges up to the highest index observed (or
	// merged in); indices past its end hold zero by definition.
	buckets []uint64
	count   uint64
	sum     float64
	min     int64
	max     int64
}

// NewHistogram returns a histogram with ~3% worst-case relative error.
func NewHistogram() *Histogram { return NewHistogramPrecision(5) }

// NewHistogramPrecision returns a histogram whose relative error is
// 2^-subBits. subBits must be in [1, 10]. It allocates no buckets: the
// first sample allocates the ranges up to its own (2^subBits counters
// per power of two), and a later, larger sample extends them. Most ports
// on an idle path never record a sample and never allocate.
func NewHistogramPrecision(subBits uint) *Histogram {
	if subBits < 1 || subBits > 10 {
		panic(fmt.Sprintf("metrics: subBits %d out of range [1,10]", subBits))
	}
	return &Histogram{
		subBits: subBits,
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
}

func (h *Histogram) bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	// Values below 2^subBits map 1:1 into the first linear region.
	if u < 1<<h.subBits {
		return int(u)
	}
	exp := 63 - bits.LeadingZeros64(u)
	shift := uint(exp) - h.subBits
	sub := (u >> shift) & ((1 << h.subBits) - 1)
	return int((uint(exp)-h.subBits+1)<<h.subBits) + int(sub)
}

// bucketLow returns the smallest value mapping to bucket i.
func (h *Histogram) bucketLow(i int) int64 {
	if i < 1<<h.subBits {
		return int64(i)
	}
	region := uint(i) >> h.subBits // >= 1
	sub := uint64(i) & ((1 << h.subBits) - 1)
	exp := region - 1 + h.subBits
	base := uint64(1) << exp
	return int64(base + sub<<(exp-h.subBits))
}

// grow extends buckets to cover index i, rounded up to a whole range.
func (h *Histogram) grow(i int) {
	nb := make([]uint64, (i>>h.subBits+1)<<h.subBits)
	copy(nb, h.buckets)
	h.buckets = nb
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := h.bucketIndex(v)
	if i >= len(h.buckets) {
		h.grow(i)
	}
	h.buckets[i]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) with the
// histogram's relative error bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			v := h.bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Percentile is Quantile(p/100).
func (h *Histogram) Percentile(p float64) int64 { return h.Quantile(p / 100) }

// Reset clears all samples. The buckets keep their length, so a reused
// histogram does not allocate again.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// Merge adds all samples of other into h. Both must share precision.
func (h *Histogram) Merge(other *Histogram) {
	if other.subBits != h.subBits {
		panic("metrics: merging histograms of different precision")
	}
	if n := len(other.buckets); n > len(h.buckets) {
		h.grow(n - 1)
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Clone returns an independent copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.buckets = append([]uint64(nil), h.buckets...)
	return &c
}

// Summary formats mean/p50/p95/p99/p99.9/max assuming samples are
// nanoseconds.
func (h *Histogram) Summary() string {
	us := func(v int64) string { return fmt.Sprintf("%.2fus", float64(v)/1000) }
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s p99.9=%s max=%s",
		h.count, fmt.Sprintf("%.2fus", h.Mean()/1000),
		us(h.Percentile(50)), us(h.Percentile(95)), us(h.Percentile(99)),
		us(h.Percentile(99.9)), us(h.Max()))
}

// Counter is a monotonically increasing count.
type Counter struct{ n uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is an instantaneous value that also tracks its maximum.
type Gauge struct {
	v   int64
	max int64
}

// Set updates the gauge.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.Set(g.v + delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Watermark returns the maximum value ever set.
func (g *Gauge) Watermark() int64 { return g.max }

// Table renders experiment output in the aligned plain-text format used by
// cmd/ccexperiment and the benchmark harness.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Percentiles computes exact percentiles from a full sample slice; used by
// tests to validate the histogram and by small experiments where keeping
// all samples is cheap. The input is sorted in place.
func Percentiles(samples []int64, ps ...float64) []int64 {
	out := make([]int64, len(ps))
	if len(samples) == 0 {
		return out
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for i, p := range ps {
		rank := int(math.Ceil(p/100*float64(len(samples)))) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(samples) {
			rank = len(samples) - 1
		}
		out[i] = samples[rank]
	}
	return out
}

// CSV renders the table as comma-separated values (header row first) for
// plotting the reproduced figures with external tools. Cells containing
// commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
