package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// refHistogram is the full-array histogram the growable one replaced:
// every one of the 64 exponent ranges is allocated up front and bucket
// indices come from the hand-written leading-zero loop. Quantiles of the
// real histogram must match it exactly, since the ranges it leaves out
// hold only zeros.
type refHistogram struct {
	subBits  uint
	buckets  []uint64
	count    uint64
	sum      float64
	min, max int64
}

func newRef(subBits uint) *refHistogram {
	return &refHistogram{
		subBits: subBits, buckets: make([]uint64, 64<<subBits),
		min: math.MaxInt64, max: math.MinInt64,
	}
}

// loopLeadingZeros64 is the loop bucketIndex used before math/bits.
func loopLeadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

func refIndex(subBits uint, v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	exp := 63 - loopLeadingZeros64(u)
	shift := uint(exp) - subBits
	sub := (u >> shift) & ((1 << subBits) - 1)
	return int((uint(exp)-subBits+1)<<subBits) + int(sub)
}

func (r *refHistogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	r.buckets[refIndex(r.subBits, v)]++
	r.count++
	r.sum += float64(v)
	r.min = min(r.min, v)
	r.max = max(r.max, v)
}

func (r *refHistogram) merge(o *refHistogram) {
	for i, c := range o.buckets {
		r.buckets[i] += c
	}
	r.count += o.count
	r.sum += o.sum
	if o.count > 0 {
		r.min = min(r.min, o.min)
		r.max = max(r.max, o.max)
	}
}

func (r *refHistogram) quantile(q float64) int64 {
	if r.count == 0 {
		return 0
	}
	if q <= 0 {
		return r.min
	}
	if q >= 1 {
		return r.max
	}
	rank := max(uint64(math.Ceil(q*float64(r.count))), 1)
	var cum uint64
	for i, c := range r.buckets {
		cum += c
		if cum >= rank {
			// The lowest value of bucket i, clamped to [min, max].
			low := int64(i)
			if i >= 1<<r.subBits {
				region := uint(i) >> r.subBits
				exp := region - 1 + r.subBits
				low = int64(uint64(1)<<exp + (uint64(i)&(1<<r.subBits-1))<<(exp-r.subBits))
			}
			return min(max(low, r.min), r.max)
		}
	}
	return r.max
}

var refQuantiles = []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// sameAsRef reports how h differs from r, or "" when it does not.
func sameAsRef(h *Histogram, r *refHistogram) string {
	switch {
	case h.Count() != r.count:
		return "count"
	case h.Count() > 0 && (h.Min() != r.min || h.Max() != r.max):
		return "min/max"
	case h.Count() > 0 && h.Mean() != r.sum/float64(r.count):
		return "mean"
	case len(h.buckets) > len(r.buckets):
		return "buckets longer than the full array"
	}
	for _, q := range refQuantiles {
		if got, want := h.Quantile(q), r.quantile(q); got != want {
			return "quantile"
		}
	}
	return ""
}

// sample draws a value from a mix of the edges (0, negatives, 2^62,
// MaxInt64) and log-uniform magnitudes up to 2^bitsMax.
func sample(rng *rand.Rand, bitsMax int) int64 {
	switch rng.Intn(8) {
	case 0:
		edges := []int64{0, -1, math.MinInt64, 1, 31, 32, 1 << 62, math.MaxInt64}
		return edges[rng.Intn(len(edges))]
	default:
		return rng.Int63n(int64(1) << uint(1+rng.Intn(bitsMax)))
	}
}

// TestHistogramMatchesFullArray is the property behind sizing buckets by
// what they hold: on seeded sample sets, Observe, Merge in both
// directions, Clone, and Reset followed by new samples all give the
// full-array histogram's count, extremes, mean and quantiles.
func TestHistogramMatchesFullArray(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		sb := uint(1 + rng.Intn(10))
		short, long := NewHistogramPrecision(sb), NewHistogramPrecision(sb)
		rs, rl := newRef(sb), newRef(sb)
		for i := rng.Intn(50); i > 0; i-- {
			v := sample(rng, 20)
			short.Observe(v)
			rs.observe(v)
		}
		for i := rng.Intn(200); i > 0; i-- {
			v := sample(rng, 62)
			long.Observe(v)
			rl.observe(v)
		}
		check := func(what string, h *Histogram, r *refHistogram) {
			t.Helper()
			if d := sameAsRef(h, r); d != "" {
				t.Fatalf("trial %d (subBits %d): %s differs from the full array in %s", trial, sb, what, d)
			}
		}
		check("short", short, rs)
		check("long", long, rl)

		// Short into long, and long into short, each on a clone so the
		// originals must stay as they were.
		sl, rsl := long.Clone(), newRef(sb)
		rsl.merge(rl)
		sl.Merge(short)
		rsl.merge(rs)
		check("short merged into long", sl, rsl)
		ls, rls := short.Clone(), newRef(sb)
		rls.merge(rs)
		ls.Merge(long)
		rls.merge(rl)
		check("long merged into short", ls, rls)
		check("short after its clone merged", short, rs)
		check("long after its clone merged", long, rl)

		// Reset keeps the bucket array; later samples must not see the
		// old counts.
		ls.Reset()
		rr := newRef(sb)
		for i := rng.Intn(100); i > 0; i-- {
			v := sample(rng, 40)
			ls.Observe(v)
			rr.observe(v)
		}
		check("reset and refilled", ls, rr)
	}
}

// TestBucketIndexMatchesLoop checks the math/bits bucket index against
// the hand-written loop it replaced, at every precision, on every power
// of two and its neighbours, the int64 edges and random values.
func TestBucketIndexMatchesLoop(t *testing.T) {
	vals := []int64{math.MinInt64, -1, 0, math.MaxInt64}
	for e := 0; e < 63; e++ {
		p := int64(1) << e
		vals = append(vals, p-1, p, p+1)
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Int63()>>rng.Intn(63))
	}
	for sb := uint(1); sb <= 10; sb++ {
		h := NewHistogramPrecision(sb)
		for _, v := range vals {
			if got, want := h.bucketIndex(v), refIndex(sb, v); got != want {
				t.Fatalf("subBits %d: bucketIndex(%d) = %d, loop gives %d", sb, v, got, want)
			}
		}
	}
}

func TestHistogramObserveWarmNoAlloc(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.MaxInt64)
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() {
		v = v*7 + 13
		h.Observe(v & math.MaxInt64)
	}); n != 0 {
		t.Fatalf("warm Observe allocates %.1f times per call", n)
	}
}

// BenchmarkHistogramObserve times one Observe once the histogram has
// grown to its largest sample (0 allocs/op).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	h.Observe(1000000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i%1000000) + 1)
	}
}
