package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %d/%d, want 1/100", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %v, want 50.5", got)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below 2^subBits are recorded exactly.
	h := NewHistogramPrecision(5)
	for v := int64(0); v < 32; v++ {
		h.Observe(v)
	}
	for v := int64(0); v < 32; v++ {
		q := (float64(v) + 1) / 32
		if got := h.Quantile(q); got != v {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, v)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogramPrecision(5)
	r := rand.New(rand.NewSource(3))
	var samples []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over [1, 1e9] to stress all bucket regions.
		v := int64(math.Exp(r.Float64() * math.Log(1e9)))
		samples = append(samples, v)
		h.Observe(v)
	}
	exact := Percentiles(samples, 50, 90, 99, 99.9)
	got := []int64{h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Percentile(99.9)}
	for i := range exact {
		relErr := math.Abs(float64(got[i])-float64(exact[i])) / float64(exact[i])
		if relErr > 1.0/32+0.001 {
			t.Errorf("percentile %d: hist=%d exact=%d relErr=%.4f > 3.2%%", i, got[i], exact[i], relErr)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: Min = %d", h.Min())
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	h.Observe(20)
	h.Observe(30)
	if got := h.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %d, want 10", got)
	}
	if got := h.Quantile(1); got != 30 {
		t.Errorf("Quantile(1) = %d, want 30", got)
	}

	// An empty histogram reads zero everywhere.
	h = NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty mean/min/max not all zero")
	}
	// Every quantile of one sample is that sample: min/max clamping
	// makes it exact despite the bucket width.
	h.Observe(12345)
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got != 12345 {
			t.Errorf("single-sample Quantile(%v) = %d, want 12345", q, got)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(100)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Observe(5)
	if h.Quantile(0.5) != 5 {
		t.Fatal("histogram unusable after Reset")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 50; i++ {
		a.Observe(i)
	}
	for i := int64(51); i <= 100; i++ {
		b.Observe(i)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged Count = %d, want 100", a.Count())
	}
	if a.Min() != 1 || a.Max() != 100 {
		t.Fatalf("merged Min/Max = %d/%d", a.Min(), a.Max())
	}
	med := a.Percentile(50)
	if med < 47 || med > 53 {
		t.Fatalf("merged median = %d, want ~50", med)
	}
}

func TestHistogramMergePrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogramPrecision(4).Merge(NewHistogramPrecision(5))
}

func TestHistogramPrecisionBounds(t *testing.T) {
	for _, bad := range []uint{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogramPrecision(%d) should panic", bad)
				}
			}()
			NewHistogramPrecision(bad)
		}()
	}
}

// Property: for any sample set, histogram quantiles are within the relative
// error bound of exact quantiles.
func TestPropertyHistogramQuantiles(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogramPrecision(5)
		samples := make([]int64, len(raw))
		for i, v := range raw {
			samples[i] = int64(v)
			h.Observe(int64(v))
		}
		for _, p := range []float64{10, 50, 90, 99} {
			exact := Percentiles(append([]int64(nil), samples...), p)[0]
			got := h.Percentile(p)
			if exact == 0 {
				if got > 1 {
					return false
				}
				continue
			}
			if math.Abs(float64(got)-float64(exact))/float64(exact) > 1.0/32+0.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge(a, b) quantiles equal a histogram fed the union.
func TestPropertyMergeEquivalence(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b, u := NewHistogram(), NewHistogram(), NewHistogram()
		for _, x := range xs {
			a.Observe(int64(x))
			u.Observe(int64(x))
		}
		for _, y := range ys {
			b.Observe(int64(y))
			u.Observe(int64(y))
		}
		a.Merge(b)
		if a.Count() != u.Count() {
			return false
		}
		for _, p := range []float64{25, 50, 75, 99} {
			if a.Percentile(p) != u.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("Gauge = %d, want 7", g.Value())
	}
	if g.Watermark() != 10 {
		t.Fatalf("Watermark = %d, want 10", g.Watermark())
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "Demo", Headers: []string{"name", "value"}}
	tab.AddRow("alpha", 1.5)
	tab.AddRow("b", 22)
	out := tab.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.500") {
		t.Errorf("missing cells in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestPercentilesExact(t *testing.T) {
	s := []int64{5, 1, 3, 2, 4}
	got := Percentiles(s, 20, 40, 60, 80, 100)
	want := []int64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("p%d: got %d, want %d", i, got[i], want[i])
		}
	}
	if got := Percentiles(nil, 50); got[0] != 0 {
		t.Error("empty input should yield zero")
	}
}

func TestHistogramSummaryFormat(t *testing.T) {
	h := NewHistogram()
	h.Observe(2880)
	s := h.Summary()
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "us") {
		t.Errorf("unexpected summary: %s", s)
	}
	const empty = "n=0 mean=0.00us p50=0.00us p95=0.00us p99=0.00us p99.9=0.00us max=0.00us"
	if s := NewHistogram().Summary(); s != empty {
		t.Errorf("empty summary = %q, want %q", s, empty)
	}
}

func TestBucketRoundTrip(t *testing.T) {
	h := NewHistogramPrecision(5)
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1<<40 + 12345} {
		i := h.bucketIndex(v)
		low := h.bucketLow(i)
		if low > v {
			t.Errorf("bucketLow(%d)=%d exceeds value %d", i, low, v)
		}
		// Relative width bound.
		if v >= 32 && float64(v-low)/float64(v) > 1.0/32 {
			t.Errorf("value %d: bucket low %d too far (rel %f)", v, low, float64(v-low)/float64(v))
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b"}}
	tab.AddRow("plain", `with "quotes", and comma`)
	csv := tab.CSV()
	want := "a,b\nplain,\"with \"\"quotes\"\", and comma\"\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", csv, want)
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 50; i++ {
		h.Observe(int64(i))
	}
	c := h.Clone()
	h.Observe(1 << 40)
	if c.Count() != 50 || c.Max() != 49 {
		t.Fatalf("clone mutated by original: n=%d max=%d", c.Count(), c.Max())
	}
	c.Reset()
	if h.Count() != 51 {
		t.Fatal("original mutated by clone reset")
	}
}
