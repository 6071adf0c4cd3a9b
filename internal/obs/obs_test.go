package obs

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestEnableAttach(t *testing.T) {
	s := sim.New(1)
	if Of(s) != nil || TracerOf(s) != nil || RegistryOf(s) != nil {
		t.Fatal("fresh simulation should have no observability context")
	}
	c := Enable(s)
	if Of(s) != c {
		t.Fatal("Of did not return the attached context")
	}
	if TracerOf(s) != c.Tracer || RegistryOf(s) != c.Registry {
		t.Fatal("TracerOf/RegistryOf mismatch")
	}
}

func TestFlowIDs(t *testing.T) {
	// Same tuple -> same ID; different domains/tuples -> different IDs.
	a := LTLFlow(10, 20, 1, 2)
	if a != LTLFlow(10, 20, 1, 2) {
		t.Fatal("LTLFlow not deterministic")
	}
	if a == LTLFlow(20, 10, 2, 1) {
		t.Fatal("reversed tuple should be a distinct flow")
	}
	ids := map[FlowID]string{
		ReqFlow(7):          "req",
		LeaseFlow(7):        "lease",
		ERFlow(0, 0, 7):     "er",
		LTLFlow(0, 0, 0, 7): "ltl",
	}
	if len(ids) != 4 {
		t.Fatalf("domain collision: %v", ids)
	}
	for f := range ids {
		if f == 0 {
			t.Fatal("flow id 0 is reserved for untraced")
		}
	}
}

func TestTracerSpans(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s)
	flow := ReqFlow(1)
	root := tr.Start(flow, "svclb.request", 0)
	s.Schedule(100, func() {
		child := tr.Start(flow, "ltl.msg", root)
		s.Schedule(50, func() { tr.End(child) })
	})
	s.Schedule(500, func() { tr.EndArg(root, 42) })
	s.Run()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "svclb.request" || spans[0].Start != 0 || spans[0].End != 500 || spans[0].Arg != 42 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID || spans[1].Start != 100 || spans[1].End != 150 {
		t.Fatalf("child span wrong: %+v", spans[1])
	}
}

func TestTracerLimit(t *testing.T) {
	s := sim.New(1)
	tr := NewTracer(s)
	tr.SetLimit(3)
	for i := 0; i < 10; i++ {
		tr.Event(ReqFlow(uint64(i)), "e", 0, 0)
	}
	if len(tr.Spans()) != 3 {
		t.Fatalf("limit not enforced: %d spans", len(tr.Spans()))
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
}

// TestDisabledTracerZeroAlloc is the contract the hot paths rely on: a
// nil tracer must cost zero allocations per call.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	flow := ReqFlow(1)
	allocs := testing.AllocsPerRun(1000, func() {
		id := tr.Start(flow, "x", 0)
		tr.SetArg(id, 1)
		tr.Event(flow, "y", id, 2)
		tr.Range(flow, "z", id, 0, 3)
		tr.End(id)
		tr.EndArg(id, 4)
		_ = tr.Enabled()
		_ = tr.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates: %v allocs/op", allocs)
	}
}

func TestRegistryAggregation(t *testing.T) {
	r := NewRegistry()
	var c1, c2 metrics.Counter
	r.Counter("x.count", "frames", "x", "", &c1)
	r.Counter("x.count", "frames", "x", "", &c2)
	c1.Add(3)
	c2.Add(4)

	h1 := r.Histogram("x.lat", "ns", "x", "", metrics.NewHistogram())
	h2 := r.Histogram("x.lat", "ns", "x", "", metrics.NewHistogram())
	h1.Observe(100)
	h2.Observe(300)

	var g metrics.Gauge
	r.Gauge("x.depth", "jobs", "x", "", &g)
	g.Set(5)
	g.Set(2)

	w := r.Windowed("x.win", "ns", "x", "", metrics.NewWindowed())
	w.Observe(50)
	w.Snapshot() // window cleared; total must still carry the sample

	samples := r.Snapshot()
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	// Sorted by name.
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Name >= samples[i].Name {
			t.Fatalf("snapshot not sorted: %q >= %q", samples[i-1].Name, samples[i].Name)
		}
	}
	byName := map[string]Sample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	if s := byName["x.count"]; s.Kind != "counter" || s.N != 7 {
		t.Fatalf("counter sample wrong: %+v", s)
	}
	if s := byName["x.lat"]; s.Kind != "histogram" || s.N != 2 || s.Max != 300 {
		t.Fatalf("histogram sample wrong: %+v", s)
	}
	if s := byName["x.depth"]; s.Kind != "gauge" || s.V != 2 || s.Peak != 5 {
		t.Fatalf("gauge sample wrong: %+v", s)
	}
	if s := byName["x.win"]; s.N != 1 || s.Max != 50 {
		t.Fatalf("windowed sample wrong: %+v", s)
	}
}

func TestRuntimeMetricsExcludedFromSnapshot(t *testing.T) {
	// Runtime-class metrics describe the host scheduler (park times,
	// horizon gossip), so they are wall-clock-dependent and must stay
	// out of the deterministic Snapshot() that feeds telemetry.
	r := NewRegistry()
	var det, rt metrics.Counter
	var g metrics.Gauge
	r.Counter("x.det", "events", "x", "", &det)
	r.RuntimeCounter("x.rt", "ns", "x", "", &rt)
	r.RuntimeGauge("x.rtg", "ns", "x", "", &g)
	det.Add(1)
	rt.Add(2)
	g.Set(3)

	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Name != "x.det" {
		t.Fatalf("Snapshot = %+v, want only x.det", snap)
	}
	runtime := r.RuntimeSnapshot()
	if len(runtime) != 2 || runtime[0].Name != "x.rt" || runtime[1].Name != "x.rtg" {
		t.Fatalf("RuntimeSnapshot = %+v, want x.rt and x.rtg", runtime)
	}
	if runtime[0].N != 2 || runtime[1].V != 3 {
		t.Fatalf("runtime sample values wrong: %+v", runtime)
	}

	// Aggregation still merges runtime entries registered under one name.
	var rt2 metrics.Counter
	r.RuntimeCounter("x.rt", "ns", "x", "", &rt2)
	rt2.Add(10)
	if s := r.RuntimeSnapshot()[0]; s.N != 12 {
		t.Fatalf("aggregated runtime counter = %d, want 12", s.N)
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	var c metrics.Counter
	r.Counter("a", "", "", "", &c) // must not panic
	r.Gauge("b", "", "", "", &metrics.Gauge{})
	r.Histogram("c", "", "", "", metrics.NewHistogram())
	r.Windowed("d", "", "", "", metrics.NewWindowed())
	if r.Snapshot() != nil || r.Len() != 0 {
		t.Fatal("nil registry should be empty")
	}
}

func makeRecord() *Record {
	s := sim.New(42)
	c := Enable(s)
	var cnt metrics.Counter
	c.Registry.Counter("ltl.frames_sent", "frames", "ltl", "frames put on the wire", &cnt)
	cnt.Add(9)
	h := c.Registry.Histogram("svclb.latency", "ns", "svclb", "", metrics.NewHistogram())
	h.Observe(1500)
	h.Observe(2500)

	flow := ReqFlow(77)
	root := c.Tracer.Start(flow, "svclb.request", 0)
	s.Schedule(200, func() {
		c.Tracer.Event(flow, "ltl.tx", root, 3)
	})
	s.Schedule(900, func() { c.Tracer.End(root) })
	// One open span: request still in flight at run end.
	c.Tracer.Start(ReqFlow(78), "svclb.request", 0)
	s.Run()
	return Collect(c, "svclb", "clients=24")
}

// TestTelemetryRoundTrip is the satellite encoder/decoder test: a
// record must survive Encode -> Decode unchanged, and re-encoding the
// decoded form must produce identical bytes.
func TestTelemetryRoundTrip(t *testing.T) {
	rec := makeRecord()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d records, want 1", len(got))
	}
	d := got[0]
	if d.Experiment != rec.Experiment || d.Point != rec.Point || d.Seed != rec.Seed || d.Dropped != rec.Dropped {
		t.Fatalf("header mismatch: %+v vs %+v", d, rec)
	}
	if len(d.Metrics) != len(rec.Metrics) || len(d.Spans) != len(rec.Spans) {
		t.Fatalf("count mismatch: %d/%d metrics, %d/%d spans",
			len(d.Metrics), len(rec.Metrics), len(d.Spans), len(rec.Spans))
	}
	for i := range rec.Metrics {
		if d.Metrics[i] != rec.Metrics[i] {
			t.Fatalf("metric %d mismatch:\n got %+v\nwant %+v", i, d.Metrics[i], rec.Metrics[i])
		}
	}
	for i := range rec.Spans {
		if d.Spans[i] != rec.Spans[i] {
			t.Fatalf("span %d mismatch:\n got %+v\nwant %+v", i, d.Spans[i], rec.Spans[i])
		}
	}
	var buf2 bytes.Buffer
	if err := d.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoding a decoded record changed the bytes")
	}
}

func TestDecodeTruncated(t *testing.T) {
	rec := makeRecord()
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	trunc := strings.Join(lines[:len(lines)-1], "\n")
	if _, err := Decode(strings.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream should fail the completeness check")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := makeRecord().Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := makeRecord().Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed records encoded to different bytes")
	}
}

func TestWaterfall(t *testing.T) {
	rec := makeRecord()
	fls := Flows(rec.Spans)
	if len(fls) != 2 {
		t.Fatalf("got %d flows, want 2", len(fls))
	}
	// Slowest first: the closed 0..900 request beats the open one.
	if fls[0].Duration != 900 || fls[0].Spans != 2 || fls[0].Open != 0 {
		t.Fatalf("flow summary wrong: %+v", fls[0])
	}
	if fls[1].Open != 1 {
		t.Fatalf("open flow not detected: %+v", fls[1])
	}
	out := Waterfall(rec.Spans, 2)
	for _, want := range []string{"svclb.request", "ltl.tx", "…open", "arg=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("waterfall missing %q:\n%s", want, out)
		}
	}
}
