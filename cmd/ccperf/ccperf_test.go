package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	cc "repro"
	"repro/internal/kvcache"
	"repro/internal/obs"
	"repro/internal/svclb"
)

// benchmarkFile is the repository's benchmark definition, which this
// package must print exactly.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesPrintedMetrics(t *testing.T) {
	bf := loadBenchmark(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, ccperf %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, ccperf %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, ccperf prints %d", kind, len(file), len(defs))
			return
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], ccperf %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// TestWorkloadsSmoke runs every workload with shortened ops, untraced and
// traced, and checks that each prints every metric BENCHMARK.json names
// with its unit, and that no op fails.
func TestWorkloadsSmoke(t *testing.T) {
	bf := loadBenchmark(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, rep, err := runWorkload(w.Name, true, 1, 200*time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 2 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.Name, trace, res.Failed, res.Attempted, rep.firstErr)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0) && m.Name != "live_heap_mb":
					// Shortened ops may finish before any GC cycle, which is
					// when the live heap is read; TestHeapWatch covers it.
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
	if _, _, err := runWorkload("nope", true, 1, time.Millisecond, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestHeapWatch(t *testing.T) {
	w := watchHeap()
	sampled := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.samples) > 0
	}
	w.during(func() {
		keep := make([]byte, 16<<20)
		// The finalizer that samples the heap runs after a cycle, on its
		// own goroutine: wait for it while still recording.
		for deadline := time.Now().Add(5 * time.Second); !sampled() && time.Now().Before(deadline); {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		runtime.KeepAlive(keep)
	})
	garbage := make([]byte, 64<<20) // live only while not recording
	runtime.GC()
	runtime.KeepAlive(garbage)
	if mb := w.stop(); mb < 16 || mb > 40 {
		t.Errorf("live heap %.1f MiB, want the 16 MiB kept during recording", mb)
	}
}

func TestCheckLB(t *testing.T) {
	ok := svclb.Result{Offered: 10, Admitted: 8, Shed: 2, Completed: 8}
	if err := checkLB(ok); err != nil {
		t.Fatalf("clean result failed: %v", err)
	}
	lost := ok
	lost.Completed = 7 // admitted != completed
	if checkLB(lost) == nil {
		t.Error("admitted != completed passed")
	}
	leak := ok
	leak.Offered = 11 // offered != admitted + shed
	if checkLB(leak) == nil {
		t.Error("offered != admitted + shed passed")
	}
	if checkLB(svclb.Result{}) == nil {
		t.Error("empty run passed")
	}
}

func TestCheckKV(t *testing.T) {
	ok := kvcache.Result{Offered: 10, Completed: 9, Timeouts: 1, FabricReplies: 9, OnFabric: true}
	if err := checkKV(ok); err != nil {
		t.Fatalf("clean result failed: %v", err)
	}
	lost := ok
	lost.Timeouts = 0
	if checkKV(lost) == nil {
		t.Error("completed + timeouts != offered passed")
	}
	host := ok
	host.OnFabric, host.HostRoundTrips = false, 3
	if checkKV(host) == nil {
		t.Error("replies through the host passed")
	}
}

func TestCheckScaleAndDigest(t *testing.T) {
	if err := checkScale(cc.ScaleResult{Pings: 40}, 40); err != nil {
		t.Fatalf("complete run failed: %v", err)
	}
	if checkScale(cc.ScaleResult{Pings: 39}, 40) == nil {
		t.Error("missing ping passed")
	}
	if err := checkDigest(0xabc, 0xabc); err != nil {
		t.Fatalf("equal digests failed: %v", err)
	}
	// Drift across ops of one run, and a parallel scale digest that
	// differs from its one-worker reference, are the same comparison.
	if checkDigest(0xabc, 0xabd) == nil {
		t.Error("digest drift passed")
	}
}

// TestSimDigestDriftFailsOp doctors one op's digest and checks the harness
// counts that op as failed.
func TestSimDigestDriftFailsOp(t *testing.T) {
	calls := 0
	w := simWorkload{
		builds: 1,
		build:  func(int64) func() { return func() {} },
		op: func(int64, opMode) (simOut, error) {
			calls++
			return simOut{digest: uint64(calls)}, nil // every op differs
		},
	}
	rep := &report{metrics: map[string]float64{}}
	if err := runSim(w, 1, time.Millisecond, false, rep); err != nil {
		t.Fatal(err)
	}
	if rep.failed != rep.attempted-1 || rep.attempted < 2 {
		t.Errorf("failed %d of %d ops, want all but the reference", rep.failed, rep.attempted)
	}
}

func TestCheckHTTP(t *testing.T) {
	script := []uint64{1, 2, 3}
	clean := []httpOutcome{{sent: 1, got: 1, status: 200}, {sent: 2, got: 2, status: 503}, {sent: 3, got: 3, status: 200}}
	if n, err := checkHTTP(script, clean); n != 0 {
		t.Fatalf("clean script: %d failed: %v", n, err)
	}
	for _, tc := range []struct {
		name string
		outs []httpOutcome
		want int
	}{
		{"lost", clean[:2], 1},
		{"duplicated", []httpOutcome{clean[0], clean[1], {sent: 3, got: 2, status: 200}}, 2},
		{"crossed", []httpOutcome{{sent: 1, got: 2, status: 200}, {sent: 2, got: 1, status: 200}, clean[2]}, 2},
		{"transport", []httpOutcome{clean[0], {sent: 2, err: errors.New("reset")}, clean[2]}, 1},
		{"status", []httpOutcome{clean[0], {sent: 2, got: 2, status: 500}, clean[2]}, 1},
	} {
		if n, err := checkHTTP(script, tc.outs); n != tc.want || err == nil {
			t.Errorf("%s: %d failed (%v), want %d", tc.name, n, err, tc.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples (9 beyond) reported")
	}
	if _, ok := percentile(seq(100), 95); ok {
		t.Error("p95 of 100 samples (5 beyond) reported")
	}
	if v, ok := percentile(seq(3), 50); !ok || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v", v, ok)
	}
	if v := median(seq(4)); v != 2.5 {
		t.Errorf("median of 1..4 = %v", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread(xs); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestLayerAttribution(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/netsim.(*Switch).InjectNoise":         "netsim",
		"repro/internal/sim/shard.(*Group).step":              "shard",
		"repro/internal/sim.(*Simulation).next":               "sim",
		"repro/internal/workload.(*OpenLoop).fire":            "other",
		"repro.RunScalePoint.func1":                           "other",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/atomic.(*Int32).Load":               "runtime",
		"net/http.(*conn).serve":                              "stdlib_net",
		"encoding/json.(*decodeState).object":                 "stdlib_net",
		"sort.Slice[go.shape.struct { repro/internal/x.T }]":  "other",
		"repro/internal/kvcache.(*Shard).onDatagram":          "kvcache",
		"repro/internal/frontend.(*rtDriver).loop":            "frontend",
		"repro/internal/metrics.(*Histogram).Observe":         "metrics",
		"repro/internal/obs.(*Tracer).StartAt":                "obs",
		"main.runSim":                                         "other",
		"repro/internal/svclb.(*Balancer).submit":             "svclb",
		"repro/internal/haas.(*ResourceManager).poll":         "haas",
		"repro/internal/er.(*Router).Tick":                    "er",
		"repro/internal/ltl.(*Engine).SendMessage":            "ltl",
		"repro/internal/shell.(*Shell).SendDatagram":          "shell",
		"repro/internal/pkt.EncodeUDP":                        "pkt",
		"vendor/golang.org/x/net/http/httpguts.ValidHeaderFi": "stdlib_net",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// A system call is charged to its first caller above the wrappers.
	write := []string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "runtime.entersyscall", "net.(*conn).Write"}
	if got := sampleLayer(write); got != "stdlib_net" {
		t.Errorf("socket write charged to %q", got)
	}
	if got := sampleLayer([]string{"internal/runtime/syscall.Syscall6", "runtime.netpoll"}); got != "runtime" {
		t.Errorf("netpoll charged to %q", got)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Name: "svclb.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 50}, // overlaps the first
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 5, Name: "svclb.request", Start: 0, End: -1}, // still open: skipped
		{ID: 6, Name: "ltl.msg", Start: 5, End: 12},
	}
	got := spanSelfTimes(spans)
	if r := got["svclb.request"]; len(r) != 1 || r[0] != 100-40-10 {
		t.Errorf("svclb.request self = %v, want [50]", r)
	}
	if r := got["ltl.msg"]; len(r) != 1 || r[0] != 7 {
		t.Errorf("ltl.msg self = %v, want [7]", r)
	}
}

// TestCPUSamplesDecodesRealProfile profiles a busy loop and checks the
// decoder finds it as the leaf of most samples.
func TestCPUSamplesDecodesRealProfile(t *testing.T) {
	var prof []profSample
	var sink float64
	if err := profiled(&prof, func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			// A local accumulator keeps the race detector's instrumentation,
			// whose frames do not unwind, out of the loop.
			x := 0.0
			for i := 0; i < 1e5; i++ {
				x += math.Sqrt(float64(i))
			}
			sink += x
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = sink
	var total, mine int64
	for _, s := range prof {
		total += s.n
		for _, fn := range s.stack {
			if strings.Contains(fn, ".TestCPUSamplesDecodesRealProfile") {
				mine += s.n
				break
			}
		}
	}
	if total == 0 || mine*2 < total {
		t.Errorf("%d of %d samples under the busy loop", mine, total)
	}
	if _, err := cpuSamples([]byte("not gzip")); err == nil {
		t.Error("garbage decoded without error")
	}
}
