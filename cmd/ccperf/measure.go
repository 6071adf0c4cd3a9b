package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opCost is the host cost of one timed stretch of work.
type opCost struct {
	wall, cpu float64 // seconds
	allocMB   float64 // heap bytes allocated, MiB
	allocs    float64 // heap objects allocated
	gcCycles  float64
	gcCPU     float64 // runtime's estimate of GC CPU seconds
	totalCPU  float64 // runtime's estimate of all CPU seconds (same basis)
	slowdown  float64 // host slowdown around the stretch (see slowdown)
}

// counters is one reading of the process's cumulative cost counters.
type counters struct {
	at      time.Time
	cpu     float64
	samples []metrics.Sample
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() counters {
	c := counters{samples: make([]metrics.Sample, len(runtimeNames))}
	for i, n := range runtimeNames {
		c.samples[i].Name = n
	}
	metrics.Read(c.samples)
	c.cpu = processCPU()
	c.at = time.Now()
	return c
}

// since returns the cost accrued between c and now.
func (c counters) since() opCost {
	now := readCounters()
	d := func(i int) float64 {
		a, b := c.samples[i].Value, now.samples[i].Value
		switch a.Kind() {
		case metrics.KindUint64:
			return float64(b.Uint64() - a.Uint64())
		case metrics.KindFloat64:
			return b.Float64() - a.Float64()
		}
		return 0 // metric unsupported by this Go release
	}
	return opCost{
		wall:     now.at.Sub(c.at).Seconds(),
		cpu:      now.cpu - c.cpu,
		allocMB:  d(0) / (1 << 20),
		allocs:   d(1),
		gcCycles: d(2),
		gcCPU:    d(3),
		totalCPU: d(4),
	}
}

// measure runs fn once from a freshly collected heap and returns its cost.
func measure(fn func()) opCost {
	runtime.GC()
	c := readCounters()
	fn()
	return c.since()
}

// processCPU is the process's user+sys CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// Host-speed adjustment. This benchmark's reference host is a shared
// microVM whose speed for allocation- and cache-heavy Go code drifts by up
// to 2x over minutes as other tenants come and go, moving every wall and
// CPU time of a simulation run together. A fixed reference kernel doing
// the same kind of work, timed just before and just after each measured
// stretch, moves with it (run-to-run spread of a 20 s kv-rw run: 33% raw,
// under 5% adjusted); dividing by its slowdown leaves the part of a time
// that belongs to the code under test.

// refNominal is refKernel's wall time on the reference host (2-vCPU Xeon,
// GOMAXPROCS=2) when undisturbed, so adjusted times read as seconds there.
const refNominal = 0.015

// refSamples is how many reference timings are taken on each side of a
// measured stretch.
const refSamples = 3

type refNode struct {
	next *refNode
	pad  [6]uint64
}

var refSink uint64

// refKernel allocates ~11 MiB of small linked objects, so the collector
// runs, and chases random pointers through them, so caches miss: the
// simulator's event loop does the same kind of work. It never changes with
// the code under test.
func refKernel() {
	r := rand.New(rand.NewSource(1))
	ns := make([]*refNode, 200_000)
	for i := range ns {
		ns[i] = &refNode{pad: [6]uint64{uint64(i)}}
	}
	for _, n := range ns {
		n.next = ns[r.Intn(len(ns))]
	}
	p := ns[0]
	for i := 0; i < 400_000; i++ {
		refSink += p.pad[0]
		p = p.next
	}
}

// refTimes times refKernel refSamples times.
func refTimes() []float64 {
	ts := make([]float64, refSamples)
	for i := range ts {
		ts[i] = measure(refKernel).wall
	}
	return ts
}

// slowdown is the host's slowdown over a stretch bracketed by reference
// timings: 1 on an undisturbed reference host, above 1 when running slow.
func slowdown(before, after []float64) float64 {
	return median(append(append([]float64(nil), before...), after...)) / refNominal
}

// heapWatch samples the live heap once per GC cycle while the system
// under test runs (not the reference kernel), from a finalizer that
// re-arms itself. It reports the samples' 75th percentile. The peak is
// one extreme cycle and moved by a third from run to run on lb-noise; the
// median falls on kv-rw's cache-fill ramp and moved 5%; the 75th
// percentile moved about 1% on every simulation workload. The finalizer
// reads the latest cycle's figure when it runs, so a late finalizer can
// only report a cycle at least as recent as the one it was armed for.
type heapWatch struct {
	recording atomic.Bool
	stopped   atomic.Bool

	mu      sync.Mutex
	samples []float64 // live heap after each cycle, MiB
}

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

// during runs fn with recording on. A nil watch just runs fn.
func (w *heapWatch) during(fn func()) {
	if w == nil {
		fn()
		return
	}
	w.recording.Store(true)
	defer w.recording.Store(false)
	fn()
}

func (w *heapWatch) arm() {
	// Finalizers do not run for tiny allocations; 16 bytes is not tiny.
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) {
		if w.recording.Load() {
			s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
			metrics.Read(s)
			w.mu.Lock()
			w.samples = append(w.samples, float64(s[0].Value.Uint64())/(1<<20))
			w.mu.Unlock()
		}
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

// stop ends the watch and returns the 75th percentile of the live heap in
// MiB (0 if no cycle ran while recording).
func (w *heapWatch) stop() float64 {
	w.stopped.Store(true)
	w.mu.Lock()
	defer w.mu.Unlock()
	return quantile(w.samples, 0.75)
}

// profiled runs fn under the CPU profiler and appends its samples to
// prof. The profile covers fn alone, not the caller's set-up or GC.
func profiled(prof *[]profSample, fn func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	got, err := cpuSamples(buf.Bytes())
	if err != nil {
		return err
	}
	*prof = append(*prof, got...)
	return nil
}

// goLayers summarises the runtime's share of a set of ops, per op.
func goLayers(costs []opCost, perOp float64, into map[string]float64) {
	var alloc, allocs, cycles, gc, total float64
	for _, c := range costs {
		alloc += c.allocMB
		allocs += c.allocs
		cycles += c.gcCycles
		gc += c.gcCPU
		total += c.totalCPU
	}
	if perOp <= 0 {
		return
	}
	into["go.alloc_mb_per_op"] = alloc / perOp
	into["go.allocs_per_op"] = allocs / perOp
	into["go.gc_cycles_per_op"] = cycles / perOp
	if total > 0 {
		into["go.gc_cpu_frac"] = gc / total
	}
}
