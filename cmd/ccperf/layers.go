package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// metricDef names one printed metric and its unit. Units starting with
// "v" (vus, vms) are virtual time on the simulated clock; every other
// time unit is host wall or CPU time.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured untraced. Every
// workload reports every one (see README.md for what an op is in each).
// Times of simulation work are host-speed adjusted (see slowdown).
var endToEnd = []metricDef{
	{"setup_s", "s"},        // median time to build the system under test
	{"run_s", "s"},          // median wall time of one op
	{"cpu_s", "s"},          // process CPU time (user+sys) per op
	{"live_heap_mb", "MiB"}, // live heap's 75th percentile over the GC cycles of timed work
}

// hostLayers are the layers CPU samples are charged to (see sampleLayer),
// in report order; "other" takes whatever maps to none of them.
var hostLayers = []string{
	"sim", "shard", "pkt", "netsim", "er", "ltl", "shell", "haas", "svclb",
	"kvcache", "frontend", "obs", "metrics", "stdlib_net", "runtime", "other",
}

// tracedSpans are the request-path spans whose virtual self time is
// reported at p50 and p99.
var tracedSpans = []string{
	"svclb.request", "svclb.queue", "svclb.service", "ltl.msg", "net.hop",
	"net.qwait", "kvcache.request", "kvcache.shard", "frontend.request",
}

// perLayer lists the traced run's metrics. A workload that never
// exercises a layer reports 0 for it; so does a tail percentile with
// fewer than minTail samples beyond it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"go.alloc_mb_per_op", "MiB"},
		{"go.allocs_per_op", "count"},
		{"go.gc_cpu_frac", "fraction"},
		{"go.gc_cycles_per_op", "count"},
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l, "fraction"})
	}
	defs = append(defs,
		metricDef{"net.tx_frames_per_op", "count"},
		metricDef{"net.queue_delay_p99_us", "vus"},
		metricDef{"ltl.retransmits", "count"},
		metricDef{"ltl.message_rtt_p99_us", "vus"},
		metricDef{"shell.dgrams_sent_per_op", "count"},
		metricDef{"shell.pcie_reqs", "count"},
		metricDef{"kvcache.hit_rate", "fraction"},
		metricDef{"kvcache.store_evictions", "count"},
		metricDef{"svclb.shed_frac", "fraction"},
		metricDef{"sim.req_p99_us", "vus"},
	)
	for _, s := range tracedSpans {
		defs = append(defs,
			metricDef{"span." + s + ".self_p50_us", "vus"},
			metricDef{"span." + s + ".self_p99_us", "vus"})
	}
	defs = append(defs,
		metricDef{"sim.events_per_s", "1/s"},
		metricDef{"shard.crossings_per_event", "ratio"},
		metricDef{"http.slo_frac", "fraction"},
	)
	for _, st := range httpStages {
		for _, stat := range []string{"p50", "p99", "mean"} {
			defs = append(defs, metricDef{"http." + st.name + "_ms_" + stat, st.unit})
		}
	}
	return append(defs, metricDef{"trace.overhead", "ratio"})
}()

// hostShares charges each CPU sample to a layer and records every
// layer's share of all samples, keyed "host.<layer>".
func hostShares(prof []profSample, into map[string]float64) {
	var total int64
	by := map[string]int64{}
	for _, s := range prof {
		by[sampleLayer(s.stack)] += s.n
		total += s.n
	}
	if total == 0 {
		return
	}
	for _, l := range hostLayers {
		into["host."+l] = float64(by[l]) / float64(total)
	}
}

// topFuncs returns the n functions with the most leaf samples, as
// "share layer function" lines, for reading a traced run by eye.
func topFuncs(prof []profSample, n int) []string {
	var total int64
	by := map[string]int64{}
	for _, s := range prof {
		if len(s.stack) > 0 {
			by[s.stack[0]] += s.n
		}
		total += s.n
	}
	names := make([]string, 0, len(by))
	for fn := range by {
		names = append(names, fn)
	}
	sort.Slice(names, func(i, j int) bool {
		if by[names[i]] != by[names[j]] {
			return by[names[i]] > by[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, fn := range names {
		layer := layerOf(fn)
		if syscallWrapper(funcPackage(fn)) {
			layer = "syscall" // charged to its caller's layer in host.*
		}
		out[i] = fmt.Sprintf("%6.2f%% %-10s %s", 100*float64(by[fn])/float64(total), layer, fn)
	}
	return out
}

// sampleLayer charges a sample to its leaf frame's layer (pprof's "flat"
// attribution). A leaf inside a system-call wrapper is charged instead to
// its first caller outside the wrappers and the runtime, so socket reads
// and writes count as the network stack's rather than the runtime's.
func sampleLayer(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if !syscallWrapper(funcPackage(stack[0])) {
		return layerOf(stack[0])
	}
	for _, fn := range stack[1:] {
		if l := layerOf(fn); !syscallWrapper(funcPackage(fn)) && l != "runtime" {
			return l
		}
	}
	return "runtime"
}

func syscallWrapper(pkg string) bool {
	switch pkg {
	case "syscall", "internal/poll", "internal/runtime/syscall", "runtime/internal/syscall", "internal/syscall/unix":
		return true
	}
	return false
}

// layerOf maps a profiled function name to its host layer.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		if rest == "sim/shard" {
			return "shard"
		}
		for _, l := range hostLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime", pkg == "sync", pkg == "sync/atomic",
		strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "internal/sync":
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "bufio", pkg == "encoding/json", strings.HasPrefix(pkg, "mime"),
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "stdlib_net"
	}
	return "other"
}

// funcPackage returns the import path of a Go symbol name such as
// "repro/internal/netsim.(*Switch).InjectNoise" or "runtime.mallocgc".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may carry paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// recordLayers reads the modelled per-layer counters out of one op's
// telemetry record.
func recordLayers(rec *obs.Record, into map[string]float64) {
	if rec == nil {
		return
	}
	by := map[string]obs.Sample{}
	for _, s := range rec.Metrics {
		by[s.Name] = s
	}
	n := func(name string) float64 { return float64(by[name].N) }
	into["net.tx_frames_per_op"] = n("net.tx_frames")
	into["net.queue_delay_p99_us"] = float64(by["net.queue_delay"].P99) / 1e3
	into["ltl.retransmits"] = n("ltl.retransmits")
	into["ltl.message_rtt_p99_us"] = float64(by["ltl.message_rtt"].P99) / 1e3
	into["shell.dgrams_sent_per_op"] = n("shell.dgrams_sent")
	into["shell.pcie_reqs"] = n("shell.pcie_reqs")
	if looked := n("kvcache.hits") + n("kvcache.misses"); looked > 0 {
		into["kvcache.hit_rate"] = n("kvcache.hits") / looked
	}
	into["kvcache.store_evictions"] = n("kvcache.store_evictions")
	if off := n("svclb.offered"); off > 0 {
		into["svclb.shed_frac"] = n("svclb.shed") / off
	}
	for name, self := range spanSelfTimes(rec.Spans) {
		if p, ok := percentile(self, 50); ok {
			into["span."+name+".self_p50_us"] = p / 1e3
		}
		if p, ok := percentile(self, 99); ok {
			into["span."+name+".self_p99_us"] = p / 1e3
		}
	}
}

// spanSelfTimes returns, for each span name in tracedSpans, the virtual
// self time (ns) of every closed span of that name: its duration minus
// the part of it that its child spans cover.
func spanSelfTimes(spans []obs.Span) map[string][]float64 {
	want := map[string]bool{}
	for _, s := range tracedSpans {
		want[s] = true
	}
	type iv struct{ lo, hi int64 }
	kids := map[obs.SpanID][]iv{}
	for _, sp := range spans {
		if sp.Parent != 0 && sp.End > sp.Start {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	out := map[string][]float64{}
	for _, sp := range spans {
		if !want[sp.Name] || sp.End < sp.Start {
			continue
		}
		cs := kids[sp.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, reach := int64(0), sp.Start
		for _, c := range cs {
			lo, hi := max(c.lo, reach), min(c.hi, sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[sp.Name] = append(out[sp.Name], float64(sp.End-sp.Start-covered))
	}
	return out
}
