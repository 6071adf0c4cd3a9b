// Package obs is the unified observability layer for the Configurable
// Cloud reproduction: a span-style tracer keyed on virtual time, a
// process-wide metrics registry, and a JSONL telemetry exporter.
//
// The paper's operational argument (§VI–§VII) is that a cloud-scale
// acceleration fabric is only deployable if tail latency can be
// attributed to a specific layer — an LTL retransmit, an ER credit
// stall, a HaaS lease revocation — rather than observed as an opaque
// end-to-end number. This package provides that attribution for the
// simulated fabric: a request entering svclb/LTL/ER/HaaS opens a span
// carrying a FlowID through packet fields (the same flight-state
// mechanism the hot path already uses), with child spans per network
// hop, retransmit, and queue wait.
//
// # Attachment
//
// Observability is per-simulation and off by default. Enable attaches a
// Context (Tracer + Registry) to a sim.Simulation via its opaque
// ObsData slot; components look the tracer up once at construction:
//
//	tr := obs.TracerOf(s) // nil when observability is disabled
//
// A nil *Tracer is valid and inert: every method nil-checks the
// receiver first, so the disabled hot path costs one pointer compare
// and zero allocations (guarded by BenchmarkNetsimHotPathObsOff and
// TestDisabledTracerZeroAlloc).
//
// # Flows
//
// A FlowID names one logical activity across subsystems. IDs are FNV-1a
// hashes with a domain tag so the same tuple computed at the sender and
// the receiver yields the same ID without any side channel:
//
//	ReqFlow(reqID)                           service request end-to-end
//	LTLFlow(srcIP, dstIP, srcConn, dstConn)  one LTL connection
//	ERFlow(routerID, srcNode, msgID)         one ER message
//	LeaseFlow(leaseID)                       one HaaS lease
//
// Spans on the same FlowID — opened by different packages that never
// import each other — are correlated at render time (see Waterfall).
package obs

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Context bundles the per-simulation observability state. It is attached
// to a sim.Simulation with Enable and retrieved with Of/TracerOf/
// RegistryOf.
type Context struct {
	Sim      *sim.Simulation
	Tracer   *Tracer
	Registry *Registry
}

// Enable creates a Context with a default-capacity Tracer and an empty
// Registry, attaches it to s, and returns it. It must be called before
// the instrumented components (datacenter, shells, balancer, ...) are
// constructed: they cache the tracer pointer at construction time.
func Enable(s *sim.Simulation) *Context {
	c := &Context{
		Sim:      s,
		Tracer:   NewTracer(s),
		Registry: NewRegistry(),
	}
	s.SetObsData(c)
	return c
}

// Of returns the Context attached to s, or nil when observability is
// disabled.
func Of(s *sim.Simulation) *Context {
	if s == nil {
		return nil
	}
	c, _ := s.ObsData().(*Context)
	return c
}

// TracerOf returns the tracer attached to s, or nil when observability
// is disabled. A nil tracer is safe to use (all methods are no-ops).
func TracerOf(s *sim.Simulation) *Tracer {
	if c := Of(s); c != nil {
		return c.Tracer
	}
	return nil
}

// RegistryOf returns the registry attached to s, or nil when
// observability is disabled. A nil registry is safe to use.
func RegistryOf(s *sim.Simulation) *Registry {
	if c := Of(s); c != nil {
		return c.Registry
	}
	return nil
}

// FlowID identifies one logical activity (request, connection, message,
// lease) across subsystems. Zero means "untraced".
type FlowID uint64

// FNVOffset is the FNV-1a offset basis: the state FNVFold starts from.
const FNVOffset = 14695981039346656037

const fnvPrime = 1099511628211

// FNVFold folds 64-bit words, in order, into an FNV-1a state byte by
// byte, least significant byte first. Every determinism digest in the
// repository is built with it.
func FNVFold(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	return h
}

// nonzero coerces a hash away from the reserved "untraced" value.
func nonzero(h uint64) FlowID {
	if h == 0 {
		return FlowID(1)
	}
	return FlowID(h)
}

// Domain tags keep flow namespaces disjoint: the same numeric tuple in
// two domains must not collide into one flow.
const (
	domReq   = 0x01
	domLTL   = 0x02
	domER    = 0x03
	domLease = 0x04
)

// ReqFlow returns the flow ID for a service-level request. The request
// ID travels in the first 8 payload bytes of svclb requests, so both the
// balancer and the backend can recompute the same flow.
func ReqFlow(reqID uint64) FlowID {
	return nonzero(FNVFold(FNVOffset, domReq, reqID))
}

// LTLFlow returns the flow ID for one direction of an LTL connection.
// All inputs are header fields, so sender and receiver derive the same
// ID from the frame alone. Request and response directions are distinct
// flows (the tuple is reversed); service-level spans correlate them.
func LTLFlow(srcIP, dstIP uint32, srcConn, dstConn uint16) FlowID {
	h := FNVFold(FNVOffset, domLTL, uint64(srcIP)<<32|uint64(dstIP), uint64(srcConn)<<16|uint64(dstConn))
	return nonzero(h)
}

// ERFlow returns the flow ID for one message through an ER router.
// routerID disambiguates the per-shell routers (terminal node IDs and
// message IDs restart at zero in every shell).
func ERFlow(routerID int, srcNode int, msgID uint64) FlowID {
	h := FNVFold(FNVOffset, domER, uint64(uint32(routerID))<<32|uint64(uint32(srcNode)), msgID)
	return nonzero(h)
}

// LeaseFlow returns the flow ID for one HaaS lease.
func LeaseFlow(leaseID uint64) FlowID {
	return nonzero(FNVFold(FNVOffset, domLease, leaseID))
}

// IPHost derives the host ID from an address under the simulation's
// 10.0.0.0/8 convention (netsim.HostIP(id) == 0x0a000000 + id). Kept
// here so packages below netsim can label spans with host IDs without
// an import cycle; pinned against netsim by an external test.
func IPHost(ip uint32) int { return int(ip - 0x0a000000) }

// Sample is one named metric reading produced by Registry.Snapshot.
// Exactly one of the value groups is populated, per Kind.
type Sample struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"` // "counter", "gauge", "histogram"
	Unit string  `json:"unit,omitempty"`
	Pkg  string  `json:"pkg,omitempty"`
	Help string  `json:"help,omitempty"`
	N    uint64  `json:"n"`              // counter value or histogram count
	Mean float64 `json:"mean,omitempty"` // histogram only
	P50  int64   `json:"p50,omitempty"`
	P95  int64   `json:"p95,omitempty"`
	P99  int64   `json:"p99,omitempty"`
	Max  int64   `json:"max,omitempty"`
	V    int64   `json:"v,omitempty"` // gauge value
	Peak int64   `json:"peak,omitempty"`
}

// Registry aggregates named metrics registered by subsystem components.
// Many components may register under the same name (every LTL engine
// registers "ltl.frames_sent"); Snapshot sums counters and merges
// histograms across registrants, so names behave like process-wide
// series even though each source stays a plain struct field on its
// owner — existing report code keeps reading those fields directly.
//
// Registration order does not affect Snapshot output (samples are
// sorted by name; merge is commutative), so parallel sweep points that
// each build their own Registry stay deterministic.
type Registry struct {
	entries map[string]*entry
}

type entry struct {
	unit, pkg, help string
	// runtime marks wall-clock-dependent series: real diagnostics,
	// but not pure functions of the seed. They are excluded from
	// Snapshot — and therefore from telemetry, which must stay
	// byte-identical across same-seed runs — and read via
	// RuntimeSnapshot instead.
	runtime  bool
	counters []*metrics.Counter
	gauges   []*metrics.Gauge
	hists    []*metrics.Histogram
	windows  []*metrics.Windowed
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) entryFor(name, unit, pkg, help string) *entry {
	if r == nil {
		return nil
	}
	e := r.entries[name]
	if e == nil {
		e = &entry{unit: unit, pkg: pkg, help: help}
		r.entries[name] = e
	}
	return e
}

// Counter registers c under name. Nil-safe; returns c for chaining.
func (r *Registry) Counter(name, unit, pkg, help string, c *metrics.Counter) *metrics.Counter {
	if e := r.entryFor(name, unit, pkg, help); e != nil {
		e.counters = append(e.counters, c)
	}
	return c
}

// Gauge registers g under name. Nil-safe; returns g for chaining.
func (r *Registry) Gauge(name, unit, pkg, help string, g *metrics.Gauge) *metrics.Gauge {
	if e := r.entryFor(name, unit, pkg, help); e != nil {
		e.gauges = append(e.gauges, g)
	}
	return g
}

// Histogram registers h under name. All histograms sharing a name must
// share precision (default precision everywhere in this repo). Nil-safe.
func (r *Registry) Histogram(name, unit, pkg, help string, h *metrics.Histogram) *metrics.Histogram {
	if e := r.entryFor(name, unit, pkg, help); e != nil {
		e.hists = append(e.hists, h)
	}
	return h
}

// Windowed registers w's cumulative total under name. Nil-safe.
func (r *Registry) Windowed(name, unit, pkg, help string, w *metrics.Windowed) *metrics.Windowed {
	if e := r.entryFor(name, unit, pkg, help); e != nil {
		e.windows = append(e.windows, w)
	}
	return w
}

// RuntimeCounter registers c under name as a runtime-class series:
// wall-clock-dependent, excluded from Snapshot (and telemetry), read
// via RuntimeSnapshot. Nil-safe; returns c for chaining.
func (r *Registry) RuntimeCounter(name, unit, pkg, help string, c *metrics.Counter) *metrics.Counter {
	if e := r.entryFor(name, unit, pkg, help); e != nil {
		e.runtime = true
		e.counters = append(e.counters, c)
	}
	return c
}

// RuntimeGauge registers g under name as a runtime-class series (see
// RuntimeCounter). Nil-safe; returns g for chaining.
func (r *Registry) RuntimeGauge(name, unit, pkg, help string, g *metrics.Gauge) *metrics.Gauge {
	if e := r.entryFor(name, unit, pkg, help); e != nil {
		e.runtime = true
		e.gauges = append(e.gauges, g)
	}
	return g
}

// Snapshot reads every registered deterministic metric and returns one
// Sample per name, sorted by name. Counters sharing a name are summed;
// histograms are merged; gauges sum values and take the max watermark.
// Runtime-class series (RuntimeCounter/RuntimeGauge) are excluded:
// telemetry built from Snapshot stays a pure function of the seed.
func (r *Registry) Snapshot() []Sample { return r.snapshot(false) }

// RuntimeSnapshot reads the runtime-class (wall-clock-dependent)
// series only, for interactive display and debugging.
func (r *Registry) RuntimeSnapshot() []Sample { return r.snapshot(true) }

func (r *Registry) snapshot(runtime bool) []Sample {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		if r.entries[n].runtime == runtime {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]Sample, 0, len(names))
	for _, n := range names {
		e := r.entries[n]
		s := Sample{Name: n, Unit: e.unit, Pkg: e.pkg, Help: e.help}
		switch {
		case len(e.counters) > 0:
			s.Kind = "counter"
			for _, c := range e.counters {
				s.N += c.Value()
			}
		case len(e.gauges) > 0:
			s.Kind = "gauge"
			for _, g := range e.gauges {
				s.V += g.Value()
				if g.Watermark() > s.Peak {
					s.Peak = g.Watermark()
				}
			}
		default:
			s.Kind = "histogram"
			m := metrics.NewHistogram()
			for _, h := range e.hists {
				m.Merge(h)
			}
			for _, w := range e.windows {
				m.Merge(w.Total())
			}
			s.N = m.Count()
			s.Mean = m.Mean()
			s.P50 = m.Percentile(50)
			s.P95 = m.Percentile(95)
			s.P99 = m.Percentile(99)
			s.Max = m.Max()
		}
		out = append(out, s)
	}
	return out
}

// Len returns the number of distinct registered names.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}
