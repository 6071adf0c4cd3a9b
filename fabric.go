package configcloud

import (
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/sim"
)

// NewSharded builds a cloud exactly as New does.
//
// Deprecated: use New. The pod partition is gone and the int argument is
// ignored. NewSharded remains only because cmd/ccperf, the frozen
// end-to-end benchmark, still calls it; the next change to that
// benchmark drops it.
func NewSharded(opts Options, _ int) *Cloud { return New(opts) }

// FabricPoint is the set-up shared by the fabric-wide experiment points
// (E16, E18c, E19c): seed, down-sized topology, run length, and how the
// run is advanced and observed. Every point runs on one Cloud.
type FabricPoint struct {
	Seed int64
	// Topology dimensions. Zero HostsPerTOR/TORsPerPod mean the paper's
	// (24 hosts/TOR, 40 TORs/pod); Pods must be set.
	Pods        int
	HostsPerTOR int
	TORsPerPod  int
	// Duration is the virtual run time.
	Duration sim.Time
	// Telemetry collects an obs Record for the run; SpanLimit caps the
	// span log (0 = tracer default).
	Telemetry bool
	SpanLimit int
}

// FabricRun is what every fabric point reports about its run.
type FabricRun struct {
	// Events is the kernel's fired-event count: run cost, like Elapsed,
	// so it stays out of Digest.
	Events uint64
	// Deprecated: Crossings is always 0; nothing is partitioned, so no
	// event crosses a partition. It remains only because cmd/ccperf, the
	// frozen end-to-end benchmark, still reads it.
	Crossings uint64
	// Digest folds the point's own values in construction order: two
	// runs agree on the digest iff the simulation behaved identically.
	Digest  uint64
	Elapsed time.Duration
	// Record is the run's telemetry (nil unless Telemetry was set).
	Record *obs.Record
}

// build sets the point's dimensions on topo (which may carry cable-delay
// overrides) and constructs the cloud with shCfg (zero = the default
// shell). It returns the cloud and the topology it was built on.
func (p FabricPoint) build(topo netsim.Config, shCfg shell.Config) (*Cloud, netsim.Config) {
	topo.Pods = p.Pods
	if p.HostsPerTOR > 0 {
		topo.HostsPerTOR = p.HostsPerTOR
	}
	if p.TORsPerPod > 0 {
		topo.TORsPerPod = p.TORsPerPod
	}
	c := New(Options{Seed: p.Seed, Topology: topo, Shell: shCfg, Telemetry: p.Telemetry})
	if ctx := obs.Of(c.Sim); ctx != nil && p.SpanLimit > 0 {
		ctx.Tracer.SetLimit(p.SpanLimit)
	}
	return c, topo
}

// run advances the built cloud for p.Duration, timing it on the wall
// clock. tally folds the point's own values into the digest in a fixed
// order (tallying its result as it goes).
func (p FabricPoint) run(c *Cloud, experiment, label string, tally func(fold func(...uint64))) FabricRun {
	start := time.Now()
	c.Run(p.Duration)
	r := FabricRun{Elapsed: time.Since(start), Events: c.Sim.Fired()}
	h := uint64(obs.FNVOffset)
	tally(func(vs ...uint64) { h = obs.FNVFold(h, vs...) })
	r.Digest = h
	r.Record = obs.Collect(obs.Of(c.Sim), experiment, label)
	return r
}

// wall renders the run's wall-clock time for the tables.
func (r FabricRun) wall() string { return r.Elapsed.Round(time.Millisecond).String() }

// startOffset draws a request chain's first-send jitter in [0, meanGap);
// a zero meanGap means back-to-back requests from time zero.
func startOffset(rng *rand.Rand, meanGap sim.Time) sim.Time {
	if meanGap <= 0 {
		return 0
	}
	return sim.Time(rng.Intn(int(meanGap)))
}

// observe turns on telemetry for a table's point when the process
// exports it (ccexperiment -telemetry), capping the span log. Tracing
// appends spans but schedules nothing, so the digest is the one an
// untraced run gets.
func (p *FabricPoint) observe() {
	p.Telemetry = TelemetryEnabled()
	if p.Telemetry {
		p.SpanLimit = 4096
	}
}
