package configcloud

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// ScaleConfig drives one point of the E16 scale experiment: an LTL
// ping workload spread across every pod of a (possibly down-sized)
// datacenter, run on the pod-sharded conservative-parallel kernel.
// Each pod carries intra-pod pairs (across two of its TORs) and
// cross-pod pairs into the next pod, so both the parallel bulk and the
// serializing spine traffic scale with the pod count.
type ScaleConfig struct {
	Seed int64
	// Topology dimensions. Zero HostsPerTOR/TORsPerPod mean the paper's
	// (24 hosts/TOR, 40 TORs/pod); Pods must be set.
	Pods        int
	HostsPerTOR int
	TORsPerPod  int
	// Cable-delay overrides (zero = the paper's defaults). L1UplinkProp
	// is the base pod<->spine propagation delay — the sharded kernel's
	// lookahead; L2CableSpread adds a per-pod deterministic extra in
	// [0, spread) to each pod's cable, which changes the model's delays
	// but not the lookahead (the extra only adds). The property tests
	// randomize both.
	L1UplinkProp  sim.Time
	L2CableSpread sim.Time
	// Workload shape.
	IntraPairsPerPod int
	CrossPairsPerPod int
	PingsPerPair     int
	PayloadSize      int
	MeanGap          sim.Time
	BackgroundUtil   float64
	Duration         sim.Time
	// Workers is the goroutine count advancing the shards (0 = one per
	// core). The digest is worker-count-independent by construction.
	Workers int
	// Telemetry collects a merged obs Record for the run; SpanLimit
	// caps each shard's span log (0 = tracer default).
	Telemetry bool
	SpanLimit int
}

// DefaultScaleConfig returns the workload shape used by ExpScale,
// sized for the given pod count.
func DefaultScaleConfig(pods int) ScaleConfig {
	return ScaleConfig{
		Seed:             16,
		Pods:             pods,
		IntraPairsPerPod: 2,
		CrossPairsPerPod: 2,
		PingsPerPair:     200,
		PayloadSize:      128,
		MeanGap:          50 * sim.Microsecond,
		BackgroundUtil:   0.005,
		Duration:         25 * sim.Millisecond,
	}
}

// ScaleResult summarizes one sharded run.
type ScaleResult struct {
	Workers   int
	Hosts     int // addressable hosts in the topology
	Pings     uint64
	Events    uint64
	Crossings uint64
	Rounds    uint64
	// Digest folds every pair's (count, RTT sum, RTT max) in pair order
	// plus the event and crossing totals: two runs agree on the digest
	// iff the simulation behaved identically.
	Digest  uint64
	Elapsed time.Duration
	// Record is the merged telemetry (nil unless ScaleConfig.Telemetry).
	Record *obs.Record
}

// pairStats accumulates one ping pair's completions; updated only on
// the sending host's shard.
type pairStats struct {
	count  uint64
	rttSum uint64
	rttMax uint64
}

// RunScalePoint builds the sharded cloud, runs the ping workload for
// cfg.Duration, and returns counters, digest, and wall-clock time.
func RunScalePoint(cfg ScaleConfig) ScaleResult {
	topo := netsim.DefaultConfig()
	topo.Pods = cfg.Pods
	if cfg.HostsPerTOR > 0 {
		topo.HostsPerTOR = cfg.HostsPerTOR
	}
	if cfg.TORsPerPod > 0 {
		topo.TORsPerPod = cfg.TORsPerPod
	}
	if cfg.L1UplinkProp > 0 {
		topo.L1Uplink.Prop = cfg.L1UplinkProp
	}
	if cfg.L2CableSpread > 0 {
		topo.L2CableSpread = cfg.L2CableSpread
	}
	c := NewSharded(Options{
		Seed:      cfg.Seed,
		Topology:  topo,
		Telemetry: cfg.Telemetry,
	}, cfg.Workers)
	if cfg.SpanLimit > 0 {
		for _, ctx := range c.Obs {
			ctx.Tracer.SetLimit(cfg.SpanLimit)
		}
	}

	perTOR := topo.HostsPerTOR
	perPod := perTOR * topo.TORsPerPod

	// Pair construction order is fixed (pod-major, intra before cross),
	// so connection IDs, RNG streams, and the digest fold order are all
	// independent of the worker count.
	type pair struct{ a, b int }
	var pairs []pair
	for p := 0; p < topo.Pods; p++ {
		base := p * perPod
		for i := 0; i < cfg.IntraPairsPerPod; i++ {
			pairs = append(pairs, pair{base + i, base + perTOR + i})
		}
		next := (p + 1) % topo.Pods
		for i := 0; i < cfg.CrossPairsPerPod; i++ {
			pairs = append(pairs, pair{
				base + 2*perTOR + i,
				next*perPod + 2*perTOR + perTOR/2 + i,
			})
		}
	}

	stats := make([]pairStats, len(pairs))
	conn := uint16(1)
	for pi, pr := range pairs {
		a, b := c.Node(pr.a), c.Node(pr.b)
		myConn := conn
		conn++
		must(b.Shell.Engine.OpenRecv(myConn, netsim.HostIP(pr.a), nil))
		must(a.Shell.Engine.OpenSend(myConn, netsim.HostIP(pr.b), netsim.HostMAC(pr.b), myConn, 0, nil))

		// The pair's RNG and clock both live on the sender's shard: every
		// draw and every timestamp is taken by the shard that owns the
		// sending engine, never by a shared stream a different worker
		// interleaving could reorder.
		ps := c.SimForHost(pr.a)
		rng := ps.NewRand()
		st := &stats[pi]
		eng := a.Shell.Engine
		payload := make([]byte, cfg.PayloadSize)
		remaining := cfg.PingsPerPair
		var ping func()
		ping = func() {
			if remaining == 0 {
				return
			}
			remaining--
			t0 := ps.Now()
			must(eng.SendMessage(myConn, payload, func() {
				rtt := uint64(ps.Now() - t0)
				st.count++
				st.rttSum += rtt
				if rtt > st.rttMax {
					st.rttMax = rtt
				}
				gap := sim.Time(rng.ExpFloat64() * float64(cfg.MeanGap))
				ps.Schedule(gap, ping)
			}))
		}
		ps.Schedule(sim.Time(rng.Intn(int(cfg.MeanGap))), ping)
	}

	if cfg.BackgroundUtil > 0 {
		c.DC.StartBackgroundLoad(cfg.BackgroundUtil, pkt.ClassBestEffort, 1100)
	}

	start := time.Now()
	c.Run(cfg.Duration)
	elapsed := time.Since(start)

	res := ScaleResult{
		Workers:   c.Group.Workers(),
		Hosts:     topo.Pods * perPod,
		Events:    c.Fired(),
		Crossings: c.Group.Crossings,
		Rounds:    c.Group.Rounds,
		Elapsed:   elapsed,
	}
	h := uint64(14695981039346656037)
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, st := range stats {
		res.Pings += st.count
		fold(st.count)
		fold(st.rttSum)
		fold(st.rttMax)
	}
	fold(res.Events)
	fold(res.Crossings)
	res.Digest = h

	if cfg.Telemetry {
		// The point label deliberately omits the worker count: a parallel
		// run's telemetry must be byte-identical to the sequential run's.
		res.Record = obs.CollectGroup(c.Obs, "scale",
			fmt.Sprintf("pods=%d", cfg.Pods), cfg.Seed)
	}
	return res
}

// scaleWorkers resolves the parallel worker count for ExpScale: the
// -shards flag when set, else one worker per core — but never fewer
// than two, so the parallel rows exercise the concurrent path (and the
// digest comparison stays meaningful) even on a single-core machine.
func scaleWorkers() int {
	if n := Shards(); n > 0 {
		return n
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 2
	}
	return w
}

// ExpScale is experiment E16: sweep the datacenter from one pod toward
// the paper's 250,560 hosts, running every point twice — sequentially
// (one worker) and on all cores — and report the wall-clock speedup of
// the conservative-parallel kernel alongside proof (digest equality)
// that parallelism changed nothing but the wall clock.
func ExpScale(scale Scale) *Table {
	podCounts := []int{1, 4, 16, 64, 261}
	mk := DefaultScaleConfig
	if scale == Quick {
		podCounts = []int{1, 2, 4}
		mk = func(pods int) ScaleConfig {
			cfg := DefaultScaleConfig(pods)
			cfg.HostsPerTOR = 8
			cfg.TORsPerPod = 4
			cfg.PingsPerPair = 40
			cfg.MeanGap = 20 * sim.Microsecond
			cfg.Duration = 4 * sim.Millisecond
			cfg.BackgroundUtil = 0.01
			return cfg
		}
	}
	workers := scaleWorkers()

	t := &Table{
		Title: fmt.Sprintf("E16 — Sharded kernel scaling (sequential vs %d workers; identical = bit-equal digests)", workers),
		Headers: []string{"pods", "hosts", "pings", "events", "crossings",
			"seq wall", "par wall", "speedup", "identical"},
	}
	for _, pods := range podCounts {
		cfg := mk(pods)
		cfg.Workers = 1
		seq := RunScalePoint(cfg)
		// Telemetry rides the parallel run only: the sequential run's
		// record would be byte-identical (that equality is enforced by
		// TestShardedScaleDeterminism), so collecting both just duplicates
		// records. Tracing appends spans but schedules nothing, so the
		// traced run's digest still matches the untraced sequential one.
		cfg.Telemetry = TelemetryEnabled()
		if cfg.Telemetry {
			cfg.SpanLimit = 4096
		}
		cfg.Workers = workers
		par := RunScalePoint(cfg)
		addTelemetry("scale", par.Record)
		t.AddRow(pods, seq.Hosts, seq.Pings, seq.Events, seq.Crossings,
			seq.Elapsed.Round(time.Millisecond).String(),
			par.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(seq.Elapsed)/float64(par.Elapsed)),
			seq.Digest == par.Digest && seq.Pings == par.Pings)
	}
	return t
}

// ExpScaleCurve is the second E16 table: an events/sec-per-core scaling
// curve on one fixed datacenter, sweeping the worker count 1→4. Every
// row pays one barrier round per lookahead window, so the curve exposes
// the per-event coordination overhead against the core budget. Every
// row's digest must equal the first row's: the worker count is a
// wall-clock-only knob.
func ExpScaleCurve(scale Scale) *Table {
	pods := 16
	mk := DefaultScaleConfig
	if scale == Quick {
		pods = 2
		mk = func(p int) ScaleConfig {
			cfg := DefaultScaleConfig(p)
			cfg.HostsPerTOR = 8
			cfg.TORsPerPod = 4
			cfg.PingsPerPair = 40
			cfg.MeanGap = 20 * sim.Microsecond
			cfg.Duration = 4 * sim.Millisecond
			cfg.BackgroundUtil = 0.01
			return cfg
		}
	}

	t := &Table{
		Title: fmt.Sprintf("E16b — Events/sec-per-core scaling curve (%d pods; identical = digest equals 1 worker)", pods),
		Headers: []string{"workers", "events", "rounds", "wall",
			"events/sec", "ev/s/core", "vs 1 worker", "identical"},
	}
	// Unmeasured warm-up run: the first point on a cold machine gets a
	// turbo/cold-cache bonus of tens of percent, which would silently
	// flatter the 1-worker baseline.
	{
		cfg := mk(pods)
		cfg.Workers = 1
		RunScalePoint(cfg)
	}

	var refDigest uint64
	var baseline float64
	for _, workers := range []int{1, 2, 4} {
		cfg := mk(pods)
		cfg.Workers = workers
		r := RunScalePoint(cfg)
		evs := float64(r.Events) / r.Elapsed.Seconds()
		if baseline == 0 {
			baseline, refDigest = evs, r.Digest
		}
		t.AddRow(workers, r.Events, r.Rounds,
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", evs),
			fmt.Sprintf("%.0f", evs/float64(workers)),
			fmt.Sprintf("%.2fx", evs/baseline),
			r.Digest == refDigest)
	}
	return t
}
