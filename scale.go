package configcloud

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/shell"
	"repro/internal/sim"
)

// ScaleConfig drives one point of the E16 scale experiment: an LTL
// ping workload spread across every pod of a (possibly down-sized)
// datacenter, run on the pod-sharded conservative-parallel kernel.
// Each pod carries intra-pod pairs (across two of its TORs) and
// cross-pod pairs into the next pod, so both the parallel bulk and the
// serializing spine traffic scale with the pod count.
type ScaleConfig struct {
	ShardedPoint
	// Cable-delay overrides (zero = the paper's defaults). L1UplinkProp
	// is the base pod<->spine propagation delay — the sharded kernel's
	// lookahead; L2CableSpread adds a per-pod deterministic extra in
	// [0, spread) to each pod's cable, which changes the model's delays
	// but not the lookahead (the extra only adds). The property tests
	// randomize both.
	L1UplinkProp  sim.Time
	L2CableSpread sim.Time
	// Workload shape. MeanGap 0 sends each pair's pings back to back.
	IntraPairsPerPod int
	CrossPairsPerPod int
	PingsPerPair     int
	PayloadSize      int
	MeanGap          sim.Time
	BackgroundUtil   float64
}

// DefaultScaleConfig returns the workload shape used by ExpScale,
// sized for the given pod count.
func DefaultScaleConfig(pods int) ScaleConfig {
	return ScaleConfig{
		ShardedPoint:     ShardedPoint{Seed: 16, Pods: pods, Duration: 25 * sim.Millisecond},
		IntraPairsPerPod: 2,
		CrossPairsPerPod: 2,
		PingsPerPair:     200,
		PayloadSize:      128,
		MeanGap:          50 * sim.Microsecond,
		BackgroundUtil:   0.005,
	}
}

// scaleConfig is E16's point at the given sizing: Quick shrinks the pods
// to 32 hosts and the run to 4 ms.
func scaleConfig(pods int, scale Scale) ScaleConfig {
	cfg := DefaultScaleConfig(pods)
	if scale == Quick {
		cfg.HostsPerTOR = 8
		cfg.TORsPerPod = 4
		cfg.PingsPerPair = 40
		cfg.MeanGap = 20 * sim.Microsecond
		cfg.Duration = 4 * sim.Millisecond
		cfg.BackgroundUtil = 0.01
	}
	return cfg
}

// ScaleResult summarizes one sharded run. The digest folds every pair's
// (count, RTT sum, RTT max) in pair order.
type ScaleResult struct {
	ShardedRun
	Hosts int // addressable hosts in the topology
	Pings uint64
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
	if cfg.L1UplinkProp > 0 {
		topo.L1Uplink.Prop = cfg.L1UplinkProp
	}
	if cfg.L2CableSpread > 0 {
		topo.L2CableSpread = cfg.L2CableSpread
	}
	c, topo := cfg.build(topo, shell.Config{})

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
		sim.Must(b.Shell.Engine.OpenRecv(myConn, netsim.HostIP(pr.a), nil))
		sim.Must(a.Shell.Engine.OpenSend(myConn, netsim.HostIP(pr.b), netsim.HostMAC(pr.b), myConn, 0, nil))

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
			sim.Must(eng.SendMessage(myConn, payload, func() {
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
		ps.Schedule(startOffset(rng, cfg.MeanGap), ping)
	}

	if cfg.BackgroundUtil > 0 {
		c.DC.StartBackgroundLoad(cfg.BackgroundUtil, pkt.ClassBestEffort, 1100)
	}

	res := ScaleResult{Hosts: topo.Pods * perPod}
	res.ShardedRun = cfg.run(c, "scale", fmt.Sprintf("pods=%d", cfg.Pods), func(fold func(...uint64)) {
		for _, st := range stats {
			res.Pings += st.count
			fold(st.count, st.rttSum, st.rttMax)
		}
	})
	return res
}

// ExpScale is experiment E16: sweep the datacenter from one pod toward
// the paper's 250,560 hosts, running every point twice — sequentially
// (one worker) and on all cores — and report the wall-clock speedup of
// the conservative-parallel kernel alongside proof (digest equality)
// that parallelism changed nothing but the wall clock.
func ExpScale(scale Scale) *Table {
	podCounts := []int{1, 4, 16, 64, 261}
	if scale == Quick {
		podCounts = []int{1, 2, 4}
	}
	t := &Table{
		Title: fmt.Sprintf("E16 — Sharded kernel scaling (sequential vs %d workers; identical = bit-equal digests)", scaleWorkers()),
		Headers: []string{"pods", "hosts", "pings", "events", "crossings",
			"seq wall", "par wall", "speedup", "identical"},
	}
	for _, pods := range podCounts {
		cfg := scaleConfig(pods, scale)
		seq, par := seqVsPar(&cfg.ShardedPoint, func() ScaleResult { return RunScalePoint(cfg) })
		addTelemetry("scale", par.Record)
		t.AddRow(pods, seq.Hosts, seq.Pings, seq.Events, seq.Crossings, seq.wall(), par.wall(),
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
	if scale == Quick {
		pods = 2
	}
	t := &Table{
		Title: fmt.Sprintf("E16b — Events/sec-per-core scaling curve (%d pods; identical = digest equals 1 worker)", pods),
		Headers: []string{"workers", "events", "rounds", "wall",
			"events/sec", "ev/s/core", "vs 1 worker", "identical"},
	}
	// Unmeasured warm-up run: the first point on a cold machine gets a
	// turbo/cold-cache bonus of tens of percent, which would silently
	// flatter the 1-worker baseline.
	cfg := scaleConfig(pods, scale)
	cfg.Workers = 1
	RunScalePoint(cfg)

	var refDigest uint64
	var baseline float64
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		r := RunScalePoint(cfg)
		evs := float64(r.Events) / r.Elapsed.Seconds()
		if baseline == 0 {
			baseline, refDigest = evs, r.Digest
		}
		t.AddRow(workers, r.Events, r.Rounds, r.wall(),
			fmt.Sprintf("%.0f", evs),
			fmt.Sprintf("%.0f", evs/float64(workers)),
			fmt.Sprintf("%.2fx", evs/baseline),
			r.Digest == refDigest)
	}
	return t
}
