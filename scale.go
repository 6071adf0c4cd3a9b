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
// datacenter. Each pod carries intra-pod pairs (across two of its TORs)
// and cross-pod pairs into the next pod, so both the per-pod bulk and
// the spine traffic scale with the pod count.
type ScaleConfig struct {
	FabricPoint
	// Deprecated: Workers is ignored; every run is on one goroutine. It
	// remains only because cmd/ccperf, the frozen end-to-end benchmark,
	// still sets it; the next change to that benchmark drops it.
	Workers int
	// Cable-delay overrides (zero = the paper's defaults). L1UplinkProp
	// is the base pod<->spine propagation delay; L2CableSpread adds a
	// per-pod deterministic extra in [0, spread) to each pod's cable.
	// The property tests randomize both.
	L1UplinkProp  sim.Time
	L2CableSpread sim.Time
	// Workload shape. MeanGap 0 sends each pair's pings back to back.
	IntraPairsPerPod int
	CrossPairsPerPod int
	PingsPerPair     int
	MeanGap          sim.Time
	BackgroundUtil   float64
}

// scalePayloadSize is the scale point's ping payload in bytes.
const scalePayloadSize = 128

// DefaultScaleConfig returns the workload shape used by ExpScale,
// sized for the given pod count.
func DefaultScaleConfig(pods int) ScaleConfig {
	return ScaleConfig{
		FabricPoint:      FabricPoint{Seed: 16, Pods: pods, Duration: 25 * sim.Millisecond},
		IntraPairsPerPod: 2,
		CrossPairsPerPod: 2,
		PingsPerPair:     200,
		MeanGap:          50 * sim.Microsecond,
		BackgroundUtil:   0.005,
	}
}

// ScaleResult summarizes one scale run. The digest folds every pair's
// (count, RTT sum, RTT max) in pair order.
type ScaleResult struct {
	FabricRun
	Hosts int // addressable hosts in the topology
	Pings uint64
}

// pairStats accumulates one ping pair's completions.
type pairStats struct {
	count  uint64
	rttSum uint64
	rttMax uint64
}

// RunScalePoint builds the cloud, runs the ping workload for
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
	// fixed by the config.
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

		rng := c.Sim.NewRand()
		st := &stats[pi]
		eng := a.Shell.Engine
		payload := make([]byte, scalePayloadSize)
		// A pair has one ping in flight, so its ping and completion funcs
		// are built once and share t0, the send instant of that ping.
		remaining := cfg.PingsPerPair
		var t0 sim.Time
		var ping func()
		done := func() {
			rtt := uint64(c.Sim.Now() - t0)
			st.count++
			st.rttSum += rtt
			if rtt > st.rttMax {
				st.rttMax = rtt
			}
			gap := sim.Time(rng.ExpFloat64() * float64(cfg.MeanGap))
			c.Sim.Schedule(gap, ping)
		}
		ping = func() {
			if remaining == 0 {
				return
			}
			remaining--
			t0 = c.Sim.Now()
			sim.Must(eng.SendMessage(myConn, payload, done))
		}
		c.Sim.Schedule(startOffset(rng, cfg.MeanGap), ping)
	}

	if cfg.BackgroundUtil > 0 {
		c.DC.StartBackgroundLoad(cfg.BackgroundUtil, pkt.ClassBestEffort, 1100)
	}

	res := ScaleResult{Hosts: topo.Pods * perPod}
	res.FabricRun = cfg.run(c, "scale", fmt.Sprintf("pods=%d", cfg.Pods), func(fold func(...uint64)) {
		for _, st := range stats {
			res.Pings += st.count
			fold(st.count, st.rttSum, st.rttMax)
		}
	})
	return res
}

// ExpScale is experiment E16: sweep the datacenter from one pod toward
// the paper's 250,560 hosts on one kernel, one run per point, reporting
// the work done and the wall-clock time it took.
func ExpScale(scale Scale) *Table {
	podCounts := []int{1, 4, 16, 64, 261}
	if scale == Quick {
		podCounts = []int{1, 2, 4}
	}
	t := &Table{
		Title:   "E16 — Fabric scaling toward 250,560 hosts (one kernel)",
		Headers: []string{"pods", "hosts", "pings", "events", "seq wall"},
	}
	for _, pods := range podCounts {
		cfg := DefaultScaleConfig(pods)
		if scale == Quick { // 32-host pods, a 4 ms run
			cfg.HostsPerTOR = 8
			cfg.TORsPerPod = 4
			cfg.PingsPerPair = 40
			cfg.MeanGap = 20 * sim.Microsecond
			cfg.Duration = 4 * sim.Millisecond
			cfg.BackgroundUtil = 0.01
		}
		cfg.observe()
		r := RunScalePoint(cfg)
		addTelemetry("scale", r.Record)
		t.AddRow(pods, r.Hosts, r.Pings, r.Events, r.wall())
	}
	return t
}
