package configcloud

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/torus"
)

// Fig10Config drives the LTL round-trip latency measurement of Fig. 10:
// idle-rate ping/ACK exchanges between FPGA pairs connected through each
// datacenter tier, measured inside the LTL engine ("from the moment the
// header of a packet is generated in LTL until the corresponding ACK for
// that packet is received in LTL"), against the Catapult v1 6x8 torus
// baseline.
type Fig10Config struct {
	Seed     int64
	PingsPer int
	// MeanGap spaces pings out ("we generated LTL traffic at a very low
	// rate to obtain representative idle latencies").
	MeanGap sim.Time
	// BackgroundUtil loads the shared L1/L2 switches with other tenants'
	// traffic ("L1 and L2 results are inevitably affected by other
	// datacenter traffic").
	BackgroundUtil float64
}

// The Fig. 10 measurement: pairs per tier and the ping payload size.
const (
	fig10PairsL0, fig10PairsL1, fig10PairsL2 = 4, 4, 6
	fig10PayloadSize                         = 64
)

// DefaultFig10Config sizes the measurement like the paper's.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Seed:           12,
		PingsPer:       300,
		MeanGap:        50 * sim.Microsecond,
		BackgroundUtil: 0.04,
	}
}

// TierResult summarizes one tier's round-trip latencies.
type TierResult struct {
	Tier      int
	Reachable int // hosts reachable through this tier (the x-axis)
	Avg       sim.Time
	P999      sim.Time
	Max       sim.Time
	Count     uint64
}

// Fig10Result carries all three LTL tiers plus the torus baseline.
type Fig10Result struct {
	Tiers []TierResult
	// Torus baseline (Catapult v1).
	TorusNodes    int
	Torus1HopRTT  sim.Time
	TorusWorstRTT sim.Time
}

// Table renders the figure as text.
func (r Fig10Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   "Fig. 10 — LTL round-trip latency vs reachable hosts",
		Headers: []string{"network", "reachable", "avg RTT", "99.9% RTT", "max RTT"},
	}
	names := []string{"LTL L0 (same TOR)", "LTL L1 (same pod)", "LTL L2 (cross pod)"}
	for i, tr := range r.Tiers {
		t.AddRow(names[i], tr.Reachable, tr.Avg.String(), tr.P999.String(), tr.Max.String())
	}
	t.AddRow("6x8 torus 1-hop", r.TorusNodes, r.Torus1HopRTT.String(), "-", "-")
	t.AddRow("6x8 torus worst", r.TorusNodes, r.TorusWorstRTT.String(), "-", "-")
	return t
}

// Fig10 runs the measurement.
func Fig10(cfg Fig10Config) Fig10Result {
	cloud := New(Options{Seed: cfg.Seed})
	topo := cloud.DC.Config()
	perTOR := topo.HostsPerTOR
	perPod := perTOR * topo.TORsPerPod

	// Build measurement pairs per tier.
	type pair struct{ a, b int }
	tiers := [3][]pair{}
	for i := 0; i < fig10PairsL0; i++ {
		tiers[0] = append(tiers[0], pair{2 * i, 2*i + 1}) // same TOR
	}
	for i := 0; i < fig10PairsL1; i++ {
		tiers[1] = append(tiers[1], pair{i, (i+1)*perTOR + i}) // same pod, different TOR
	}
	for i := 0; i < fig10PairsL2; i++ {
		tiers[2] = append(tiers[2], pair{i, (i*7+3)%topo.Pods*perPod + i}) // across pods
	}

	hists := [3]*metrics.Histogram{
		metrics.NewHistogram(), metrics.NewHistogram(), metrics.NewHistogram(),
	}

	// Open the connection tables and start ping loops.
	conn := uint16(1)
	rng := cloud.Sim.NewRand()
	for tier, ps := range tiers {
		for _, p := range ps {
			a, b := cloud.Node(p.a), cloud.Node(p.b)
			if got := cloud.Tier(p.a, p.b); got != tier {
				panic(fmt.Sprintf("fig10: pair (%d,%d) is tier %d, want %d", p.a, p.b, got, tier))
			}
			myConn := conn
			conn++
			sim.Must(b.Shell.Engine.OpenRecv(myConn, netsim.HostIP(p.a), nil))
			sim.Must(a.Shell.Engine.OpenSend(myConn, netsim.HostIP(p.b), netsim.HostMAC(p.b), myConn, 0, nil))

			h := hists[tier]
			eng := a.Shell.Engine
			payload := make([]byte, fig10PayloadSize)
			remaining := cfg.PingsPer
			var ping func()
			ping = func() {
				if remaining == 0 {
					return
				}
				remaining--
				t0 := cloud.Sim.Now()
				sim.Must(eng.SendMessage(myConn, payload, func() {
					h.Observe(int64(cloud.Sim.Now() - t0))
					gap := sim.Time(rng.ExpFloat64() * float64(cfg.MeanGap))
					cloud.Sim.Schedule(gap, ping)
				}))
			}
			cloud.Sim.Schedule(sim.Time(rng.Intn(int(cfg.MeanGap))), ping)
		}
	}

	// Other datacenter traffic through the same switches.
	if cfg.BackgroundUtil > 0 {
		cloud.DC.StartBackgroundLoad(cfg.BackgroundUtil, pkt.ClassRDMA, 1100)
	}

	cloud.Run(sim.Time(cfg.PingsPer+50) * cfg.MeanGap * 2)

	var res Fig10Result
	for tier, h := range hists {
		res.Tiers = append(res.Tiers, TierResult{
			Tier:      tier,
			Reachable: cloud.DC.ReachableAtTier(tier),
			Avg:       sim.Time(int64(h.Mean())),
			P999:      sim.Time(h.Percentile(99.9)),
			Max:       sim.Time(h.Max()),
			Count:     h.Count(),
		})
	}

	// Torus baseline: the paper's comparison numbers.
	ts := sim.New(cfg.Seed)
	tor := torus.New(ts, torus.DefaultConfig())
	res.TorusNodes = tor.Nodes()
	res.Torus1HopRTT, _, _ = tor.RTT(0, 1, fig10PayloadSize+64)
	res.TorusWorstRTT, _, _ = tor.RTT(tor.Node(0, 0), tor.Node(3, 4), fig10PayloadSize+64)
	return res
}
