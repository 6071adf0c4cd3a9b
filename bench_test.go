// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out
// and micro-benchmarks of the hot substrates. Custom metrics carry the
// reproduced quantities (latencies in µs, ratios as plain numbers) so
// `go test -bench=. -benchmem` regenerates the paper's headline numbers.
package configcloud

import (
	"math/rand"
	"testing"

	"repro/internal/board"
	"repro/internal/cryptoflow"
	"repro/internal/dnnpool"
	"repro/internal/er"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/ranking"
	"repro/internal/reliability"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/svclb"
	"repro/internal/torus"
)

// ---- Experiment benches (E1-E12) ----

func BenchmarkFig5ShellArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = shell.AreaTable().String()
	}
	b.ReportMetric(float64(shell.AreaUsed())/float64(shell.TotalALMs)*100, "%device-used")
	b.ReportMetric(float64(shell.ShellALMs())/float64(shell.TotalALMs)*100, "%device-shell")
}

func BenchmarkSec2PowerVirus(b *testing.B) {
	var r board.Result
	for i := 0; i < b.N; i++ {
		r = board.Evaluate(board.PowerVirus(), board.WorstCase())
	}
	b.ReportMetric(r.TotalW, "watts")
	b.ReportMetric(r.JunctionC, "junctionC")
}

func BenchmarkSec2Reliability(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var seus int
	for i := 0; i < b.N; i++ {
		r := reliability.Run(rng, reliability.BedServers, reliability.BedDays,
			reliability.ObservedRates())
		seus = r.SEUs
	}
	b.ReportMetric(float64(seus), "seu-flips/month")
}

func benchSweepConfig() ranking.SweepConfig {
	cfg := ranking.DefaultSweepConfig()
	cfg.QueriesPer = 5000
	cfg.PoolSize = 400
	cfg.Points = 8
	return cfg
}

func BenchmarkFig6RankingLatencyThroughput(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		gain = ranking.Fig6(benchSweepConfig()).ThroughputGain
	}
	b.ReportMetric(gain, "throughput-gain-x") // paper: 2.25
}

func benchProductionConfig() ranking.ProductionConfig {
	cfg := ranking.DefaultProductionConfig()
	cfg.Servers = 3
	cfg.DayLength = 1 * sim.Second
	cfg.Days = 3
	cfg.PoolSize = 300
	return cfg
}

func BenchmarkFig7ProductionFiveDay(b *testing.B) {
	var res ranking.ProductionResult
	for i := 0; i < b.N; i++ {
		res = ranking.Production(benchProductionConfig())
	}
	swPeak, fpgaPeak := sim.Time(0), sim.Time(0)
	for _, w := range res.Software {
		if w.P999 > swPeak {
			swPeak = w.P999
		}
	}
	for _, w := range res.FPGA {
		if w.P999 > fpgaPeak {
			fpgaPeak = w.P999
		}
	}
	b.ReportMetric(float64(swPeak)/float64(res.TargetLatency), "sw-peak-p999-x")
	b.ReportMetric(float64(fpgaPeak)/float64(res.TargetLatency), "fpga-peak-p999-x")
}

func BenchmarkFig8LoadVsLatency(b *testing.B) {
	var res ranking.ProductionResult
	for i := 0; i < b.N; i++ {
		res = ranking.Production(benchProductionConfig())
	}
	// The Fig. 8 claim: the FPGA DC absorbs the full offered load (its
	// balancer never caps) while the software DC sheds at peaks, and FPGA
	// p99.9 stays at or below software's at every admitted load level.
	var swAdmitted, swShed, fpgaShed float64
	for _, w := range res.Software {
		swAdmitted += w.Load
		swShed += float64(w.Shed)
	}
	for _, w := range res.FPGA {
		fpgaShed += float64(w.Shed)
	}
	window := 0.2 // seconds per window in this config (cfg.Window)
	b.ReportMetric(swShed/(swShed+swAdmitted*window)*100, "sw-shed-%")
	b.ReportMetric(fpgaShed, "fpga-shed-queries") // paper shape: zero
}

func BenchmarkSec4Crypto(b *testing.B) {
	cm := cryptoflow.DefaultCostModel()
	enc := cryptoflow.NewTap(cm)
	dec := cryptoflow.NewTap(cm)
	flow := cryptoflow.FlowKey{
		Src: netsim.HostIP(0), Dst: netsim.HostIP(1), SrcPort: 1, DstPort: 1,
	}
	id, _ := enc.AddFlow(flow, cryptoflow.AESCBC128SHA1, []byte("0123456789abcdef"))
	_ = dec.AddFlowWithID(flow, cryptoflow.AESCBC128SHA1, []byte("0123456789abcdef"), id)
	payload := make([]byte, 1400)
	buf := pkt.EncodeUDP(netsim.HostMAC(0), netsim.HostMAC(1), netsim.HostIP(0),
		netsim.HostIP(1), 1, 1, pkt.ClassBestEffort, 64, 0, payload)
	f, _ := pkt.Decode(buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cbuf, _ := enc.Process(shell.HostToNet, buf, f)
		cf, _ := pkt.Decode(cbuf)
		if out, _ := dec.Process(shell.NetToHost, cbuf, cf); out == nil {
			b.Fatal("auth failure")
		}
	}
	b.SetBytes(int64(len(payload)))
	b.ReportMetric(cm.SoftwareCores(cryptoflow.AESCBC128SHA1, 40e9, true), "sw-cores-cbc")
	b.ReportMetric(cm.FPGALatency(cryptoflow.AESCBC128SHA1, 1500).Micros(), "fpga-us/1500B")
}

func BenchmarkFig10LTLLatency(b *testing.B) {
	cfg := DefaultFig10Config()
	cfg.PingsPer = 150
	var res Fig10Result
	for i := 0; i < b.N; i++ {
		res = Fig10(cfg)
	}
	b.ReportMetric(res.Tiers[0].Avg.Micros(), "L0-rtt-us")    // paper: 2.88
	b.ReportMetric(res.Tiers[1].Avg.Micros(), "L1-rtt-us")    // paper: 7.72
	b.ReportMetric(res.Tiers[2].Avg.Micros(), "L2-rtt-us")    // paper: 18.71
	b.ReportMetric(res.Tiers[2].Max.Micros(), "L2-max-us")    // paper: <= 23.5
	b.ReportMetric(res.Torus1HopRTT.Micros(), "torus1h-us")   // paper: ~1
	b.ReportMetric(res.TorusWorstRTT.Micros(), "torusmax-us") // paper: ~7
}

func BenchmarkFig11RemoteRanking(b *testing.B) {
	rtts := MeasureLTLRTTs(8, 1, 200)
	cfg := benchSweepConfig()
	cfg.RemoteRTT = func(rng *rand.Rand) sim.Time { return rtts[rng.Intn(len(rtts))] }
	var res ranking.Fig11Result
	for i := 0; i < b.N; i++ {
		res = ranking.Fig11(cfg)
	}
	b.ReportMetric(res.RemoteOverheadAtNominal*100, "remote-overhead-%")
}

func BenchmarkFig12Oversubscription(b *testing.B) {
	cfg := dnnpool.DefaultConfig()
	cfg.Clients = 12
	cfg.Duration = 200 * sim.Millisecond
	cfg.Warmup = 40 * sim.Millisecond
	var base dnnpool.Result
	var pts []dnnpool.Result
	for i := 0; i < b.N; i++ {
		base, pts = dnnpool.Fig12(cfg, []int{12, 4, 2})
	}
	b.ReportMetric(float64(pts[0].Avg)/float64(base.Avg), "avg-x-local@1:1")
	b.ReportMetric(float64(pts[len(pts)-1].P99)/float64(base.P99), "p99-x-local@6:1")
	b.ReportMetric(cfg.KneeClientsPerFPGA(), "knee-clients/fpga") // paper: 22.5
}

func BenchmarkSvcLBP2CPool(b *testing.B) {
	// One balancer run at the knee region: p2c + admission over a 2-FPGA
	// HaaS pool at 12 clients/FPGA (E14's headline operating point).
	cfg := svclb.DefaultConfig()
	cfg.Clients = 24
	cfg.Warmup = 30 * sim.Millisecond
	cfg.Duration = 150 * sim.Millisecond
	var r svclb.Result
	for i := 0; i < b.N; i++ {
		r = svclb.Run(cfg)
	}
	b.ReportMetric(r.P99.Micros(), "p99-us")
	b.ReportMetric(r.Goodput*100, "goodput-%")
}

func BenchmarkSec5HaaS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ExpHaaS().String()
	}
}

func BenchmarkSec5LTLLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ExpLTLLoss(Quick).String()
	}
}

// ---- Ablation benches ----

// BenchmarkAblationElasticCredits quantifies the ER's elastic credit
// pool ("a pool of credits ... shared among multiple VCs, which is
// effective in reducing the aggregate flit buffering requirements"):
// across a two-router on-chip link, the credit-return loop spans several
// cycles, so a statically partitioned buffer gives each VC a window
// smaller than the bandwidth-delay product while the elastic pool lets
// one hot VC use the whole buffer. Measured: completion time of a bulk
// transfer on a single VC with the same total buffering.
func BenchmarkAblationElasticCredits(b *testing.B) {
	run := func(elastic bool) sim.Time {
		s := sim.New(1)
		mk := func(name string, route func(int) int) *er.Router {
			cfg := er.DefaultConfig()
			cfg.Name = name
			cfg.Ports = 2 // 0: terminal, 1: inter-router link
			cfg.VCs = 8   // static share: 1 flit/VC; elastic: pool of 8
			cfg.BufFlits = 8
			cfg.Elastic = elastic
			cfg.Route = route
			return er.New(s, cfg)
		}
		// Node ids: 0 = terminal on router A, 1 = terminal on router B.
		a := mk("a", func(dst int) int {
			if dst == 0 {
				return 0
			}
			return 1
		})
		c := mk("c", func(dst int) int {
			if dst == 1 {
				return 0
			}
			return 1
		})
		er.Connect(a, 1, c, 1)
		src := er.NewTerminal(s, a, 0, 0, 16)
		dstT := er.NewTerminal(s, c, 0, 1, 16)
		var done sim.Time
		left := 16
		dstT.OnMessage = func(*er.Message) {
			left--
			if left == 0 {
				done = s.Now()
			}
		}
		payload := make([]byte, 32*32)
		for i := 0; i < 16; i++ {
			src.Send(1, 0, payload) // all on VC 0
		}
		s.RunFor(10 * sim.Millisecond)
		if left != 0 {
			b.Fatalf("elastic=%v: %d messages missing", elastic, left)
		}
		return done
	}
	var elastic, static sim.Time
	for i := 0; i < b.N; i++ {
		elastic = run(true)
		static = run(false)
	}
	b.ReportMetric(elastic.Micros(), "elastic-us")
	b.ReportMetric(static.Micros(), "static-us")
	b.ReportMetric(float64(static)/float64(elastic), "speedup-x")
}

// BenchmarkAblationNACK compares loss recovery with NACK fast
// retransmission against timeout-only recovery.
func BenchmarkAblationNACK(b *testing.B) {
	run := func(disableNACK bool) float64 {
		shCfg := shell.DefaultConfig()
		shCfg.LTL.DisableNACK = disableNACK
		cloud := New(Options{Seed: 31, Shell: shCfg})
		a, c := cloud.Node(0), cloud.Node(1)
		a.Shell.SetEgressLossRate(0.03)
		sim.Must(c.Shell.Engine.OpenRecv(2, netsim.HostIP(0), nil))
		sim.Must(a.Shell.Engine.OpenSend(2, netsim.HostIP(1), netsim.HostMAC(1), 2, 0, nil))
		h := metrics.NewHistogram()
		payload := make([]byte, 512)
		var send func(i int)
		send = func(i int) {
			if i >= 400 {
				return
			}
			t0 := cloud.Sim.Now()
			sim.Must(a.Shell.Engine.SendMessage(2, payload, func() {
				h.Observe(int64(cloud.Sim.Now() - t0))
			}))
			cloud.Sim.Schedule(20*Microsecond, func() { send(i + 1) })
		}
		cloud.Sim.Schedule(0, func() { send(0) })
		cloud.Run(100 * Millisecond)
		return float64(h.Percentile(99)) / 1000
	}
	var withNack, without float64
	for i := 0; i < b.N; i++ {
		withNack = run(false)
		without = run(true)
	}
	b.ReportMetric(withNack, "p99-us-nack")
	b.ReportMetric(without, "p99-us-timeout-only")
}

// BenchmarkAblationLossless compares LTL on its PFC-protected lossless
// class against riding the lossy best-effort class through a congested
// egress.
func BenchmarkAblationLossless(b *testing.B) {
	run := func(class pkt.TrafficClass) (retransmits uint64) {
		shCfg := shell.DefaultConfig()
		shCfg.LTL.Class = class
		cloud := New(Options{Seed: 33, Shell: shCfg})
		a, c := cloud.Node(0), cloud.Node(1)
		// Congest the TOR->host1 egress with best-effort bulk traffic.
		bulk := cloud.Node(2)
		for i := 0; i < 3000; i++ {
			bulk.Host.SendUDPRaw(c.Host.IP(), 5, 5, pkt.ClassBestEffort, make([]byte, 1400))
		}
		sim.Must(c.Shell.Engine.OpenRecv(2, netsim.HostIP(0), nil))
		sim.Must(a.Shell.Engine.OpenSend(2, netsim.HostIP(1), netsim.HostMAC(1), 2, 0, nil))
		delivered := 0
		for i := 0; i < 200; i++ {
			sim.Must(a.Shell.Engine.SendMessage(2, make([]byte, 800), func() { delivered++ }))
		}
		cloud.Run(200 * Millisecond)
		if delivered != 200 {
			b.Fatalf("class %d: delivered %d/200", class, delivered)
		}
		return a.Shell.Engine.Stats.Retransmits.Value()
	}
	var lossless, lossy uint64
	for i := 0; i < b.N; i++ {
		lossless = run(pkt.ClassLTL)
		lossy = run(pkt.ClassBestEffort)
	}
	b.ReportMetric(float64(lossless), "retransmits-lossless")
	b.ReportMetric(float64(lossy), "retransmits-lossy")
}

// BenchmarkAblationDCQCN measures incast behavior with and without
// end-to-end congestion control: PFC pause pressure on the fabric.
func BenchmarkAblationDCQCN(b *testing.B) {
	run := func(dcqcn bool) (pfcIssued uint64) {
		shCfg := shell.DefaultConfig()
		shCfg.LTL.DCQCN = dcqcn
		cloud := New(Options{Seed: 35, Shell: shCfg})
		dst := cloud.Node(0)
		const senders = 6
		for i := 1; i <= senders; i++ {
			src := cloud.Node(i)
			conn := uint16(i)
			sim.Must(dst.Shell.Engine.OpenRecv(conn, netsim.HostIP(i), nil))
			sim.Must(src.Shell.Engine.OpenSend(conn, netsim.HostIP(0), netsim.HostMAC(0), conn, 0, nil))
			for m := 0; m < 1500; m++ {
				sim.Must(src.Shell.Engine.SendMessage(conn, make([]byte, 1400), nil))
			}
		}
		cloud.Run(50 * Millisecond)
		tor := cloud.DC.TOR(0, 0)
		return tor.Stats().PFCIssued.Value()
	}
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(float64(with), "pfc-pauses-dcqcn")
	b.ReportMetric(float64(without), "pfc-pauses-no-dcqcn")
}

// BenchmarkAblationFailureDomain contrasts failure blast radius: in the
// 6x8 torus a single node failure degrades neighbors' routes; in the
// bump-in-the-wire architecture it affects only its own server.
func BenchmarkAblationFailureDomain(b *testing.B) {
	var torusAffected, bumpAffected int
	for i := 0; i < b.N; i++ {
		// Torus: fail one node, count other pairs whose route changed.
		s := sim.New(1)
		tor := torus.New(s, torus.DefaultConfig())
		victim := tor.Node(2, 3)
		type key struct{ a, b int }
		before := map[key]int{}
		for a := 0; a < tor.Nodes(); a++ {
			for c := 0; c < tor.Nodes(); c++ {
				if a == victim || c == victim || a == c {
					continue
				}
				p, _, _ := tor.Route(a, c)
				before[key{a, c}] = len(p)
			}
		}
		tor.Fail(victim)
		torusAffected = 0
		for k, n := range before {
			p, rerouted, ok := tor.Route(k.a, k.b)
			if !ok || rerouted || len(p) != n {
				torusAffected++
			}
		}
		// Bump-in-the-wire: one FPGA down cuts off exactly its own host.
		bumpAffected = 1
	}
	b.ReportMetric(float64(torusAffected), "torus-pairs-affected")
	b.ReportMetric(float64(bumpAffected), "bump-hosts-affected")
}

// ---- Micro-benchmarks of the hot substrates ----

func BenchmarkPktEncodeDecode(b *testing.B) {
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		buf := pkt.EncodeUDP(netsim.HostMAC(0), netsim.HostMAC(1), netsim.HostIP(0),
			netsim.HostIP(1), 1, 2, pkt.ClassLTL, 64, uint16(i), payload)
		if _, err := pkt.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimScheduling(b *testing.B) {
	s := sim.New(1)
	for i := 0; i < b.N; i++ {
		s.Schedule(sim.Time(i%1000), func() {})
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
}

func BenchmarkLTLSameTORMessage(b *testing.B) {
	cloud := New(Options{Seed: 41})
	a, c := cloud.Node(0), cloud.Node(1)
	sim.Must(c.Shell.Engine.OpenRecv(2, netsim.HostIP(0), nil))
	sim.Must(a.Shell.Engine.OpenSend(2, netsim.HostIP(1), netsim.HostMAC(1), 2, 0, nil))
	payload := make([]byte, 256)
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Must(a.Shell.Engine.SendMessage(2, payload, func() { done++ }))
		cloud.Run(10 * Microsecond)
	}
	b.StopTimer()
	cloud.Run(Millisecond)
	if done != b.N {
		b.Fatalf("completed %d/%d", done, b.N)
	}
	b.ReportMetric(a.Shell.Engine.Stats.MessageRTT.Mean()/1000, "rtt-us")
}

func BenchmarkRankingFeatures(b *testing.B) {
	sy := ranking.NewSynthesizer(rand.New(rand.NewSource(1)))
	w := sy.NewWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranking.RankWorkload(w)
	}
}

func BenchmarkLTLEngineThroughput(b *testing.B) {
	// Raw engine message rate through the full packet-level shell+TOR
	// path, window-limited.
	cloud := New(Options{Seed: 43})
	a, c := cloud.Node(0), cloud.Node(1)
	sim.Must(c.Shell.Engine.OpenRecv(2, netsim.HostIP(0), nil))
	sim.Must(a.Shell.Engine.OpenSend(2, netsim.HostIP(1), netsim.HostMAC(1), 2, 0, nil))
	payload := make([]byte, 1400)
	b.SetBytes(1400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Must(a.Shell.Engine.SendMessage(2, payload, nil))
		if i%64 == 0 {
			cloud.Run(100 * Microsecond)
		}
	}
	cloud.Run(100 * Millisecond)
}

// ---- Fabric scale point (E16) ----

// BenchmarkScalePoint runs the E16 ping workload across 8 pods and fails
// if a run's digest differs from the first run's — CI's cheap probe that
// a fabric-wide run replays a seed exactly.
func BenchmarkScalePoint(b *testing.B) {
	cfg := DefaultScaleConfig(8)
	cfg.HostsPerTOR = 8
	cfg.TORsPerPod = 4
	cfg.PingsPerPair = 60
	cfg.MeanGap = 20 * Microsecond
	cfg.Duration = 5 * Millisecond
	cfg.BackgroundUtil = 0.02
	ref := RunScalePoint(cfg)
	b.ResetTimer()
	var r ScaleResult
	for i := 0; i < b.N; i++ {
		r = RunScalePoint(cfg)
	}
	b.StopTimer()
	if r.Digest != ref.Digest {
		b.Fatalf("rerun digest %016x != first run %016x", r.Digest, ref.Digest)
	}
	b.ReportMetric(float64(r.Events), "events/op")
}
