package ranking

import (
	"math/rand"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// SweepConfig drives the single-box latency-versus-throughput measurement
// of Fig. 6: a stream of queries at swept arrival rates against one
// server ("we used a single-box test with a stream of 200,000 queries,
// and varied the arrival rate of requests").
type SweepConfig struct {
	Seed         int64
	Cores        int
	QueriesPer   int // queries per sweep point
	PoolSize     int // profile pool size
	Points       int // sweep points per curve
	PCIeOverhead sim.Time
	// RemoteRTT supplies the network round trip per remote feature call
	// for RemoteFPGA sweeps. It receives a point-private RNG (sweep
	// points run concurrently) and must derive all randomness from it.
	RemoteRTT func(rng *rand.Rand) sim.Time
	Cost      CostModel
}

// maxUtil is the offered load of a sweep's last point, as a fraction of
// the mode's capacity.
const maxUtil = 0.97

// DefaultSweepConfig returns a configuration sized for the benchmark
// harness (tests shrink QueriesPer).
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Seed:         1,
		Cores:        8,
		QueriesPer:   200000,
		PoolSize:     2000,
		Points:       12,
		PCIeOverhead: 4 * sim.Microsecond,
		Cost:         DefaultCostModel(),
	}
}

// Capacity returns the theoretical max throughput (QPS) of a mode given
// the pool's mean service demands.
func (sc SweepConfig) Capacity(pool *ProfilePool, mode Mode) float64 {
	switch mode {
	case Software:
		return float64(sc.Cores) / pool.MeanSwTotal().Seconds()
	default:
		hostCap := float64(sc.Cores) / pool.MeanHostWithFPGA().Seconds()
		fpgaCap := 1 / pool.MeanFpgaFeature().Seconds()
		if fpgaCap < hostCap {
			return fpgaCap
		}
		return hostCap
	}
}

// Sweep measures one latency-throughput curve. Points are independent
// simulations: per-point seeds are drawn sequentially up front, then the
// points fan out across cores with results kept in rate order.
func Sweep(cfg SweepConfig, mode Mode) []SweepPoint {
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	pool := NewProfilePool(rand.New(rand.NewSource(cfg.Seed)), cfg.PoolSize, cfg.Cost)
	capQPS := cfg.Capacity(pool, mode)

	seeds := make([]int64, cfg.Points)
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}
	return sweep.Map(cfg.Points, func(i int) SweepPoint {
		frac := maxUtil * float64(i+1) / float64(cfg.Points)
		return runPoint(cfg, mode, pool.NewSampler(seeds[i]), frac*capQPS, seeds[i])
	})
}

// runPoint simulates one arrival rate until QueriesPer queries complete.
// pool draws go through a point-private sampler so concurrent points
// don't share RNG state.
func runPoint(cfg SweepConfig, mode Mode, pool *Sampler, qps float64, seed int64) SweepPoint {
	s := sim.New(seed)
	var fpga *host.CPU
	if mode != Software {
		fpga = host.NewCPU(s, 1)
	}
	var remoteRTT func() sim.Time
	if cfg.RemoteRTT != nil {
		rttRng := s.NewRand() // point-private stream for RTT draws
		remoteRTT = func() sim.Time { return cfg.RemoteRTT(rttRng) }
	}
	sv := NewServer(s, ServerConfig{
		Cores: cfg.Cores, Mode: mode,
		PCIeOverhead: cfg.PCIeOverhead,
		RemoteRTT:    remoteRTT,
		FPGA:         fpga,
	})
	remaining := cfg.QueriesPer
	issued := 0
	var gen *workload.OpenLoop
	gen = workload.NewOpenLoop(s, qps, func() {
		if issued >= cfg.QueriesPer {
			gen.Stop()
			return
		}
		issued++
		sv.Query(pool.Sample(), func() {
			remaining--
			if remaining == 0 {
				s.Halt()
			}
		})
	})
	gen.Start()
	s.Run()

	pt := SweepPoint{
		OfferedQPS: qps,
		P99:        sim.Time(sv.Latency.Percentile(99)),
		P999:       sim.Time(sv.Latency.Percentile(99.9)),
		Mean:       sim.Time(int64(sv.Latency.Mean())),
		Completed:  sv.Completed.Value(),
		CPUUtil:    sv.CPU().Utilization(),
	}
	if fpga != nil {
		pt.FPGAUtil = fpga.Utilization()
	}
	return pt
}

// ThroughputAtTarget interpolates the highest offered rate whose p99 stays
// at or below target (the Fig. 6 comparison point).
func ThroughputAtTarget(points []SweepPoint, target sim.Time) float64 {
	best := 0.0
	for _, p := range points {
		if p.P99 <= target && p.OfferedQPS > best {
			best = p.OfferedQPS
		}
	}
	return best
}

// Fig6Result packages the software and local-FPGA curves plus the
// headline capacity ratio at the software latency target.
type Fig6Result struct {
	Software  []SweepPoint
	LocalFPGA []SweepPoint
	// TargetLatency is the software p99 at its nominal operating point
	// (normalized to 1.0 on the paper's latency axis).
	TargetLatency sim.Time
	// SwNominalQPS is the software operating point (normalized 1.0 on the
	// throughput axis).
	SwNominalQPS float64
	// ThroughputGain is FPGA throughput at the target / SwNominalQPS —
	// the paper reports 2.25x.
	ThroughputGain float64
}

// Fig6 runs both curves (concurrently — each is a self-contained sweep)
// and computes the gain.
func Fig6(cfg SweepConfig) Fig6Result {
	curves := sweep.Over([]Mode{Software, LocalFPGA}, func(_ int, m Mode) []SweepPoint {
		return Sweep(cfg, m)
	})
	res := Fig6Result{
		Software:  curves[0],
		LocalFPGA: curves[1],
	}
	// Nominal software operating point: ~70% of the sweep range (the
	// "well tuned" production point where targets are met).
	idx := len(res.Software) * 7 / 10
	if idx >= len(res.Software) {
		idx = len(res.Software) - 1
	}
	nominal := res.Software[idx]
	res.SwNominalQPS = nominal.OfferedQPS
	res.TargetLatency = nominal.P99
	fpgaAtTarget := ThroughputAtTarget(res.LocalFPGA, res.TargetLatency)
	if res.SwNominalQPS > 0 {
		res.ThroughputGain = fpgaAtTarget / res.SwNominalQPS
	}
	return res
}

// Fig11Result adds the remote curve.
type Fig11Result struct {
	Fig6Result
	RemoteFPGA []SweepPoint
	// RemoteOverheadAtNominal is (remote p99.9 - local p99.9) / local
	// p99.9 at the software nominal throughput — the paper reports the
	// overhead is "minimal".
	RemoteOverheadAtNominal float64
}

// Fig11 runs software, local and remote curves. cfg.RemoteRTT must be set.
func Fig11(cfg SweepConfig) Fig11Result {
	res := Fig11Result{Fig6Result: Fig6(cfg)}
	res.RemoteFPGA = Sweep(cfg, RemoteFPGA)
	// Compare p99.9 at matching offered loads (same sweep fractions).
	li, ri := nearestPoint(res.LocalFPGA, res.SwNominalQPS), nearestPoint(res.RemoteFPGA, res.SwNominalQPS)
	lp, rp := res.LocalFPGA[li].P999, res.RemoteFPGA[ri].P999
	if lp > 0 {
		res.RemoteOverheadAtNominal = float64(rp-lp) / float64(lp)
	}
	return res
}

func nearestPoint(points []SweepPoint, qps float64) int {
	best, bestD := 0, -1.0
	for i, p := range points {
		d := p.OfferedQPS - qps
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// ---- Fig. 7 / Fig. 8: five-day production run ----

// ProductionConfig drives the two-datacenter diurnal comparison. Scale
// and day length are compressed (documented in DESIGN.md): the shape of
// the curves — load tracking, software latency spikes at peaks, FPGA
// latencies tight despite higher absorbed load — is what reproduces.
type ProductionConfig struct {
	Seed      int64
	Servers   int
	Cores     int
	DayLength sim.Time
	Days      int
	// Window is the latency aggregation window ("aggregated across all
	// servers over a rolling time window").
	Window       sim.Time
	PoolSize     int
	PCIeOverhead sim.Time
	Cost         CostModel
}

// The production run's load and balancer cap.
const (
	// meanLoadFrac is the mean offered load as a fraction of software
	// capacity; diurnal peaks push past it.
	meanLoadFrac = 0.68
	// capThreshold: the software DC's balancer caps traffic when windowed
	// p99.9 exceeds capThreshold x the latency target.
	capThreshold = 1.5
)

// DefaultProductionConfig returns a compressed five-day run.
func DefaultProductionConfig() ProductionConfig {
	return ProductionConfig{
		Seed:         7,
		Servers:      8,
		Cores:        8,
		DayLength:    4 * sim.Second,
		Days:         5,
		Window:       200 * sim.Millisecond,
		PoolSize:     1500,
		PCIeOverhead: 4 * sim.Microsecond,
		Cost:         DefaultCostModel(),
	}
}

// WindowSample is one aggregation window of a production run.
type WindowSample struct {
	At      sim.Time
	Load    float64 // offered QPS admitted
	Offered float64 // offered QPS before capping
	P999    sim.Time
	Shed    uint64 // queries rejected by the balancer cap
}

// ProductionResult carries both datacenters' window series.
type ProductionResult struct {
	Software []WindowSample
	FPGA     []WindowSample
	// TargetLatency normalizes the latency axes (software p99.9 target).
	TargetLatency sim.Time
}

// Production simulates the two datacenters of Fig. 7 under the same
// diurnal traffic and returns windowed load/latency series (Fig. 8 plots
// the same samples as load-versus-latency).
func Production(cfg ProductionConfig) ProductionResult {
	pool := NewProfilePool(rand.New(rand.NewSource(cfg.Seed)), cfg.PoolSize, cfg.Cost)
	swCap := float64(cfg.Cores) / pool.MeanSwTotal().Seconds() * float64(cfg.Servers)
	meanQPS := meanLoadFrac * swCap

	// Calibrate the latency target from a short software warm-up at mean
	// load.
	target := calibrateTarget(cfg, pool, meanQPS)

	res := ProductionResult{TargetLatency: target}
	// The two datacenters see "the same" diurnal traffic but are fully
	// independent simulations — run them on separate cores. Each gets a
	// mode-keyed sampler so neither perturbs the other's draw sequence.
	runs := sweep.Over([]Mode{Software, LocalFPGA}, func(_ int, m Mode) []WindowSample {
		sampler := pool.NewSampler(cfg.Seed + int64(m) + 200)
		capTarget := target
		if m != Software {
			capTarget = 0 // no cap needed
		}
		return runProduction(cfg, sampler, m, meanQPS, capTarget)
	})
	res.Software, res.FPGA = runs[0], runs[1]
	return res
}

func calibrateTarget(cfg ProductionConfig, pool *ProfilePool, meanQPS float64) sim.Time {
	s := sim.New(cfg.Seed)
	servers := buildServers(s, cfg, Software)
	rng := s.NewRand()
	sampler := pool.NewSampler(cfg.Seed + 100)
	gen := workload.NewOpenLoop(s, meanQPS, func() {
		servers[rng.Intn(len(servers))].Query(sampler.Sample(), nil)
	})
	gen.Start()
	s.RunUntil(cfg.DayLength / 2)
	h := metrics.NewHistogram()
	for _, sv := range servers {
		h.Merge(sv.Latency)
	}
	return sim.Time(h.Percentile(99.9))
}

func buildServers(s *sim.Simulation, cfg ProductionConfig, mode Mode) []*Server {
	servers := make([]*Server, cfg.Servers)
	for i := range servers {
		var fpga *host.CPU
		if mode != Software {
			fpga = host.NewCPU(s, 1)
		}
		servers[i] = NewServer(s, ServerConfig{
			Cores: cfg.Cores, Mode: mode,
			PCIeOverhead: cfg.PCIeOverhead, FPGA: fpga,
		})
	}
	return servers
}

// runProduction simulates one datacenter for Days x DayLength under the
// diurnal profile, with an optional latency-triggered admission cap
// (target > 0 enables the software DC's load balancer behavior).
func runProduction(cfg ProductionConfig, pool *Sampler, mode Mode, meanQPS float64, target sim.Time) []WindowSample {
	s := sim.New(cfg.Seed + int64(mode) + 100)
	servers := buildServers(s, cfg, mode)
	rng := s.NewRand()
	diurnal := workload.DefaultDiurnal()
	total := sim.Time(cfg.Days) * cfg.DayLength

	capMult := 1.0 // admission multiplier controlled by the balancer
	var samples []WindowSample
	var winAdmitted, winOffered, winShed uint64

	// Arrival process: rate re-evaluated per arrival from the diurnal
	// curve (day length compressed).
	var next func()
	schedule := func() {
		load := diurnal.Load(sim.Time(float64(s.Now())*float64(sim.Day)/float64(cfg.DayLength)), nil)
		rate := meanQPS * load
		gap := sim.Time(rng.ExpFloat64() / rate * float64(sim.Second))
		s.Schedule(gap, next)
	}
	next = func() {
		if s.Now() >= total {
			return
		}
		winOffered++
		if target > 0 && rng.Float64() > capMult {
			winShed++
		} else {
			winAdmitted++
			sv := servers[rng.Intn(len(servers))]
			sv.Query(pool.Sample(), func() {})
		}
		schedule()
	}
	s.Schedule(0, next)

	// Window aggregation + balancer control loop.
	s.Every(cfg.Window, cfg.Window, func() {
		if s.Now() > total {
			return
		}
		h := metrics.NewHistogram()
		for _, sv := range servers {
			h.Merge(sv.Latency)
			sv.Latency.Reset()
		}
		p999 := sim.Time(h.Percentile(99.9))
		samples = append(samples, WindowSample{
			At:      s.Now(),
			Load:    float64(winAdmitted) / cfg.Window.Seconds(),
			Offered: float64(winOffered) / cfg.Window.Seconds(),
			P999:    p999,
			Shed:    winShed,
		})
		winAdmitted, winOffered, winShed = 0, 0, 0
		if target > 0 {
			// "a dynamic load balancing mechanism that caps the incoming
			// traffic when tail latencies begin exceeding acceptable
			// thresholds."
			if p999 > sim.Time(float64(target)*capThreshold) {
				capMult *= 0.8
				if capMult < 0.3 {
					capMult = 0.3
				}
			} else if capMult < 1.0 {
				capMult += 0.05
				if capMult > 1 {
					capMult = 1
				}
			}
		}
	})

	s.RunUntil(total + cfg.Window)
	return samples
}
