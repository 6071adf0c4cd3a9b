package ranking

import (
	"fmt"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Mode selects where the feature stage executes.
type Mode int

// Execution modes.
const (
	Software   Mode = iota // everything on host cores
	LocalFPGA              // feature stage on the local FPGA via PCIe
	RemoteFPGA             // feature stage on a remote FPGA via LTL
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Software:
		return "software"
	case LocalFPGA:
		return "local-fpga"
	case RemoteFPGA:
		return "remote-fpga"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ServerConfig parameterizes a ranking server.
type ServerConfig struct {
	// Cores is the host worker-thread count.
	Cores int
	// Mode selects the feature-stage placement.
	Mode Mode
	// PCIeOverhead is the per-call DMA round-trip added in LocalFPGA mode.
	PCIeOverhead sim.Time
	// RemoteRTT supplies the network round-trip (LTL) per remote call; the
	// remote FPGA's queueing is modeled by the shared FPGA queue.
	RemoteRTT func() sim.Time
	// FPGA is the feature-engine queue. In LocalFPGA mode each server owns
	// one; in RemoteFPGA mode several servers may share one (the global
	// pool). Nil in Software mode.
	FPGA *host.CPU
}

// Server is one ranking node: host cores plus (optionally) an FPGA
// feature engine. Queries move pre -> features -> post, releasing host
// cores during the offloaded stage (async I/O threading model).
type Server struct {
	sim *sim.Simulation
	cfg ServerConfig
	cpu *host.CPU

	// Latency records end-to-end query latency (ns).
	Latency *metrics.Histogram
	// FeatureLatency records just the feature stage (ns).
	FeatureLatency *metrics.Histogram
	Completed      metrics.Counter
	InFlight       metrics.Gauge
}

// NewServer builds a server on s.
func NewServer(s *sim.Simulation, cfg ServerConfig) *Server {
	if cfg.Cores <= 0 {
		panic("ranking: cores must be positive")
	}
	if cfg.Mode != Software && cfg.FPGA == nil {
		panic("ranking: FPGA queue required in FPGA modes")
	}
	if cfg.Mode == RemoteFPGA && cfg.RemoteRTT == nil {
		panic("ranking: RemoteRTT required in remote mode")
	}
	sv := &Server{
		sim: s, cfg: cfg, cpu: host.NewCPU(s, cfg.Cores),
		Latency:        metrics.NewHistogram(),
		FeatureLatency: metrics.NewHistogram(),
	}
	reg := obs.RegistryOf(s)
	reg.Histogram("ranking.latency", "ns", "ranking", "end-to-end query latency", sv.Latency)
	reg.Histogram("ranking.feature_latency", "ns", "ranking", "feature-stage latency", sv.FeatureLatency)
	reg.Counter("ranking.completed", "reqs", "ranking", "queries completed", &sv.Completed)
	reg.Gauge("ranking.in_flight", "reqs", "ranking", "queries currently in flight", &sv.InFlight)
	return sv
}

// CPU exposes the host queue (for utilization assertions).
func (sv *Server) CPU() *host.CPU { return sv.cpu }

// Query submits one request with the given timing profile; done (optional)
// fires at completion.
func (sv *Server) Query(p Profile, done func()) {
	start := sv.sim.Now()
	sv.InFlight.Add(1)
	finish := func() {
		sv.InFlight.Add(-1)
		sv.Completed.Inc()
		sv.Latency.Observe(int64(sv.sim.Now() - start))
		if done != nil {
			done()
		}
	}
	switch sv.cfg.Mode {
	case Software:
		// Single stage: the whole request occupies a core.
		sv.cpu.Submit(p.SwTotal(), finish)
	case LocalFPGA, RemoteFPGA:
		sv.cpu.Submit(p.Pre, func() {
			fStart := sv.sim.Now()
			sv.featureStage(p, func() {
				sv.FeatureLatency.Observe(int64(sv.sim.Now() - fStart))
				sv.cpu.Submit(p.Post, finish)
			})
		})
	}
}

// featureStage runs the offloaded stage: transport overhead plus the FPGA
// engine's queue+service.
func (sv *Server) featureStage(p Profile, done func()) {
	switch sv.cfg.Mode {
	case LocalFPGA:
		sv.sim.Schedule(sv.cfg.PCIeOverhead/2, func() {
			sv.cfg.FPGA.Submit(p.FpgaFeature, func() {
				sv.sim.Schedule(sv.cfg.PCIeOverhead/2, done)
			})
		})
	case RemoteFPGA:
		rtt := sv.cfg.RemoteRTT()
		sv.sim.Schedule(rtt/2, func() {
			sv.cfg.FPGA.Submit(p.FpgaFeature, func() {
				sv.sim.Schedule(rtt/2, done)
			})
		})
	default:
		done()
	}
}

// SweepPoint is one measurement of the latency-throughput curve.
type SweepPoint struct {
	OfferedQPS float64
	P99        sim.Time
	P999       sim.Time
	Mean       sim.Time
	Completed  uint64
	FPGAUtil   float64
	CPUUtil    float64
}
