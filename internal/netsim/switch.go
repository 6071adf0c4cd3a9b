package netsim

import (
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// RouteFunc maps a destination IP to an egress port index (-1 to drop).
type RouteFunc func(dst pkt.IP) int

// SwitchConfig configures a Switch.
type SwitchConfig struct {
	Name string
	// Radix is the number of ports.
	Radix int
	// Port configures every egress port. A port is built from it when it
	// is first wired or asked for through Switch.Port, not at NewSwitch.
	Port PortConfig
	// ForwardLatency is the store-and-forward pipeline latency added to
	// every frame.
	ForwardLatency sim.Time
	// Jitter, when non-nil, returns extra per-frame forwarding delay
	// (models ASIC arbitration, multi-pathing, and internal organization —
	// the paper's explanation of L2 latency variability).
	Jitter func(*rand.Rand) sim.Time
	Route  RouteFunc
}

// SwitchStats aggregates switch-level counters; the embedded PFCStats
// are its ports' ingress accounts.
type SwitchStats struct {
	Forwarded metrics.Counter
	Injected  metrics.Counter // background frames arriving at its ports
	NoRoute   metrics.Counter
	DeadPort  metrics.Counter // routed to an unwired port (outside the instantiated subgraph)
	PFCStats
}

// Switch is an output-queued store-and-forward Ethernet switch with
// per-class priority queues, RED, ECN marking, and PFC (its ports'
// ingress accounts, pfc.go).
type Switch struct {
	cfg SwitchConfig
	sim *sim.Simulation
	// rng is the jitter stream, built from rngSeed on the first Jitter
	// draw (as Port.rand does): a switch without Jitter never builds it.
	rng     *rand.Rand
	rngSeed int64
	// ports holds each port once built (nil until then); seeds holds the
	// seed each port is built with, drawn at NewSwitch in port order so
	// every stream is the same whether or when a port is built.
	ports []*Port
	seeds []int64

	stats SwitchStats
}

// NewSwitch builds a switch with cfg.Radix unwired ports. It draws each
// port's seed but builds no port: Port builds one on first use.
func NewSwitch(s *sim.Simulation, cfg SwitchConfig) *Switch {
	sw := &Switch{
		cfg: cfg, sim: s, rngSeed: s.DrawSeed(),
		ports: make([]*Port, cfg.Radix),
		seeds: make([]int64, cfg.Radix),
	}
	for i := range sw.seeds {
		sw.seeds[i] = s.DrawSeed()
	}
	return sw
}

// DeviceName implements Device.
func (sw *Switch) DeviceName() string { return sw.cfg.Name }

// Port returns port i, building it with cfg.Port on first use. A port
// exists only once it is wired or asked for; until then it holds no
// state, and a frame routed to it counts as DeadPort.
func (sw *Switch) Port(i int) *Port {
	if sw.ports[i] == nil {
		sw.ports[i] = newPort(sw.sim, sw, i, sw.cfg.Port, sw.seeds[i])
		sw.ports[i].pfcStats = &sw.stats.PFCStats
	}
	return sw.ports[i]
}

// Stats returns the switch's counters, with the background traffic of its
// ports brought up to the current instant.
func (sw *Switch) Stats() *SwitchStats {
	for _, p := range sw.ports {
		if p != nil {
			p.sync()
		}
	}
	return &sw.stats
}

// NumPorts returns the switch radix.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// HandleFrame implements Device: data frames are routed and forwarded
// after the pipeline latency, lossless ones charged to port p.
func (sw *Switch) HandleFrame(p *Port, packet *Packet) {
	if !packet.F.IPValid || sw.cfg.Route == nil {
		sw.stats.NoRoute.Inc()
		packet.Free()
		return
	}
	out := sw.cfg.Route(packet.F.DstIP)
	if out < 0 || out >= len(sw.ports) {
		sw.stats.NoRoute.Inc()
		packet.Free()
		return
	}
	egress := sw.ports[out]
	if egress == nil || egress.Peer() == nil {
		// Traffic leaving the instantiated subgraph (sparse topologies).
		sw.stats.DeadPort.Inc()
		packet.Free()
		return
	}

	p.Hold(packet, egress)

	delay := sw.cfg.ForwardLatency
	if sw.cfg.Jitter != nil {
		if sw.rng == nil {
			sw.rng = rand.New(rand.NewSource(sw.rngSeed))
		}
		delay += sw.cfg.Jitter(sw.rng)
	}
	sw.stats.Forwarded.Inc()
	packet.NextPort = egress
	sw.sim.ScheduleCall(delay, EnqueueCall, packet)
}
