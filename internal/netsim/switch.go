package netsim

import (
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// RouteFunc maps a destination IP to an egress port index (-1 to drop).
type RouteFunc func(dst pkt.IP) int

// PFCConfig configures the ingress-side Priority Flow Control thresholds
// of a switch. PFC is generated per (ingress port, lossless class): when
// bytes buffered from an ingress port exceed XoffBytes, a PAUSE is sent
// to the upstream link partner; when they drain below XonBytes a resume
// is sent.
type PFCConfig struct {
	Enabled   bool
	XoffBytes int
	XonBytes  int
	// PauseQuanta is the quanta value advertised in pause frames.
	PauseQuanta uint16
}

// DefaultPFCConfig returns datacenter-typical thresholds.
func DefaultPFCConfig() PFCConfig {
	return PFCConfig{Enabled: true, XoffBytes: 96 << 10, XonBytes: 48 << 10, PauseQuanta: 0xffff}
}

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
	PFC    PFCConfig
}

// SwitchStats aggregates switch-level counters.
type SwitchStats struct {
	Forwarded   metrics.Counter
	Injected    metrics.Counter // background frames arriving at its ports
	NoRoute     metrics.Counter
	DeadPort    metrics.Counter // routed to an unwired port (outside the instantiated subgraph)
	PFCIssued   metrics.Counter
	PFCResumed  metrics.Counter
	IngressHold metrics.Gauge // bytes held across all ingress accounting
}

// Switch is an output-queued store-and-forward Ethernet switch with
// per-class priority queues, RED, ECN marking, and ingress-driven PFC.
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

	// ingress accounting for PFC, per ingress port per class.
	ingressBytes [][pkt.NumClasses]int
	paused       [][pkt.NumClasses]bool

	stats SwitchStats
}

// NewSwitch builds a switch with cfg.Radix unwired ports. It draws each
// port's seed but builds no port: Port builds one on first use.
func NewSwitch(s *sim.Simulation, cfg SwitchConfig) *Switch {
	sw := &Switch{
		cfg: cfg, sim: s, rngSeed: s.DrawSeed(),
		ports:        make([]*Port, cfg.Radix),
		seeds:        make([]int64, cfg.Radix),
		ingressBytes: make([][pkt.NumClasses]int, cfg.Radix),
		paused:       make([][pkt.NumClasses]bool, cfg.Radix),
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

// HandleFrame implements Device: PFC frames adjust local pause state;
// data frames are routed and forwarded after the pipeline latency.
func (sw *Switch) HandleFrame(p *Port, packet *Packet) {
	if paranoid {
		verifyCached(packet)
	}
	if packet.F.EtherType == pkt.EtherTypePFC {
		if f, ok := pkt.DecodePFC(packet.F.Payload); ok {
			for c := 0; c < pkt.NumClasses; c++ {
				if !f.Enabled[c] {
					continue
				}
				p.Pause(pkt.TrafficClass(c), PauseQuantaToTime(f.Quanta[c], p.cfg.Link.RateBps))
			}
		}
		packet.Free() // control frames terminate here
		return
	}
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

	class := packet.Class()
	if sw.cfg.PFC.Enabled && egress.cfg.Lossless[class] {
		sw.holdIngress(p, class, packet)
	}

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

// holdIngress charges the frame against its ingress port's PFC account and
// arranges release when it leaves (or is dropped at) the egress queue.
func (sw *Switch) holdIngress(in *Port, class pkt.TrafficClass, packet *Packet) {
	i := in.Index()
	size := packet.WireLen()
	sw.ingressBytes[i][class] += size
	sw.stats.IngressHold.Add(int64(size))
	packet.ingress = in
	packet.held = true
	if !sw.paused[i][class] && sw.ingressBytes[i][class] > sw.cfg.PFC.XoffBytes {
		sw.paused[i][class] = true
		sw.sendPause(in, class, sw.cfg.PFC.PauseQuanta)
		sw.armPauseRefresh(in, class)
	}
}

func (sw *Switch) releaseIngress(in *Port, class pkt.TrafficClass, size int) {
	i := in.Index()
	sw.ingressBytes[i][class] -= size
	sw.stats.IngressHold.Add(int64(-size))
	if sw.paused[i][class] && sw.ingressBytes[i][class] < sw.cfg.PFC.XonBytes {
		sw.paused[i][class] = false
		sw.sendPause(in, class, 0) // resume
		sw.stats.PFCResumed.Inc()
	}
}

// sendPause emits a PFC frame out port in (back toward the sender).
func (sw *Switch) sendPause(in *Port, class pkt.TrafficClass, quanta uint16) {
	var f pkt.PFCFrame
	f.Enabled[class] = true
	f.Quanta[class] = quanta
	src := pkt.MAC{0x02, 0xff, byte(in.Index()), 0, 0, 0}
	in.EnqueueControl(NewPacket(pkt.EncodePFC(src, f)))
	in.stats.PFCSent.Inc()
	if quanta != 0 {
		sw.stats.PFCIssued.Inc()
	}
}

// armPauseRefresh re-sends pause frames at half the quanta lifetime while
// the ingress account remains above Xon, so pauses do not expire under
// sustained congestion.
func (sw *Switch) armPauseRefresh(in *Port, class pkt.TrafficClass) {
	life := PauseQuantaToTime(sw.cfg.PFC.PauseQuanta, in.cfg.Link.RateBps)
	sw.sim.Schedule(life/2, func() {
		if sw.paused[in.Index()][class] {
			sw.sendPause(in, class, sw.cfg.PFC.PauseQuanta)
			sw.armPauseRefresh(in, class)
		}
	})
}

// IngressHeldBytes reports the PFC account for (ingress port, class) —
// exposed for tests.
func (sw *Switch) IngressHeldBytes(port int, class pkt.TrafficClass) int {
	return sw.ingressBytes[port][class]
}
