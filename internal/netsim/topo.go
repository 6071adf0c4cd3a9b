package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Interposer is a bump-in-the-wire device placed between a host's NIC and
// its TOR port — the role the FPGA shell plays in the Configurable Cloud
// (Fig. 1b). HostPort faces the NIC; NetPort faces the TOR.
type Interposer interface {
	Device
	HostPort() *Port
	NetPort() *Port
}

// InterposerFactory builds the interposer for a host as it is
// instantiated.
type InterposerFactory func(dc *Datacenter, hostID int) Interposer

// Config describes the three-tier datacenter fabric of §V-C: each TOR
// connects 24 hosts (L0), L1 switches form pods of 960 machines, and an
// L2 tier connects pods into a quarter-million-machine datacenter. Each
// tier adds oversubscription.
type Config struct {
	HostsPerTOR int
	TORsPerPod  int
	Pods        int

	// Link parameters per tier. Uplinks are modeled as single aggregated
	// ports whose rate expresses the tier's oversubscription.
	HostLink  LinkParams // host/FPGA <-> TOR
	TORUplink LinkParams // TOR <-> L1
	L1Uplink  LinkParams // L1 <-> L2

	// Per-frame forwarding jitter per tier (nil for none).
	L1Jitter func(*rand.Rand) sim.Time
	L2Jitter func(*rand.Rand) sim.Time

	// L2CableSpread adds a deterministic per-pod extra propagation delay
	// in [0, L2CableSpread) on the pod's L1<->L2 cable, modeling the
	// physical-distance differences between pods that make different L2
	// pairs see different base latencies (§V-C).
	L2CableSpread sim.Time

	Port       PortConfig
	Interposer InterposerFactory
}

// Store-and-forward pipeline latencies per switch tier, calibrated with
// DefaultConfig's links against Figure 10.
const (
	torLatency = 500 * sim.Nanosecond
	l1Latency  = 1600 * sim.Nanosecond
	l2Latency  = 1700 * sim.Nanosecond
)

// DefaultConfig returns the fabric configuration calibrated against the
// paper's Figure 10 idle latencies (L0 2.88 µs, L1 7.72 µs, L2 18.71 µs
// round trip, measured LTL-to-LTL).
func DefaultConfig() Config {
	port := DefaultPortConfig()
	return Config{
		HostsPerTOR: 24,
		TORsPerPod:  40,
		Pods:        261, // 261 * 960 = 250,560 hosts ("more than a quarter million")

		HostLink:  LinkParams{RateBps: Rate40G, Prop: 15 * sim.Nanosecond},
		TORUplink: LinkParams{RateBps: 4 * Rate40G, Prop: 150 * sim.Nanosecond},
		L1Uplink:  LinkParams{RateBps: 8 * Rate40G, Prop: 800 * sim.Nanosecond},

		L1Jitter: func(r *rand.Rand) sim.Time {
			// Small exponential tail: the paper observes a tight L1
			// distribution with a ~0.5 us tail of outliers.
			return expJitter(r, 60*sim.Nanosecond, 700*sim.Nanosecond)
		},
		L2Jitter: func(r *rand.Rand) sim.Time {
			// Wider L2 spread from multi-pathing and ASIC organization.
			return expJitter(r, 450*sim.Nanosecond, 2500*sim.Nanosecond)
		},
		L2CableSpread: 600 * sim.Nanosecond,

		Port: port,
	}
}

// expJitter draws an exponential with the given mean, truncated at max.
func expJitter(r *rand.Rand, mean, max sim.Time) sim.Time {
	d := sim.Time(r.ExpFloat64() * float64(mean))
	if d > max {
		d = max
	}
	return d
}

// Datacenter lazily instantiates the slice of the fabric an experiment
// touches: hosts, their TORs, pod L1 switches, and the L2 spine. Traffic
// routed toward un-instantiated regions vanishes at the first unwired
// port (counted in switch stats).
type Datacenter struct {
	// Sim runs every switch, host and link of the fabric.
	Sim *sim.Simulation
	cfg Config

	l2    *Switch
	l1    map[int]*Switch // pod -> L1
	tors  map[int]*Switch // global TOR index -> TOR
	hosts map[int]*Host
	inter map[int]Interposer

	noisy []*Port // every port a background load was started on
}

// NewDatacenter builds an empty datacenter on s.
func NewDatacenter(s *sim.Simulation, cfg Config) *Datacenter {
	if cfg.HostsPerTOR <= 0 || cfg.TORsPerPod <= 0 || cfg.Pods <= 0 {
		panic("netsim: invalid topology dimensions")
	}
	return &Datacenter{
		Sim: s, cfg: cfg,
		l1:    make(map[int]*Switch),
		tors:  make(map[int]*Switch),
		hosts: make(map[int]*Host),
		inter: make(map[int]Interposer),
	}
}

// Config returns the topology configuration.
func (dc *Datacenter) Config() Config { return dc.cfg }

// NumHosts returns the total addressable host count.
func (dc *Datacenter) NumHosts() int {
	return dc.cfg.HostsPerTOR * dc.cfg.TORsPerPod * dc.cfg.Pods
}

// Locate decomposes a host ID into (pod, tor-within-pod, index-within-tor).
func (dc *Datacenter) Locate(hostID int) (pod, tor, idx int) {
	perPod := dc.cfg.HostsPerTOR * dc.cfg.TORsPerPod
	pod = hostID / perPod
	rem := hostID % perPod
	tor = rem / dc.cfg.HostsPerTOR
	idx = rem % dc.cfg.HostsPerTOR
	return
}

// HostIDOf composes a host ID from coordinates.
func (dc *Datacenter) HostIDOf(pod, tor, idx int) int {
	return pod*dc.cfg.HostsPerTOR*dc.cfg.TORsPerPod + tor*dc.cfg.HostsPerTOR + idx
}

// Tier returns the lowest network tier connecting two hosts:
// 0 = same TOR, 1 = same pod, 2 = across the L2 spine.
func (dc *Datacenter) Tier(a, b int) int {
	pa, ta, _ := dc.Locate(a)
	pb, tb, _ := dc.Locate(b)
	switch {
	case pa == pb && ta == tb:
		return 0
	case pa == pb:
		return 1
	default:
		return 2
	}
}

// ReachableAtTier returns how many hosts a node can reach through the
// given tier (the x-axis of Fig. 10).
func (dc *Datacenter) ReachableAtTier(tier int) int {
	switch tier {
	case 0:
		return dc.cfg.HostsPerTOR
	case 1:
		return dc.cfg.HostsPerTOR * dc.cfg.TORsPerPod
	default:
		return dc.NumHosts()
	}
}

// L2 lazily creates and returns the L2 spine switch.
func (dc *Datacenter) L2() *Switch {
	if dc.l2 == nil {
		perPod := dc.cfg.HostsPerTOR * dc.cfg.TORsPerPod
		cfg := SwitchConfig{
			Name:           "l2",
			Radix:          dc.cfg.Pods,
			Port:           dc.portConfig(dc.cfg.L1Uplink),
			ForwardLatency: l2Latency,
			Jitter:         dc.cfg.L2Jitter,
			Route: func(dst pkt.IP) int {
				id, ok := HostID(dst)
				if !ok {
					return -1
				}
				pod := id / perPod
				if pod < 0 || pod >= dc.cfg.Pods {
					return -1
				}
				return pod
			},
		}
		dc.l2 = NewSwitch(dc.Sim, cfg)
	}
	return dc.l2
}

// L1 lazily creates pod's L1 switch and wires it to the L2 spine.
func (dc *Datacenter) L1(pod int) *Switch {
	if sw, ok := dc.l1[pod]; ok {
		return sw
	}
	perPod := dc.cfg.HostsPerTOR * dc.cfg.TORsPerPod
	uplink := dc.cfg.TORsPerPod
	cfg := SwitchConfig{
		Name:           fmt.Sprintf("l1-p%d", pod),
		Radix:          dc.cfg.TORsPerPod + 1,
		Port:           dc.portConfig(dc.cfg.TORUplink),
		ForwardLatency: l1Latency,
		Jitter:         dc.cfg.L1Jitter,
		Route: func(dst pkt.IP) int {
			id, ok := HostID(dst)
			if !ok {
				return -1
			}
			if id/perPod != pod {
				return uplink
			}
			return (id % perPod) / dc.cfg.HostsPerTOR
		},
	}
	sw := NewSwitch(dc.Sim, cfg)
	dc.l1[pod] = sw

	// Wire the uplink to L2 with a pod-specific cable length. Each end
	// draws its own seed here; the seeds NewSwitch drew for these two
	// ports go unused, and are kept so that every later stream holds.
	up := NewPort(dc.Sim, sw, uplink, dc.podUplinkPortConfig(pod))
	sw.ports[uplink] = up
	l2 := dc.L2()
	l2.ports[pod] = NewPort(dc.Sim, l2, pod, dc.podUplinkPortConfig(pod))
	Wire(up, l2.Port(pod))
	return sw
}

// podUplinkProp returns the pod's L1<->L2 cable propagation delay:
// the tier base plus the pod's deterministic cable-length variation.
func (dc *Datacenter) podUplinkProp(pod int) sim.Time {
	prop := dc.cfg.L1Uplink.Prop
	if dc.cfg.L2CableSpread > 0 {
		// Cheap deterministic hash of the pod index.
		h := uint32(pod) * 2654435761
		prop += sim.Time(uint64(h) % uint64(dc.cfg.L2CableSpread))
	}
	return prop
}

// podUplinkPortConfig derives the pod's L1<->L2 link with its
// deterministic cable-length variation.
func (dc *Datacenter) podUplinkPortConfig(pod int) PortConfig {
	link := dc.cfg.L1Uplink
	link.Prop = dc.podUplinkProp(pod)
	return dc.portConfig(link)
}

// TOR lazily creates the TOR switch (global index pod*TORsPerPod+tor) and
// wires its uplink into the pod's L1.
func (dc *Datacenter) TOR(pod, tor int) *Switch {
	key := pod*dc.cfg.TORsPerPod + tor
	if sw, ok := dc.tors[key]; ok {
		return sw
	}
	uplink := dc.cfg.HostsPerTOR
	base := dc.HostIDOf(pod, tor, 0)
	cfg := SwitchConfig{
		Name:           fmt.Sprintf("tor-p%d-t%d", pod, tor),
		Radix:          dc.cfg.HostsPerTOR + 1,
		Port:           dc.portConfig(dc.cfg.HostLink),
		ForwardLatency: torLatency,
		Route: func(dst pkt.IP) int {
			id, ok := HostID(dst)
			if !ok {
				return -1
			}
			if id < base || id >= base+dc.cfg.HostsPerTOR {
				return uplink
			}
			return id - base
		},
	}
	sw := NewSwitch(dc.Sim, cfg)
	// Uplink port uses the TOR<->L1 link parameters, with its own seed
	// drawn here (the one NewSwitch drew for it goes unused, as in L1).
	up := NewPort(dc.Sim, sw, uplink, dc.portConfig(dc.cfg.TORUplink))
	sw.ports[uplink] = up
	dc.tors[key] = sw
	Wire(up, dc.L1(pod).Port(tor))
	return sw
}

func (dc *Datacenter) portConfig(link LinkParams) PortConfig {
	c := dc.cfg.Port
	c.Link = link
	return c
}

// Host lazily instantiates a host (and its TOR/L1/L2 chain). When an
// interposer factory is configured, the host's NIC is wired through the
// interposer to the TOR — the bump-in-the-wire placement of Fig. 1b.
func (dc *Datacenter) Host(id int) *Host {
	if h, ok := dc.hosts[id]; ok {
		return h
	}
	if id < 0 || id >= dc.NumHosts() {
		panic(fmt.Sprintf("netsim: host id %d out of range", id))
	}
	pod, tor, idx := dc.Locate(id)
	sw := dc.TOR(pod, tor)
	h := NewHost(dc.Sim, id, dc.portConfig(dc.cfg.HostLink))
	dc.hosts[id] = h

	if dc.cfg.Interposer != nil {
		ip := dc.cfg.Interposer(dc, id)
		dc.inter[id] = ip
		Wire(h.NIC(), ip.HostPort())
		Wire(ip.NetPort(), sw.Port(idx))
	} else {
		Wire(h.NIC(), sw.Port(idx))
	}
	return h
}

// InterposerOf returns the interposer wired in front of host id (nil when
// none).
func (dc *Datacenter) InterposerOf(id int) Interposer { return dc.inter[id] }

// Hosts returns all instantiated hosts in host-id order (deterministic:
// simulations must never depend on Go map iteration order).
func (dc *Datacenter) Hosts() []*Host {
	ids := make([]int, 0, len(dc.hosts))
	for id := range dc.hosts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Host, 0, len(ids))
	for _, id := range ids {
		out = append(out, dc.hosts[id])
	}
	return out
}

// L1Switches returns the instantiated L1 switches in pod order.
func (dc *Datacenter) L1Switches() []*Switch {
	pods := make([]int, 0, len(dc.l1))
	for pod := range dc.l1 {
		pods = append(pods, pod)
	}
	sort.Ints(pods)
	out := make([]*Switch, 0, len(pods))
	for _, pod := range pods {
		out = append(out, dc.l1[pod])
	}
	return out
}

// StartBackgroundLoad starts Poisson cross-traffic of the given class on
// every wired L1 and L2 port, at utilization util of each port's line
// rate with the given mean frame size, for the rest of the run. It models
// "other datacenter traffic ... flowing through the same switches"
// (§V-C). Frame sizes are drawn uniformly on [64, 2·meanSize) and
// clamped to pkt.MaxMTU, and frames are spaced by the mean of the sizes
// so drawn, so each port carries util on the wire (DESIGN.md §6.2). Each
// port runs its own process (noise.go), on a stream derived from one seed
// drawn here and the port's identity. A util of zero or below starts
// nothing. A datacenter carries at most one load: it panics if one is
// already running, and on a non-finite util, a meanSize below 64, or a
// util so high that the mean gap between frames is under a nanosecond.
func (dc *Datacenter) StartBackgroundLoad(util float64, class pkt.TrafficClass, meanSize int) {
	if len(dc.noisy) > 0 {
		panic("netsim: a background load is already running on this datacenter")
	}
	if math.IsNaN(util) || math.IsInf(util, 0) {
		panic(fmt.Sprintf("netsim: background util %v is not finite", util))
	}
	if meanSize < 64 {
		panic(fmt.Sprintf("netsim: background meanSize %d is below the 64-byte minimum frame", meanSize))
	}
	if util <= 0 {
		return
	}
	var ports []*Port
	add := func(sw *Switch) {
		for _, p := range sw.ports {
			if p != nil && p.Peer() != nil {
				ports = append(ports, p)
			}
		}
	}
	if dc.l2 != nil {
		add(dc.l2)
	}
	for _, sw := range dc.L1Switches() {
		add(sw)
	}
	wire := noiseWireMean(class, meanSize)
	gaps := make([]float64, len(ports))
	for i, p := range ports {
		gaps[i] = wire * 8 * float64(sim.Second) / (float64(p.cfg.Link.RateBps) * util)
		if gaps[i] < 1 {
			panic(fmt.Sprintf("netsim: background util %v puts frames less than 1ns apart on %s port %d",
				util, p.dev.DeviceName(), p.index))
		}
	}
	obs.RegistryOf(dc.Sim).Refresh(dc.syncNoise)
	base, now := dc.Sim.DrawSeed(), dc.Sim.Now()
	for i, p := range ports {
		sw := p.dev.(*Switch)
		seed := noiseSeed(base, sw.DeviceName(), p.index)
		p.startNoise(newNoiseProc(seed, gaps[i], class, meanSize, now), &sw.stats.Injected)
	}
	dc.noisy = ports
}

// syncNoise brings every port's background traffic up to the current
// instant, so a snapshot of the obs registry counts it.
func (dc *Datacenter) syncNoise() {
	for _, p := range dc.noisy {
		p.sync()
	}
}
