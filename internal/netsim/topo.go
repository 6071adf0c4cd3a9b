package netsim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/sim/shard"
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

	// Store-and-forward pipeline latencies per switch tier.
	TORLatency sim.Time
	L1Latency  sim.Time
	L2Latency  sim.Time

	// Per-frame forwarding jitter per tier (nil for none).
	L1Jitter func(*rand.Rand) sim.Time
	L2Jitter func(*rand.Rand) sim.Time

	// L2CableSpread adds a deterministic per-pod extra propagation delay
	// in [0, L2CableSpread) on the pod's L1<->L2 cable, modeling the
	// physical-distance differences between pods that make different L2
	// pairs see different base latencies (§V-C).
	L2CableSpread sim.Time

	Port       PortConfig
	PFC        PFCConfig
	Interposer InterposerFactory
}

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

		TORLatency: 500 * sim.Nanosecond,
		L1Latency:  1600 * sim.Nanosecond,
		L2Latency:  1700 * sim.Nanosecond,

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
		PFC:  DefaultPFCConfig(),
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
	// Sim is the spine shard's simulation in a sharded datacenter, or
	// the single simulation otherwise. Components attached to a specific
	// pod must use SimForPod/SimForHost instead.
	Sim *sim.Simulation
	cfg Config

	// group partitions the fabric for conservative-parallel execution:
	// the L2 spine on shard 0, pod p on shard p+1. nil for the ordinary
	// single-wheel datacenter.
	group *shard.Group

	l2    *Switch
	l1    map[int]*Switch // pod -> L1
	tors  map[int]*Switch // global TOR index -> TOR
	hosts map[int]*Host
	inter map[int]Interposer

	noiseGen int // generation counter; bumping it stops existing injectors
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

// NewShardedDatacenter builds a datacenter partitioned across g for
// conservative-parallel execution: the L2 spine lives on shard 0 and
// pod p on shard p+1, so g must have exactly cfg.Pods+1 shards. The
// partition is part of the model — results depend on the shard count
// and assignment (they fix RNG streams) but never on g's worker count.
// The pod <-> spine cables are the only cross-shard edges, so their
// minimum propagation delay (cfg.L1Uplink.Prop, before the per-pod
// cable spread, which only adds) is the group lookahead; it must be
// positive. The whole fabric an experiment touches must be
// instantiated before the group runs: lazy instantiation registers
// cross-shard outboxes, which is a construction-time operation.
func NewShardedDatacenter(g *shard.Group, cfg Config) *Datacenter {
	if cfg.HostsPerTOR <= 0 || cfg.TORsPerPod <= 0 || cfg.Pods <= 0 {
		panic("netsim: invalid topology dimensions")
	}
	if g.N() != cfg.Pods+1 {
		panic(fmt.Sprintf("netsim: sharded datacenter needs %d shards (spine + one per pod), group has %d",
			cfg.Pods+1, g.N()))
	}
	if cfg.L1Uplink.Prop <= 0 {
		panic("netsim: sharded datacenter needs positive L1Uplink.Prop (it is the lookahead)")
	}
	g.SetLookahead(cfg.L1Uplink.Prop)
	return &Datacenter{
		Sim: g.Sim(0), cfg: cfg, group: g,
		l1:    make(map[int]*Switch),
		tors:  make(map[int]*Switch),
		hosts: make(map[int]*Host),
		inter: make(map[int]Interposer),
	}
}

// Config returns the topology configuration.
func (dc *Datacenter) Config() Config { return dc.cfg }

// Group returns the shard group driving a sharded datacenter (nil for
// the single-wheel form).
func (dc *Datacenter) Group() *shard.Group { return dc.group }

// SimForPod returns the simulation pod's switches and hosts live on:
// shard pod+1 of a sharded datacenter, the lone simulation otherwise.
func (dc *Datacenter) SimForPod(pod int) *sim.Simulation {
	if dc.group == nil {
		return dc.Sim
	}
	return dc.group.Sim(pod + 1)
}

// SimForHost returns the simulation host id lives on. Components
// attached to a host (shells, NIC-side devices) must be built on it.
func (dc *Datacenter) SimForHost(id int) *sim.Simulation {
	if dc.group == nil {
		return dc.Sim
	}
	pod, _, _ := dc.Locate(id)
	return dc.group.Sim(pod + 1)
}

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
			ForwardLatency: dc.cfg.L2Latency,
			Jitter:         dc.cfg.L2Jitter,
			PFC:            dc.cfg.PFC,
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
		ForwardLatency: dc.cfg.L1Latency,
		Jitter:         dc.cfg.L1Jitter,
		PFC:            dc.cfg.PFC,
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
	ps := dc.SimForPod(pod)
	sw := NewSwitch(ps, cfg)
	dc.l1[pod] = sw

	// Wire the uplink to L2 with a pod-specific cable length. In a
	// sharded datacenter this is the shard boundary: the L1 end lives on
	// the pod's wheel, the L2 end on the spine's, and each direction's
	// propagation leg crosses through the pair's outbox.
	up := NewPort(ps, sw, uplink, dc.podUplinkPortConfig(pod))
	sw.ports[uplink] = up
	l2 := dc.L2()
	l2.ports[pod] = NewPort(dc.Sim, l2, pod, dc.podUplinkPortConfig(pod))
	Wire(up, l2.Port(pod))
	if dc.group != nil {
		up.xout = dc.group.Outbox(pod+1, 0)
		l2.ports[pod].xout = dc.group.Outbox(0, pod+1)
	}
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
		ForwardLatency: dc.cfg.TORLatency,
		PFC:            dc.cfg.PFC,
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
	ps := dc.SimForPod(pod)
	sw := NewSwitch(ps, cfg)
	// Uplink port uses the TOR<->L1 link parameters.
	up := NewPort(ps, sw, uplink, dc.portConfig(dc.cfg.TORUplink))
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
	h := NewHost(dc.SimForPod(pod), id, dc.portConfig(dc.cfg.HostLink))
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

// StartBackgroundLoad injects Poisson cross-traffic of the given class on
// every wired L1 and L2 port, at utilization util of each port's line
// rate with the given mean frame size. It models "other datacenter
// traffic ... flowing through the same switches" (§V-C). Stop with
// StopBackgroundLoad.
func (dc *Datacenter) StartBackgroundLoad(util float64, class pkt.TrafficClass, meanSize int) {
	if util <= 0 {
		return
	}
	dc.noiseGen++
	gen := dc.noiseGen
	// One shared noise stream on a single wheel; per-switch streams
	// (derived from each switch's own shard) when sharded, so injectors
	// draw and schedule only on the wheel that owns their switch.
	var shared *rand.Rand
	if dc.group == nil {
		shared = dc.Sim.NewRand()
	}
	attach := func(sw *Switch) {
		rng := shared
		if rng == nil {
			rng = sw.sim.NewRand()
		}
		for i := 0; i < sw.NumPorts(); i++ {
			port := sw.Port(i)
			if port.Peer() == nil {
				continue
			}
			i := i
			meanGap := float64(meanSize*8) / (float64(port.cfg.Link.RateBps) * util) // seconds
			var next func()
			next = func() {
				if dc.noiseGen != gen {
					return
				}
				sw.InjectNoise(i, class, 64+rng.Intn(2*meanSize-64))
				sw.sim.Schedule(sim.Time(rng.ExpFloat64()*meanGap*float64(sim.Second)), next)
			}
			sw.sim.Schedule(sim.Time(rng.ExpFloat64()*meanGap*float64(sim.Second)), next)
		}
	}
	if dc.l2 != nil {
		attach(dc.l2)
	}
	for _, sw := range dc.L1Switches() {
		attach(sw)
	}
}

// StopBackgroundLoad halts all injectors started by StartBackgroundLoad.
func (dc *Datacenter) StopBackgroundLoad() { dc.noiseGen++ }
