package svclb

import (
	"encoding/binary"

	"repro/internal/faultinject"
	"repro/internal/haas"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/sim"
)

// Deployment is one service deployed the way §V's Service Manager
// deploys every accelerated service: client ends, an optional head host
// that routes over gossiped queue depths, and a HaaS-leased pool of
// interchangeable FPGAs with a fault injector over it. svclb's Service,
// kvcache.Service and rpcnic.Dispatcher embed one; each supplies only
// its role, its client ends' handlers and its per-request path.
type Deployment struct {
	s *sim.Simulation
	// DC and Shells are the fabric the deployment was laid out on.
	DC     *netsim.Datacenter
	Shells map[int]*shell.Shell

	// ClientEnds are the client hosts' shells, in client index order.
	ClientEnds []*shell.Shell
	// Head is the head host (-1 without one) and Router its routing view,
	// fed by the pool's depth gossip (nil without a head).
	Head   int
	Router *Router
	// Pool leases the pool candidates; In can kill or fault any of them.
	Pool *haas.Pool
	In   *faultinject.Injector

	gossip     map[int]*sim.Ticker // serving backends' depth-gossip tickers
	stopFaults func()
	hostEnd    int // one past the last host the layout claims
}

// Standalone builds a simulation seeded with seed and a datacenter with
// a shell on every host, for a service that owns its fabric. Telemetry
// is enabled first, with the tracer's capture limit raised to spanLimit
// when positive: shells, ports and queues cache the tracer when they are
// built.
func Standalone(seed int64, telemetry bool, spanLimit int) (*sim.Simulation, *netsim.Datacenter, map[int]*shell.Shell) {
	s := sim.New(seed)
	if telemetry {
		c := obs.Enable(s)
		if spanLimit > 0 {
			c.Tracer.SetLimit(spanLimit)
		}
	}
	shells := map[int]*shell.Shell{}
	dcCfg := netsim.DefaultConfig()
	dcCfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shell.DefaultConfig())
		shells[hostID] = sh
		return sh
	}
	return s, netsim.NewDatacenter(s, dcCfg), shells
}

// Deploy lays a service out on dc from the TOR-aligned host hostBase:
// clients client hosts fill TORs first; the next TOR starts with the
// head host when policy is non-empty, then poolSize pool candidates, so
// request and gossip traffic cross the L1 tier like a real global
// pool's. The head's Router routes by policy. The pool registers every
// candidate with a Resource Manager polling health every rmPoll under
// spec (see NewBackendPool).
//
// TOR switches are built, each drawing a random stream, as the layout
// first touches their hosts; the router and the injector then draw
// theirs. That order is part of every pinned digest.
func Deploy(s *sim.Simulation, dc *netsim.Datacenter, shells map[int]*shell.Shell, hostBase, clients int,
	policy string, poolSize int, rmPoll sim.Time, spec haas.PoolSpec) *Deployment {
	d := &Deployment{s: s, DC: dc, Shells: shells, Head: -1, gossip: map[int]*sim.Ticker{}}
	for h := hostBase; h < hostBase+clients; h++ {
		dc.Host(h)
		d.ClientEnds = append(d.ClientEnds, shells[h])
	}
	base := d.torAligned(hostBase + clients)
	if policy != "" {
		d.Head = base
		dc.Host(base)
		base++
	}
	poolHosts := make([]int, poolSize)
	for i := range poolHosts {
		poolHosts[i] = base + i
		dc.Host(base + i)
	}
	d.hostEnd = base + poolSize

	if d.Head >= 0 {
		router, err := NewRouter(s.NewRand(), policy)
		if err != nil {
			panic(err)
		}
		d.Router = router
		shells[d.Head].SetControlHandler(func(from int, kind uint8, payload []byte) {
			if kind == ctrlDepth && len(payload) >= 4 {
				router.ReportDepth(from, int(binary.BigEndian.Uint32(payload)), s.Now())
			}
		})
	}
	d.Pool, d.In = NewBackendPool(dc, shells, poolHosts, rmPoll, spec)
	return d
}

// torAligned rounds host up to the first host of a TOR.
func (d *Deployment) torAligned(host int) int {
	hpt := d.DC.Config().HostsPerTOR
	return ((host + hpt - 1) / hpt) * hpt
}

// Sim returns the simulation the deployment runs on.
func (d *Deployment) Sim() *sim.Simulation { return d.s }

// NextHostBase returns the first TOR-aligned host id past the hosts this
// deployment occupies — where the next service on the same fabric starts.
func (d *Deployment) NextHostBase() int { return d.torAligned(d.hostEnd) }

// StartFaults applies the named faultinject profile to the pool's hosts
// and links; "" applies none. Stop ends it.
func (d *Deployment) StartFaults(profile string) {
	if profile == "" {
		return
	}
	p, err := faultinject.ByName(profile)
	if err != nil {
		panic(err)
	}
	d.stopFaults = d.In.Start(p)
}

// gossipInterval is the backend depth-gossip period (staleness of the
// balancer's global view).
const gossipInterval = 100 * sim.Microsecond

// Serve makes backend h routable at the head and starts its depth
// gossip: every gossipInterval, h reports depth() to the head. The first
// report is phase-offset by the slot index, so the pool's reports
// interleave instead of arriving as a synchronized burst.
func (d *Deployment) Serve(h int, depth func() int) *Slot {
	sl := d.Router.AddSlot(h)
	sh := d.Shells[h]
	d.gossip[h] = d.s.Every(gossipInterval*sim.Time(1+sl.Index%8)/8, gossipInterval, func() {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(depth()))
		sh.SendControl(d.Head, ctrlDepth, buf[:])
	})
	return sl
}

// Retire takes backend h out of the routing view and stops its gossip.
func (d *Deployment) Retire(h int) {
	if sl := d.Router.SlotOnHost(h); sl != nil {
		d.Router.RemoveSlot(sl)
	}
	if t := d.gossip[h]; t != nil {
		t.Stop()
		delete(d.gossip, h)
	}
}

// Stop releases control-plane resources: the HaaS health poll, the depth
// gossip and the fault profile. In-flight requests still complete if the
// caller keeps running the simulation.
func (d *Deployment) Stop() {
	d.Pool.RM().Stop()
	for _, t := range d.gossip {
		t.Stop()
	}
	if d.stopFaults != nil {
		d.stopFaults()
	}
}

// Telemetry collects the simulation's observability record under the
// given experiment and point labels (nil unless telemetry is enabled).
func (d *Deployment) Telemetry(experiment, point string) *obs.Record {
	return obs.Collect(obs.Of(d.s), experiment, point)
}

// NewBackendPool builds the backend pool of svclb and every service
// built like it: a Resource Manager polling health every rmPoll, a fault
// injector that can kill any of hosts, and a haas.Pool leasing them
// under spec. Each host registers as a whole board through an FPGA
// Manager that loads a role image taking no PCIe requests: the service's
// data path runs through the shell's datagram and connection handlers.
func NewBackendPool(dc *netsim.Datacenter, shells map[int]*shell.Shell, hosts []int, rmPoll sim.Time,
	spec haas.PoolSpec) (*haas.Pool, *faultinject.Injector) {
	rm := haas.NewResourceManager(dc.Sim, haas.RMConfig{HealthPollInterval: rmPoll})
	in := faultinject.New(dc.Sim)
	for _, h := range hosts {
		sh := shells[h]
		in.AddNode(h, sh)
		rm.Register(&haas.FPGAManager{
			Node:      haas.NodeID(h),
			Configure: func(string) { sh.LoadRole(nil) },
			Healthy:   func() bool { return in.NodeAlive(h) },
		})
	}
	return haas.NewPool(rm, spec), in
}
