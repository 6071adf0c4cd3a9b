package svclb

import (
	"repro/internal/faultinject"
	"repro/internal/haas"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/sim"
)

// Deployment is one service deployed the way §V's Service Manager
// deploys every accelerated service: client ends, an optional head host
// that routes on its own outstanding counts, and a HaaS-leased pool of
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
	// Head is the head host (-1 without one) and Router its routing view
	// (nil without a head).
	Head   int
	Router *Router
	// Pool leases the pool candidates; In can kill or fault any of them.
	Pool *haas.Pool
	In   *faultinject.Injector

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
// request traffic crosses the L1 tier like a real global pool's. The
// head's Router routes by policy. The pool registers every candidate
// with a Resource Manager polling health every rmPoll under spec (see
// NewBackendPool).
//
// TOR switches are built, each drawing a random stream, as the layout
// first touches their hosts; the router and the injector then draw
// theirs. That order is part of every pinned digest.
func Deploy(s *sim.Simulation, dc *netsim.Datacenter, shells map[int]*shell.Shell, hostBase, clients int,
	policy string, poolSize int, rmPoll sim.Time, spec haas.PoolSpec) *Deployment {
	d := &Deployment{s: s, DC: dc, Shells: shells, Head: -1}
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
		var err error
		if d.Router, err = NewRouter(s.NewRand(), policy); err != nil {
			panic(err)
		}
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

// Retire takes backend h out of the routing view.
func (d *Deployment) Retire(h int) {
	if sl := d.Router.SlotOnHost(h); sl != nil {
		d.Router.RemoveSlot(sl)
	}
}

// Stop releases control-plane resources: the HaaS health poll and the
// fault profile. In-flight requests still complete if the caller keeps
// running the simulation.
func (d *Deployment) Stop() {
	d.Pool.RM().Stop()
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
