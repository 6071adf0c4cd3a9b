// Package svclb is the service-level load-balancing layer of §V-F: a
// Service Manager for a pool of HaaS-leased FPGAs that routes client
// requests through pluggable policies (random, round-robin,
// join-shortest-queue, power-of-two-choices over stale gossiped queue
// depths), sheds load that cannot meet its deadline, optionally hedges
// slow requests onto a second replica (cancelling the loser), and grows
// or shrinks its lease set as the windowed tail latency crosses
// watermarks.
//
// The data plane is fully packet-level: requests cross PCIe, LTL, and the
// simulated fabric exactly as dnnpool's do. The control plane uses the
// LTL control-datagram class — pool FPGAs gossip their queue depth to the
// SM host every gossip period (so the balancer's global view is stale by
// the period plus the wire, which is precisely what power-of-two-choices
// is robust to), and hedge cancels travel best-effort to the losing
// backend's queue. Everything draws from the simulation seed: a run is
// bit-identical under replay, including its routing decisions (witnessed
// by Result.RouteHash).
package svclb

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/haas"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Control-datagram kinds used on the service plane.
const (
	ctrlDepth  uint8 = 1 // backend -> SM: uint32 queue depth
	ctrlCancel uint8 = 2 // client -> backend: uint64 request id to cancel
)

const serviceImage = "svclb-v1"

// Config parameterizes one balancer run.
type Config struct {
	Seed    int64
	Clients int
	// FPGAs is the initial leased pool size; Spares are additional
	// registered-but-free nodes available for failover and autoscale.
	FPGAs  int
	Spares int
	Policy string

	ServiceTime sim.Time
	ClientRate  float64
	ReqBytes    int
	RespBytes   int

	Duration sim.Time
	Warmup   sim.Time
	// Drain keeps the simulation running after arrivals stop so every
	// admitted request can complete (the conservation check behind the
	// no-client-visible-loss guarantee).
	Drain sim.Time

	// GossipInterval is the backend depth-gossip period (staleness of the
	// balancer's global view).
	GossipInterval sim.Time

	// Admission enables deadline-aware shedding: a request is rejected at
	// arrival when the chosen backend's estimated completion time exceeds
	// Deadline.
	Admission bool
	Deadline  sim.Time
	// NetOverhead is the admission estimator's allowance for everything
	// that is not queueing (PCIe both ways plus the fabric); 0 derives it
	// from the shell config.
	NetOverhead sim.Time

	// HedgeDelay, when positive, sends a second copy of a request that has
	// not completed after the delay to a different backend; the first
	// response wins and the loser is cancelled.
	HedgeDelay sim.Time

	// RMPoll is the HaaS health-poll period (failure-detection latency).
	RMPoll sim.Time

	// SlotALMs, when positive, leases each backend as a vFPGA slot claim
	// of that ALM footprint instead of a whole board: the pool registers
	// with HaaS per slot and leases map to (node, slot). The data plane
	// still keys backends by host, so at most one svclb slot per board is
	// claimed (replacement claims avoid boards the pool already uses).
	SlotALMs int
	// SlotsPerBoard partitions standalone pool shells (default 2); on a
	// shared fabric the caller slots the shells it passes in.
	SlotsPerBoard int

	Autoscale AutoscaleConfig

	// KillAt, when positive, hard-kills one pool FPGA at that time; the
	// balancer must mask it via HaaS replacement and resend.
	KillAt sim.Time

	// BackgroundLoad is the fraction of fabric capacity used by other
	// tenants' lossless traffic.
	BackgroundLoad float64

	// Telemetry enables the observability layer (span tracing plus the
	// metrics registry) for this run; the collected record is returned in
	// Result.Telemetry. Off by default: the data plane then pays one nil
	// pointer compare per instrumentation site.
	Telemetry bool
	// SpanLimit overrides the tracer's capture limit (0 keeps
	// obs.DefaultSpanLimit). Raise it to trace rare events — a hedge win
	// needs queue divergence, which the first few milliseconds rarely show.
	SpanLimit int
}

// DefaultConfig returns a moderately oversubscribed pool (16 clients per
// FPGA against a 22.5 knee) under the p2c policy with admission control.
func DefaultConfig() Config {
	return Config{
		Seed:           11,
		Clients:        32,
		FPGAs:          2,
		Spares:         2,
		Policy:         PolicyP2C,
		ServiceTime:    250 * sim.Microsecond,
		ClientRate:     177.8,
		ReqBytes:       2 << 10,
		RespBytes:      256,
		Duration:       300 * sim.Millisecond,
		Warmup:         50 * sim.Millisecond,
		Drain:          50 * sim.Millisecond,
		GossipInterval: 100 * sim.Microsecond,
		Admission:      true,
		Deadline:       2500 * sim.Microsecond,
		HedgeDelay:     0,
		RMPoll:         sim.Millisecond,
		BackgroundLoad: 0.05,
	}
}

func (cfg Config) withDefaults() Config {
	if cfg.Policy == "" {
		cfg.Policy = PolicyP2C
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 50 * sim.Millisecond
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = 100 * sim.Microsecond
	}
	if cfg.RMPoll <= 0 {
		cfg.RMPoll = sim.Millisecond
	}
	if cfg.Admission && cfg.Deadline <= 0 {
		cfg.Deadline = 10 * cfg.ServiceTime
	}
	return cfg
}

// KneeClientsPerFPGA returns the analytic saturation ratio for cfg.
func (cfg Config) KneeClientsPerFPGA() float64 {
	return 1 / (cfg.ServiceTime.Seconds() * cfg.ClientRate)
}

// Result is one balancer run's outcome.
type Result struct {
	Policy  string
	Clients int
	FPGAs   int
	Ratio   float64 // clients per initially-leased FPGA

	// Totals over the whole run (warmup, window, and drain) — Admitted ==
	// Completed is the no-loss conservation law once arrivals stop.
	Offered   uint64
	Admitted  uint64
	Shed      uint64
	Completed uint64

	// Measurement-window latency (requests arriving in [Warmup,
	// Warmup+Duration)).
	Avg sim.Time
	P50 sim.Time
	P95 sim.Time
	P99 sim.Time
	// AdmitRate and Goodput are window-scoped: admitted/offered and
	// completed/offered.
	AdmitRate float64
	Goodput   float64

	Hedged     uint64
	HedgeWins  uint64
	Cancels    uint64
	CancelHits uint64 // cancels that pulled the loser out of a queue in time

	Failovers uint64
	Resent    uint64
	Grown     uint64
	Shrunk    uint64

	FinalBackends int
	// RouteHash digests every routing decision: the determinism witness.
	RouteHash uint64
	// Recovery is the injector-observed kill->masked latency (0 when no
	// kill was injected).
	Recovery sim.Time

	// Telemetry is the collected observability record (metrics snapshot
	// plus captured spans); nil unless Config.Telemetry was set.
	Telemetry *obs.Record
}

type reqCopy struct {
	slot  *Slot
	hedge bool // this copy was created by the hedge timer
	gone  bool // cancelled (hedge loser) or orphaned (backend died)
}

type pendingReq struct {
	id         uint64
	client     int // client index
	t0         sim.Time
	copies     []*reqCopy
	hedgeEv    sim.Timer
	failedOver bool

	// svc is the per-request service time (0 = Config.ServiceTime) and
	// done the per-request completion callback; both are only set for
	// externally submitted requests (Service.Submit).
	svc  sim.Time
	done func(latency sim.Time)

	flow obs.FlowID // ReqFlow(id); 0 when tracing is disabled
	span obs.SpanID // the svclb.request root span
}

type clientEnd struct {
	host int
	sh   *shell.Shell
}

// Balancer is the Service Manager: it owns the lease set, the routing
// view, and every in-flight request. The routing decision is shared state
// between the SM and the clients it hands pointers to — only the load
// signals it decides on travel the simulated network.
type Balancer struct {
	s   *sim.Simulation
	cfg Config

	in     *faultinject.Injector
	router *Router

	shells  map[int]*shell.Shell
	clients []clientEnd
	smHost  int

	pool   *haas.Pool
	queues map[int]*WorkQueue
	gossip map[int]*sim.Ticker
	unwire map[int]func() // per-host teardown of a previous wiring epoch

	pending map[uint64]*pendingReq
	nextReq uint64

	winLat   *metrics.Windowed  // all completions (autoscale control signal)
	measured *metrics.Histogram // window-scoped completions (the result)
	pcie     func(int) sim.Time

	started bool // past initial lease setup: grows/shrinks are elastic events
	tracer  *obs.Tracer

	// hostEnd is one past the last host id this balancer's layout claims;
	// hostsPerTOR is the fabric's TOR width (for aligning the next
	// service's base on a shared fabric).
	hostEnd     int
	hostsPerTOR int

	offered, admitted, shed, completed     metrics.Counter
	wOffered, wAdmitted, wCompleted        metrics.Counter
	hedged, hedgeWins, cancels, cancelHits metrics.Counter
	failovers, resent, grown, shrunk       metrics.Counter

	killAt        sim.Time
	awaitRecovery bool
}

// registerMetrics publishes the balancer's counters into the run's
// registry (no-op when observability is disabled). The window-scoped
// w* counters stay unregistered: they are a measurement-window subset
// of offered/admitted/completed, not independent series.
func (b *Balancer) registerMetrics(reg *obs.Registry) {
	const pkg = "svclb"
	reg.Counter("svclb.offered", "reqs", pkg, "client requests arriving at the SM", &b.offered)
	reg.Counter("svclb.admitted", "reqs", pkg, "requests passing admission control", &b.admitted)
	reg.Counter("svclb.shed", "reqs", pkg, "requests rejected at arrival (no backend or deadline)", &b.shed)
	reg.Counter("svclb.completed", "reqs", pkg, "responses delivered to clients", &b.completed)
	reg.Counter("svclb.hedged", "reqs", pkg, "requests that grew a second (hedge) copy", &b.hedged)
	reg.Counter("svclb.hedge_wins", "reqs", pkg, "requests whose hedge copy responded first", &b.hedgeWins)
	reg.Counter("svclb.cancels", "msgs", pkg, "cancel datagrams sent to hedge losers", &b.cancels)
	reg.Counter("svclb.cancel_hits", "msgs", pkg, "cancels that pulled the loser out of a queue", &b.cancelHits)
	reg.Counter("svclb.failovers", "events", pkg, "backend deaths handled via HaaS replacement", &b.failovers)
	reg.Counter("svclb.resent", "reqs", pkg, "requests re-dispatched after losing every copy", &b.resent)
	reg.Counter("svclb.grown", "events", pkg, "elastic pool grow operations", &b.grown)
	reg.Counter("svclb.shrunk", "events", pkg, "elastic pool shrink operations", &b.shrunk)
	reg.Histogram("svclb.latency", "ns", pkg, "measurement-window request latency", b.measured)
	reg.Windowed("svclb.latency_all", "ns", pkg, "every completion (the autoscale control signal)", b.winLat)
}

// Service is a constructed balancer whose requests, run loop, and clock
// belong to the caller: svclb's own Run drives one with open-loop
// generators; the live-traffic HTTP frontend (internal/frontend) drives
// one from real network requests. All methods must be called from the
// goroutine that owns the simulation.
type Service struct {
	b *Balancer
}

// Request parameterizes one externally submitted request.
type Request struct {
	// Service overrides Config.ServiceTime for this request (0 keeps the
	// configured default) — how a frontend serves per-request cost
	// distributions over one pool.
	Service sim.Time
	// Lag is added to the admission estimate: a real-time frontend
	// passes how far virtual time trails the wall clock, so fall-behind
	// shedding rides the same deadline rule as queueing (see Admission).
	Lag sim.Time
	// Done, if non-nil, fires at completion with the request's latency.
	// Shed requests never fire Done: Submit reports the rejection
	// synchronously instead.
	Done func(latency sim.Time)
}

// NewService builds a standalone balancer on its own simulation and
// fabric, ready for externally driven requests.
func NewService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := sim.New(cfg.Seed)
	if cfg.Telemetry {
		// Must precede component construction: shells, ports, and queues
		// cache the tracer pointer when they are built.
		c := obs.Enable(s)
		if cfg.SpanLimit > 0 {
			c.Tracer.SetLimit(cfg.SpanLimit)
		}
	}
	dc, shells := NewFabric(s, cfg.SlotALMs > 0, cfg.SlotsPerBoard)
	sv := NewServiceOn(s, dc, shells, 0, cfg)
	dc.StartBackgroundLoad(cfg.BackgroundLoad, pkt.ClassRDMA, 1400)
	return sv
}

// NewServiceOn wires a balancer into an existing simulation and fabric,
// so several services (a frontend's ranking and DNN pipelines) can share
// one virtual clock and one datacenter. hostBase is the first host id
// this service may claim and must be TOR-aligned; the caller owns
// telemetry enablement and background load. Layout from hostBase
// mirrors the standalone layout from host 0: clients fill TORs first,
// then the SM host and the pool candidates on the following TORs, so
// request and gossip traffic cross the L1 tier like a real global
// pool's.
func NewServiceOn(s *sim.Simulation, dc *netsim.Datacenter, shells map[int]*shell.Shell, hostBase int, cfg Config) *Service {
	cfg = cfg.withDefaults()
	dcCfg := dc.Config()
	b := &Balancer{
		s: s, cfg: cfg,
		shells:  shells,
		queues:  map[int]*WorkQueue{},
		gossip:  map[int]*sim.Ticker{},
		unwire:  map[int]func(){},
		pending: map[uint64]*pendingReq{},
		winLat:  metrics.NewWindowed(),
	}
	b.tracer = obs.TracerOf(s)
	for i := 0; i < cfg.Clients; i++ {
		dc.Host(hostBase + i)
		b.clients = append(b.clients, clientEnd{host: hostBase + i, sh: shells[hostBase+i]})
	}
	base := hostBase + ((cfg.Clients+dcCfg.HostsPerTOR-1)/dcCfg.HostsPerTOR)*dcCfg.HostsPerTOR
	b.smHost = base
	dc.Host(base)
	poolSize := cfg.FPGAs + cfg.Spares
	if cfg.Autoscale.Interval > 0 && cfg.Autoscale.Max > cfg.FPGAs {
		poolSize = cfg.Autoscale.Max + cfg.Spares
	}
	poolHosts := make([]int, poolSize)
	for i := range poolHosts {
		poolHosts[i] = base + 1 + i
		dc.Host(base + 1 + i)
	}
	b.hostEnd = base + 1 + poolSize
	b.hostsPerTOR = dcCfg.HostsPerTOR

	pcieCfg := shell.DefaultConfig()
	b.pcie = func(n int) sim.Time {
		return pcieCfg.PCIeLatency + sim.Time(int64(n)*8*int64(sim.Second)/pcieCfg.PCIeBps)
	}
	if b.cfg.Admission && b.cfg.NetOverhead <= 0 {
		b.cfg.NetOverhead = b.pcie(cfg.ReqBytes) + b.pcie(cfg.RespBytes) + 20*sim.Microsecond
	}
	b.measured = metrics.NewHistogram()
	b.registerMetrics(obs.RegistryOf(s))

	rng := s.NewRand()
	router, err := NewRouter(rng, cfg.Policy)
	if err != nil {
		panic(err)
	}
	b.router = router

	b.pool, b.in = NewBackendPool(dc, shells, poolHosts, cfg.RMPoll, svcRole{}, b.queues, haas.PoolSpec{
		Tenant: "svclb", Image: serviceImage, ALMs: cfg.SlotALMs,
		OnLost: b.onLost,
	})

	// The SM host terminates the depth gossip.
	sim.Must(shells[b.smHost].SetControlHandler(func(from int, kind uint8, payload []byte) {
		if kind == ctrlDepth && len(payload) >= 4 {
			b.router.ReportDepth(from, int(binary.BigEndian.Uint32(payload)), s.Now())
		}
	}))

	for i := 0; i < cfg.FPGAs; i++ {
		if err := b.grow(); err != nil {
			panic(fmt.Sprintf("svclb: initial lease: %v", err))
		}
	}
	b.started = true
	return &Service{b: b}
}

// Sim returns the simulation the service runs on.
func (sv *Service) Sim() *sim.Simulation { return sv.b.s }

// Clients returns the number of ingress client hosts the service was
// built with; Submit's client index must be in [0, Clients).
func (sv *Service) Clients() int { return len(sv.b.clients) }

// NextHostBase returns the first TOR-aligned host id past the hosts this
// service occupies — where the next service on the same fabric starts.
func (sv *Service) NextHostBase() int {
	hpt := sv.b.hostsPerTOR
	return ((sv.b.hostEnd + hpt - 1) / hpt) * hpt
}

// Submit runs one request from client index ci through admission,
// routing, and the packet-level data plane. It returns the request id
// and true when admitted (req.Done fires at completion), or 0 and false
// when shed.
func (sv *Service) Submit(ci int, req Request) (uint64, bool) {
	return sv.b.submit(ci, req)
}

// Admission returns the deadline rule this service sheds by, for a
// request with the given service time (0 = the configured default).
func (sv *Service) Admission(svc sim.Time) Admission {
	return sv.b.admission(svc)
}

// Stop releases control-plane resources (the HaaS health poll and
// depth gossip). In-flight requests still complete if the caller keeps
// running the simulation.
func (sv *Service) Stop() {
	sv.b.pool.RM().Stop()
	for _, t := range sv.b.gossip {
		t.Stop()
	}
}

// Result snapshots the service's counters and latency percentiles.
func (sv *Service) Result() Result { return sv.b.result() }

// Run executes one balancer measurement.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	sv := NewService(cfg)
	b := sv.b
	s := b.s

	gens := make([]*workload.OpenLoop, cfg.Clients)
	for ci := range b.clients {
		ci := ci
		gens[ci] = workload.NewOpenLoop(s, cfg.ClientRate, func() { b.arrive(ci) })
		gens[ci].Start()
	}

	var as *autoscaler
	if cfg.Autoscale.Interval > 0 {
		as = b.startAutoscaler()
	}

	if cfg.KillAt > 0 {
		s.Schedule(cfg.KillAt, func() {
			live := b.router.Live()
			if len(live) == 0 {
				return
			}
			b.killAt = s.Now()
			b.awaitRecovery = true
			b.in.KillNode(live[0].Host)
		})
	}

	end := cfg.Warmup + cfg.Duration
	s.RunUntil(end)
	for _, g := range gens {
		g.Stop()
	}
	s.RunUntil(end + cfg.Drain)
	b.pool.RM().Stop()
	if as != nil {
		as.stop()
	}
	return b.result()
}

// result snapshots the balancer's counters and latency percentiles,
// collecting telemetry when observability is enabled.
func (b *Balancer) result() Result {
	cfg := b.cfg
	res := Result{
		Policy:  cfg.Policy,
		Clients: cfg.Clients,
		FPGAs:   cfg.FPGAs,
		Ratio:   float64(cfg.Clients) / float64(cfg.FPGAs),

		Offered: b.offered.Value(), Admitted: b.admitted.Value(),
		Shed: b.shed.Value(), Completed: b.completed.Value(),

		Avg: sim.Time(int64(b.measured.Mean())),
		P50: sim.Time(b.measured.Percentile(50)),
		P95: sim.Time(b.measured.Percentile(95)),
		P99: sim.Time(b.measured.Percentile(99)),

		Hedged: b.hedged.Value(), HedgeWins: b.hedgeWins.Value(),
		Cancels: b.cancels.Value(), CancelHits: b.cancelHits.Value(),
		Failovers: b.failovers.Value(), Resent: b.resent.Value(),
		Grown: b.grown.Value(), Shrunk: b.shrunk.Value(),

		FinalBackends: len(b.router.Live()),
		RouteHash:     b.router.RouteHash(),
	}
	if b.wOffered.Value() > 0 {
		res.AdmitRate = float64(b.wAdmitted.Value()) / float64(b.wOffered.Value())
		res.Goodput = float64(b.wCompleted.Value()) / float64(b.wOffered.Value())
	}
	if h := b.in.Stats.Recovery[faultinject.NodeKill]; h.Count() > 0 {
		res.Recovery = sim.Time(h.Percentile(99))
	}
	if c := obs.Of(b.s); c != nil {
		label := cfg.Policy
		if cfg.Admission {
			label += "+ac"
		}
		if cfg.HedgeDelay > 0 {
			label += "+hedge"
		}
		point := fmt.Sprintf("%s c=%d f=%d", label, cfg.Clients, cfg.FPGAs)
		res.Telemetry = obs.Collect(c, "svclb", point)
	}
	return res
}

// admission returns the deadline rule for a request with the given
// service time (0 = the configured default). When admission control is
// off the returned rule's Deadline is zero, which admits everything.
func (b *Balancer) admission(svc sim.Time) Admission {
	if svc <= 0 {
		svc = b.cfg.ServiceTime
	}
	a := Admission{ServiceTime: svc, NetOverhead: b.cfg.NetOverhead}
	if b.cfg.Admission {
		a.Deadline = b.cfg.Deadline
	}
	return a
}

// inWindow reports whether t falls in the measurement window. A
// non-positive Duration means an externally driven service with no
// predetermined end: everything past warmup is measured.
func (b *Balancer) inWindow(t sim.Time) bool {
	if t < b.cfg.Warmup {
		return false
	}
	return b.cfg.Duration <= 0 || t < b.cfg.Warmup+b.cfg.Duration
}

// arrive handles one generator request: admission, routing, dispatch.
func (b *Balancer) arrive(ci int) {
	b.submit(ci, Request{})
}

// submit runs one request through admission, routing, and dispatch.
// This is arrive generalized for external callers: a per-request
// service-time override, an admission lag term, and a completion
// callback. With a zero Request it is byte-for-byte the generator path.
func (b *Balancer) submit(ci int, req Request) (uint64, bool) {
	now := b.s.Now()
	inWindow := b.inWindow(now)
	b.offered.Inc()
	if inWindow {
		b.wOffered.Inc()
	}
	sl, ok := b.router.Pick()
	if !ok {
		b.shed.Inc()
		b.tracer.Event(0, "svclb.shed", 0, int64(ci))
		return 0, false
	}
	if !b.admission(req.Service).Admit(estDepth(sl), req.Lag) {
		b.router.Done(sl)
		b.shed.Inc()
		b.tracer.Event(0, "svclb.shed", 0, int64(ci))
		return 0, false
	}
	b.admitted.Inc()
	if inWindow {
		b.wAdmitted.Inc()
	}
	b.nextReq++
	p := &pendingReq{id: b.nextReq, client: ci, t0: now, svc: req.Service, done: req.Done}
	if b.tracer != nil {
		p.flow = obs.ReqFlow(p.id)
		p.span = b.tracer.Start(p.flow, "svclb.request", 0)
		b.tracer.SetArg(p.span, int64(ci))
	}
	b.pending[p.id] = p
	b.sendCopy(p, sl, false)
	if b.cfg.HedgeDelay > 0 {
		p.hedgeEv = b.s.Schedule(b.cfg.HedgeDelay, func() { b.hedge(p) })
	}
	return p.id, true
}

// serviceOf returns the service time a backend should charge request
// id: the per-request override when one was submitted, else the
// configured default.
func (b *Balancer) serviceOf(reqID uint64) sim.Time {
	if p := b.pending[reqID]; p != nil && p.svc > 0 {
		return p.svc
	}
	return b.cfg.ServiceTime
}

// sendCopy dispatches one copy of p to sl (PCIe then LTL).
func (b *Balancer) sendCopy(p *pendingReq, sl *Slot, hedge bool) {
	c := &reqCopy{slot: sl, hedge: hedge}
	p.copies = append(p.copies, c)
	// Literal span names keep the telemetry inventory statically
	// extractable (ccdocs cross-checks them against OBSERVABILITY.md).
	if hedge {
		b.tracer.Event(p.flow, "svclb.hedge_copy", p.span, int64(sl.Host))
	} else {
		b.tracer.Event(p.flow, "svclb.copy", p.span, int64(sl.Host))
	}
	req := make([]byte, b.cfg.ReqBytes)
	binary.BigEndian.PutUint64(req, p.id)
	cs := b.clients[p.client].sh
	b.s.Schedule(b.pcie(b.cfg.ReqBytes), func() {
		if c.gone {
			return
		}
		if !c.slot.live {
			// The backend died between the routing decision and the PCIe
			// DMA finishing; the failure scan has already run, so this copy
			// re-routes itself.
			c.gone = true
			b.reroute(p)
			return
		}
		cs.SendRemote(uint16(c.slot.Index)+1, req, nil)
	})
}

// hedge sends a second copy of a still-pending request to a different
// backend.
func (b *Balancer) hedge(p *pendingReq) {
	if _, live := b.pending[p.id]; !live {
		return
	}
	var first *Slot
	for _, c := range p.copies {
		if !c.gone {
			first = c.slot
		}
	}
	sl, ok := b.router.PickExcluding(first)
	if !ok {
		return
	}
	b.hedged.Inc()
	b.sendCopy(p, sl, true)
}

// onResponse handles the response for req id arriving at client ci from
// slot sl (the winner if copies were hedged).
func (b *Balancer) onResponse(ci int, sl *Slot, reqID uint64) {
	p, ok := b.pending[reqID]
	if !ok {
		return // late duplicate from a hedge loser or a cancel miss
	}
	delete(b.pending, reqID)
	b.s.Cancel(p.hedgeEv)
	winnerIdx := -1
	for i, c := range p.copies {
		if !c.gone && c.slot == sl {
			winnerIdx = i
			break
		}
	}
	for i, c := range p.copies {
		if c.gone || i == winnerIdx {
			continue
		}
		// A losing hedge copy: release its routing slot and try to pull it
		// back out of the backend's queue before it wastes service time.
		c.gone = true
		if c.slot.live {
			b.router.Done(c.slot)
			b.cancels.Inc()
			b.tracer.Event(p.flow, "svclb.cancel", p.span, int64(c.slot.Host))
			var idb [8]byte
			binary.BigEndian.PutUint64(idb[:], reqID)
			sim.Must(b.clients[ci].sh.SendControl(c.slot.Host, ctrlCancel, idb[:]))
		}
	}
	if winnerIdx >= 0 {
		b.router.Done(sl)
		if p.copies[winnerIdx].hedge {
			b.hedgeWins.Inc()
			b.tracer.Event(p.flow, "svclb.hedge_win", p.span, int64(sl.Host))
		}
	}
	b.s.Schedule(b.pcie(b.cfg.RespBytes), func() {
		now := b.s.Now()
		lat := int64(now - p.t0)
		b.completed.Inc()
		b.tracer.End(p.span)
		b.winLat.Observe(lat)
		if b.inWindow(p.t0) {
			b.wCompleted.Inc()
			b.measured.Observe(lat)
		}
		if p.failedOver && b.awaitRecovery {
			// First request completed after being re-routed off the killed
			// backend: the fault is masked from this client's perspective.
			b.in.RecordRecovery(faultinject.NodeKill, now-b.killAt)
			b.awaitRecovery = false
		}
		if p.done != nil {
			p.done(sim.Time(lat))
		}
	})
}

// grow leases one more FPGA and wires it into the pool. A slot claim's
// backend wires at grant like a board's: its reconfiguration window
// plays the same part as a whole board's role load.
func (b *Balancer) grow() error {
	m, err := b.pool.Grow()
	if err != nil {
		return err
	}
	b.addBackend(int(m.Node))
	if b.started {
		b.grown.Inc()
	}
	return nil
}

// shrink drains and releases the newest-leased backend. In-flight work
// on it still completes: the lease is returned but the connections stay
// up until the host is re-wired.
func (b *Balancer) shrink() {
	m := b.pool.Shrink()
	if m == nil {
		return
	}
	b.removeBackend(int(m.Node))
	b.shrunk.Inc()
}

// addBackend wires host h into the data plane and the routing view.
func (b *Balancer) addBackend(h int) {
	if tear := b.unwire[h]; tear != nil {
		tear() // host reused after a drain: drop the stale wiring epoch
	}
	q := NewWorkQueue(b.s, h)
	b.queues[h] = q
	fs := b.shells[h]
	sl := b.router.AddSlot(h)

	sim.Must(fs.SetControlHandler(func(_ int, kind uint8, payload []byte) {
		if kind == ctrlCancel && len(payload) >= 8 {
			if q.Cancel(binary.BigEndian.Uint64(payload)) {
				b.cancelHits.Inc()
			}
		}
	}))

	for ci := range b.clients {
		ci, ch := ci, b.clients[ci].host
		cs := b.clients[ci].sh
		sim.Must(cs.OpenRemoteSend(uint16(sl.Index)+1, h, uint16(ci)+1, nil))
		sim.Must(fs.OpenRemoteSend(uint16(ci)+1000, ch, uint16(sl.Index)+1000, nil))
		sim.Must(fs.OpenRemoteRecv(uint16(ci)+1, ch, func(payload []byte) {
			reqID := binary.BigEndian.Uint64(payload)
			q.Submit(reqID, b.serviceOf(reqID), func() {
				resp := make([]byte, b.cfg.RespBytes)
				binary.BigEndian.PutUint64(resp, reqID)
				fs.SendRemote(uint16(ci)+1000, resp, nil)
			})
		}))
		sim.Must(cs.OpenRemoteRecv(uint16(sl.Index)+1000, h, func(payload []byte) {
			b.onResponse(ci, sl, binary.BigEndian.Uint64(payload))
		}))
	}
	b.unwire[h] = func() {
		for ci := range b.clients {
			fs.Engine.Close(uint16(ci) + 1)
			fs.Engine.Close(uint16(ci) + 1000)
		}
	}

	// Depth gossip, phase-offset per slot so the pool's reports interleave
	// instead of arriving as a synchronized burst.
	first := b.cfg.GossipInterval * sim.Time(1+sl.Index%8) / 8
	b.gossip[h] = b.s.Every(first, b.cfg.GossipInterval, func() {
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(q.Depth()))
		sim.Must(fs.SendControl(b.smHost, ctrlDepth, buf[:]))
	})
}

// removeBackend takes host h out of the routing view and stops its
// depth gossip.
func (b *Balancer) removeBackend(h int) {
	if sl := b.router.SlotOnHost(h); sl != nil {
		b.router.RemoveSlot(sl)
	}
	if t := b.gossip[h]; t != nil {
		t.Stop()
		delete(b.gossip, h)
	}
}

// onLost handles a backend's board death: unwire the dead host, wire the
// pool's replacement (if one was granted), then resend every pending
// request that was lost with the dead backend.
func (b *Balancer) onLost(m *haas.Member, dead haas.NodeID) {
	b.failovers.Inc()
	b.removeBackend(int(dead))
	delete(b.unwire, int(dead)) // the dead shell's connections die with it
	if m.Node != dead {
		b.addBackend(int(m.Node))
	}
	b.resendOrphans()
}

// resendOrphans scans pending requests in id order (deterministic
// multi-failure handling) and resends any whose every copy is lost.
func (b *Balancer) resendOrphans() {
	ids := make([]uint64, 0, len(b.pending))
	for id := range b.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p := b.pending[id]
		alive := false
		for _, c := range p.copies {
			if c.gone {
				continue
			}
			if !c.slot.live {
				c.gone = true
				continue
			}
			alive = true
		}
		if !alive {
			b.reroute(p)
		}
	}
}

// reroute resends a request whose copies were all lost to failures.
func (b *Balancer) reroute(p *pendingReq) {
	sl, ok := b.router.Pick()
	if !ok {
		// No live backend at all; retry when the pool recovers. The request
		// stays pending, so it is never silently lost.
		b.s.Schedule(b.cfg.RMPoll, func() {
			if _, live := b.pending[p.id]; live {
				b.reroute(p)
			}
		})
		return
	}
	p.failedOver = true
	b.resent.Inc()
	b.tracer.Event(p.flow, "svclb.reroute", p.span, int64(sl.Host))
	b.sendCopy(p, sl, false)
}

// NewFabric builds a standalone datacenter on s with a shell on every
// host, for svclb and every service built like it. A slotted fabric
// partitions each shell's role region into slotsPerBoard vFPGA slots
// (at least 2).
func NewFabric(s *sim.Simulation, slotted bool, slotsPerBoard int) (*netsim.Datacenter, map[int]*shell.Shell) {
	shells := map[int]*shell.Shell{}
	dcCfg := netsim.DefaultConfig()
	dcCfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		shCfg := shell.DefaultConfig()
		if slotted {
			shCfg.Slots = shell.DefaultSlotConfig(max(slotsPerBoard, 2))
		}
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shCfg)
		shells[hostID] = sh
		return sh
	}
	return netsim.NewDatacenter(s, dcCfg), shells
}

// NewBackendPool builds the backend pool of svclb and every service
// built like it: a Resource Manager polling health every rmPoll, a fault
// injector that can kill any of hosts, and a haas.Pool leasing them
// under spec. Each host registers through an FPGA Manager that loads
// role (the pool picks board or slot registration from spec.ALMs); when
// queues is non-nil the FM reports each host's WorkQueue depth (-1
// before the host is wired).
func NewBackendPool(dc *netsim.Datacenter, shells map[int]*shell.Shell, hosts []int, rmPoll sim.Time,
	role shell.Role, queues map[int]*WorkQueue, spec haas.PoolSpec) (*haas.Pool, *faultinject.Injector) {
	pool := haas.NewPool(haas.NewResourceManager(dc.Sim, haas.RMConfig{
		HealthPollInterval: rmPoll,
		PodOf:              func(id haas.NodeID) int { p, _, _ := dc.Locate(int(id)); return p },
	}), spec)
	in := faultinject.New(dc.Sim)
	for _, h := range hosts {
		h, sh := h, shells[h]
		in.AddNode(h, sh)
		fm := &haas.FPGAManager{
			Node:      haas.NodeID(h),
			Configure: func(string) { sh.LoadRole(role) },
			Healthy:   func() bool { return in.NodeAlive(h) },
		}
		if queues != nil {
			fm.Depth = func() int {
				if q := queues[h]; q != nil {
					return q.Depth()
				}
				return -1
			}
		}
		pool.AddNode(&haas.SlotFM{
			FM:   fm,
			Caps: sh.SlotCaps(),
			ConfigureSlot: func(slot int, tenant, _ string, alms int, done func(ok bool)) (sim.Time, error) {
				return sh.ReconfigureSlot(slot, tenant, role, alms, done)
			},
			ClearSlot: sh.ClearSlot,
		})
	}
	return pool, in
}

// svcRole marks pool shells' role slot occupied; the data path runs
// through OpenRemoteRecv handlers.
type svcRole struct{}

func (svcRole) Name() string { return serviceImage }
func (svcRole) HandleRequest(src shell.RequestSource, payload []byte, respond func([]byte)) {
	respond(payload)
}
