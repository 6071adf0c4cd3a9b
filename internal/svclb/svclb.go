// Package svclb is the service-level load-balancing layer of §V-F: a
// Service Manager for a pool of HaaS-leased FPGAs that routes client
// requests through pluggable policies (random, round-robin,
// join-shortest-queue, power-of-two-choices over the balancer's own
// outstanding counts), sheds load that cannot meet its deadline,
// optionally hedges slow requests onto a second replica (cancelling the
// loser), and masks a backend's board death by re-leasing a spare and
// resending what it lost.
//
// The data plane is fully packet-level: requests cross PCIe, LTL, and the
// simulated fabric exactly as dnnpool's do. Each pool has exactly one
// balancer, so the requests it has routed and not yet seen answered are
// an exact load signal and no backend reports its depth. A hedge cancel
// is a best-effort service datagram of a reserved kind: it crosses the
// losing backend's Elastic Router on the service channel, and a hung
// backend swallows it like any other datagram. Everything draws from the
// simulation seed: a run is bit-identical under replay, including its
// routing decisions (witnessed by Result.RouteHash).
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

// kindCancel is svclb's reserved service-datagram kind: client ->
// backend, a uint64 request id to pull out of the backend's queue.
const kindCancel uint8 = 0x10

const serviceImage = "svclb-v1"

// Config parameterizes one balancer run.
type Config struct {
	Seed    int64
	Clients int
	// FPGAs is the leased pool size; Spares are additional
	// registered-but-free nodes available for failover. Policy is the
	// head host's routing policy (one of the Policy constants).
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

	// Admission enables deadline-aware shedding: a request is rejected at
	// arrival when the chosen backend's estimated completion time exceeds
	// Deadline (a non-positive Deadline sheds nothing).
	Admission bool
	Deadline  sim.Time

	// HedgeDelay, when positive, sends a second copy of a request that has
	// not completed after the delay to a different backend; the first
	// response wins and the loser is cancelled.
	HedgeDelay sim.Time

	// RMPoll is the HaaS health-poll period (failure-detection latency).
	RMPoll sim.Time

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
		Admission:      true,
		Deadline:       2500 * sim.Microsecond,
		HedgeDelay:     0,
		RMPoll:         sim.Millisecond,
		BackgroundLoad: 0.05,
	}
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
	Ratio   float64 // clients per leased FPGA

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
	// externally submitted requests (Submit).
	svc  sim.Time
	done func(latency sim.Time)

	flow obs.FlowID // ReqFlow(id); 0 when tracing is disabled
	span obs.SpanID // the svclb.request root span
}

// Service is the balancer, svclb's Service Manager: it owns the lease
// set, the routing view, and every in-flight request. The routing
// decision is shared state between the SM and the clients it hands
// pointers to — only the load signals it decides on travel the simulated
// network. Its requests, run loop and clock belong to the caller: svclb's
// own Run drives one with open-loop generators; the live-traffic HTTP
// frontend (internal/frontend) drives one from real network requests.
// All methods must be called from the goroutine that owns the
// simulation.
type Service struct {
	*Deployment
	cfg Config

	// netOverhead is the admission estimator's allowance for everything
	// that is not queueing: PCIe both ways plus the fabric.
	netOverhead sim.Time

	pending map[uint64]*pendingReq
	nextReq uint64

	measured *metrics.Histogram // window-scoped completions (the result)

	tracer *obs.Tracer

	offered, admitted, shed, completed     metrics.Counter
	wOffered, wAdmitted, wCompleted        metrics.Counter
	hedged, hedgeWins, cancels, cancelHits metrics.Counter
	failovers, resent                      metrics.Counter

	killAt        sim.Time
	awaitRecovery bool

	// msg is the reused request/response body: a request id followed by
	// zeros (only the first eight bytes are ever written). SendRemote
	// copies it into flits before returning.
	msg []byte
}

// message returns an n-byte wire body carrying request id in its first
// eight bytes, built in the balancer's reused buffer.
func (b *Service) message(id uint64, n int) []byte {
	if len(b.msg) < n {
		b.msg = make([]byte, n)
	}
	binary.BigEndian.PutUint64(b.msg, id)
	return b.msg[:n]
}

// registerMetrics publishes the balancer's counters into the run's
// registry (no-op when observability is disabled). The window-scoped
// w* counters stay unregistered: they are a measurement-window subset
// of offered/admitted/completed, not independent series.
func (b *Service) registerMetrics(reg *obs.Registry) {
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
	reg.Histogram("svclb.latency", "ns", pkg, "measurement-window request latency", b.measured)
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
	s, dc, shells := Standalone(cfg.Seed, cfg.Telemetry, cfg.SpanLimit)
	sv := NewServiceOn(s, dc, shells, 0, cfg)
	dc.StartBackgroundLoad(cfg.BackgroundLoad, pkt.ClassRDMA, 1400)
	return sv
}

// NewServiceOn wires a balancer into an existing simulation and fabric,
// so several services (a frontend's ranking and DNN pipelines) can share
// one virtual clock and one datacenter. hostBase is the first host id
// this service may claim and must be TOR-aligned; the caller owns
// telemetry enablement and background load. The SM is the deployment's
// head host (see Deploy for the layout).
func NewServiceOn(s *sim.Simulation, dc *netsim.Datacenter, shells map[int]*shell.Shell, hostBase int, cfg Config) *Service {
	b := &Service{
		cfg:         cfg,
		netOverhead: shell.PCIeTime(cfg.ReqBytes) + shell.PCIeTime(cfg.RespBytes) + 20*sim.Microsecond,
		pending:     map[uint64]*pendingReq{},
		measured:    metrics.NewHistogram(),
		tracer:      obs.TracerOf(s),
	}
	b.registerMetrics(obs.RegistryOf(s))
	b.Deployment = Deploy(s, dc, shells, hostBase, cfg.Clients, cfg.Policy, cfg.FPGAs+cfg.Spares, cfg.RMPoll, haas.PoolSpec{
		Tenant: "svclb", Image: serviceImage,
		OnLost: b.onLost,
	})
	for i := 0; i < cfg.FPGAs; i++ {
		m, err := b.Pool.Grow()
		if err != nil {
			panic(fmt.Sprintf("svclb: initial lease: %v", err))
		}
		b.addBackend(int(m.Node))
	}
	return b
}

// Clients returns the number of ingress client hosts the service was
// built with; Submit's client index must be in [0, Clients).
func (b *Service) Clients() int { return len(b.ClientEnds) }

// Run executes one balancer measurement.
func Run(cfg Config) Result {
	b := NewService(cfg)
	s := b.s

	gens := make([]*workload.OpenLoop, cfg.Clients)
	for ci := range b.ClientEnds {
		gens[ci] = workload.NewOpenLoop(s, cfg.ClientRate, func() { b.arrive(ci) })
		gens[ci].Start()
	}

	if cfg.KillAt > 0 {
		s.Schedule(cfg.KillAt, func() {
			live := b.Router.Live()
			if len(live) == 0 {
				return
			}
			b.killAt = s.Now()
			b.awaitRecovery = true
			b.In.KillNode(live[0].Host)
		})
	}

	end := cfg.Warmup + cfg.Duration
	s.RunUntil(end)
	for _, g := range gens {
		g.Stop()
	}
	s.RunUntil(end + cfg.Drain)
	b.Pool.RM().Stop()
	return b.Result()
}

// Result snapshots the service's counters and latency percentiles,
// collecting telemetry when observability is enabled.
func (b *Service) Result() Result {
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

		FinalBackends: len(b.Router.Live()),
		RouteHash:     b.Router.RouteHash(),
	}
	if b.wOffered.Value() > 0 {
		res.AdmitRate = float64(b.wAdmitted.Value()) / float64(b.wOffered.Value())
		res.Goodput = float64(b.wCompleted.Value()) / float64(b.wOffered.Value())
	}
	if h := b.In.Stats.Recovery[faultinject.NodeKill]; h.Count() > 0 {
		res.Recovery = sim.Time(h.Percentile(99))
	}
	if obs.Of(b.s) != nil {
		label := cfg.Policy
		if cfg.Admission {
			label += "+ac"
		}
		if cfg.HedgeDelay > 0 {
			label += "+hedge"
		}
		res.Telemetry = b.Telemetry("svclb", fmt.Sprintf("%s c=%d f=%d", label, cfg.Clients, cfg.FPGAs))
	}
	return res
}

// Admission returns the deadline rule this service sheds by, for a
// request with the given service time (0 = the configured default).
// When admission control is off the returned rule's Deadline is zero,
// which admits everything.
func (b *Service) Admission(svc sim.Time) Admission {
	if svc <= 0 {
		svc = b.cfg.ServiceTime
	}
	a := Admission{ServiceTime: svc, NetOverhead: b.netOverhead}
	if b.cfg.Admission {
		a.Deadline = b.cfg.Deadline
	}
	return a
}

// inWindow reports whether t falls in the measurement window. A
// non-positive Duration means an externally driven service with no
// predetermined end: everything past warmup is measured.
func (b *Service) inWindow(t sim.Time) bool {
	if t < b.cfg.Warmup {
		return false
	}
	return b.cfg.Duration <= 0 || t < b.cfg.Warmup+b.cfg.Duration
}

// arrive handles one generator request: admission, routing, dispatch.
func (b *Service) arrive(ci int) {
	b.Submit(ci, Request{})
}

// Submit runs one request from client index ci through admission,
// routing, and the packet-level data plane. It returns the request id
// and true when admitted (req.Done fires at completion), or 0 and false
// when shed. This is arrive generalized for external callers: a
// per-request service-time override, an admission lag term, and a
// completion callback. With a zero Request it is byte-for-byte the
// generator path.
func (b *Service) Submit(ci int, req Request) (uint64, bool) {
	now := b.s.Now()
	inWindow := b.inWindow(now)
	b.offered.Inc()
	if inWindow {
		b.wOffered.Inc()
	}
	sl, ok := b.Router.Pick()
	if !ok {
		b.shed.Inc()
		b.tracer.Event(0, "svclb.shed", 0, int64(ci))
		return 0, false
	}
	if !b.Admission(req.Service).Admit(sl.Outstanding, req.Lag) {
		b.Router.Done(sl)
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
func (b *Service) serviceOf(reqID uint64) sim.Time {
	if p := b.pending[reqID]; p != nil && p.svc > 0 {
		return p.svc
	}
	return b.cfg.ServiceTime
}

// sendCopy dispatches one copy of p to sl (PCIe then LTL).
func (b *Service) sendCopy(p *pendingReq, sl *Slot, hedge bool) {
	c := &reqCopy{slot: sl, hedge: hedge}
	p.copies = append(p.copies, c)
	// Literal span names keep the telemetry inventory statically
	// extractable (ccdocs cross-checks them against OBSERVABILITY.md).
	if hedge {
		b.tracer.Event(p.flow, "svclb.hedge_copy", p.span, int64(sl.Host))
	} else {
		b.tracer.Event(p.flow, "svclb.copy", p.span, int64(sl.Host))
	}
	cs := b.ClientEnds[p.client]
	b.s.Schedule(shell.PCIeTime(b.cfg.ReqBytes), func() {
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
		cs.SendRemote(uint16(c.slot.Index)+1, b.message(p.id, b.cfg.ReqBytes), nil)
	})
}

// hedge sends a second copy of a still-pending request to a different
// backend.
func (b *Service) hedge(p *pendingReq) {
	if _, live := b.pending[p.id]; !live {
		return
	}
	var first *Slot
	for _, c := range p.copies {
		if !c.gone {
			first = c.slot
		}
	}
	sl, ok := b.Router.PickExcluding(first)
	if !ok {
		return
	}
	b.hedged.Inc()
	b.sendCopy(p, sl, true)
}

// onResponse handles the response for req id arriving at client ci from
// slot sl (the winner if copies were hedged).
func (b *Service) onResponse(ci int, sl *Slot, reqID uint64) {
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
			b.Router.Done(c.slot)
			b.cancels.Inc()
			b.tracer.Event(p.flow, "svclb.cancel", p.span, int64(c.slot.Host))
			var idb [8]byte
			binary.BigEndian.PutUint64(idb[:], reqID)
			b.ClientEnds[ci].SendDatagram(c.slot.Host, kindCancel, idb[:])
		}
	}
	if winnerIdx >= 0 {
		b.Router.Done(sl)
		if p.copies[winnerIdx].hedge {
			b.hedgeWins.Inc()
			b.tracer.Event(p.flow, "svclb.hedge_win", p.span, int64(sl.Host))
		}
	}
	b.s.Schedule(shell.PCIeTime(b.cfg.RespBytes), func() {
		now := b.s.Now()
		lat := int64(now - p.t0)
		b.completed.Inc()
		b.tracer.End(p.span)
		if b.inWindow(p.t0) {
			b.wCompleted.Inc()
			b.measured.Observe(lat)
		}
		if p.failedOver && b.awaitRecovery {
			// First request completed after being re-routed off the killed
			// backend: the fault is masked from this client's perspective.
			b.In.RecordRecovery(faultinject.NodeKill, now-b.killAt)
			b.awaitRecovery = false
		}
		if p.done != nil {
			p.done(sim.Time(lat))
		}
	})
}

// addBackend wires host h into the data plane and the routing view.
func (b *Service) addBackend(h int) {
	q := NewWorkQueue(b.s, h)
	fs := b.Shells[h]
	sl := b.Router.AddSlot(h)

	fs.SetServiceHandler(func(_ int, kind uint8, payload []byte) {
		if kind == kindCancel && len(payload) >= 8 && q.Cancel(binary.BigEndian.Uint64(payload)) {
			b.cancelHits.Inc()
		}
	})

	for ci, cs := range b.ClientEnds {
		ch := cs.HostID()
		sim.Must(cs.OpenRemoteSend(uint16(sl.Index)+1, h, uint16(ci)+1))
		sim.Must(fs.OpenRemoteSend(uint16(ci)+1000, ch, uint16(sl.Index)+1000))
		sim.Must(fs.OpenRemoteRecv(uint16(ci)+1, ch, func(payload []byte) {
			reqID := binary.BigEndian.Uint64(payload)
			q.Submit(reqID, b.serviceOf(reqID), func() {
				fs.SendRemote(uint16(ci)+1000, b.message(reqID, b.cfg.RespBytes), nil)
			})
		}))
		sim.Must(cs.OpenRemoteRecv(uint16(sl.Index)+1000, h, func(payload []byte) {
			b.onResponse(ci, sl, binary.BigEndian.Uint64(payload))
		}))
	}
}

// onLost handles a backend's board death: retire the dead host, wire the
// pool's replacement (if one was granted), then resend every pending
// request that was lost with the dead backend. The replacement is wired
// before the resend so the resend can route to it.
func (b *Service) onLost(m *haas.Member, dead haas.NodeID) {
	b.failovers.Inc()
	b.Retire(int(dead))
	if m.Node != dead {
		b.addBackend(int(m.Node))
	}
	b.resendOrphans()
}

// resendOrphans scans pending requests in id order (deterministic
// multi-failure handling) and resends any whose every copy is lost.
func (b *Service) resendOrphans() {
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
func (b *Service) reroute(p *pendingReq) {
	sl, ok := b.Router.Pick()
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
