// Package rpcnic is a Dagger-style RPC NIC: serialization handling and
// dispatch offloaded from host software onto the FPGA that already sits
// between the NIC and the TOR (paper §III; Dagger in PAPERS.md argues the
// close coupling is what makes RPC offload pay).
//
// Serialized RPCs arrive at a dispatcher node as LTL service datagrams.
// In Offload mode the dispatcher's FPGA role decodes each request in a
// fixed hardware pipeline and forwards it over LTL to a HaaS-leased
// backend pool, picking backends with svclb's routing policies fed by
// queue-depth gossip; the response returns the same way. The dispatcher
// host's CPU never runs. In the host-software baseline the same bytes
// cross PCIe to the host, wait in a single-server CPU queue whose decode
// cost scales with message size, and cross PCIe again toward the backend
// — twice more on the response path. The measured gap (per-request
// latency and its tail as the host queue builds) is the offload
// argument, reported by E18.
package rpcnic

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/haas"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/svclb"
	"repro/internal/workload"
)

// backendImage names the role bitstream backend leases load.
const backendImage = "rpcnic-backend-v1"

// Config parameterizes a dispatcher deployment and its measurement run.
type Config struct {
	Seed int64
	// Offload selects the FPGA dispatcher; false runs the host-software
	// baseline on the same topology, seeds, and workload.
	Offload bool

	// Callers is the number of RPC-generating hosts; each runs an
	// open-loop generator at Rate requests per second.
	Callers int
	Rate    float64
	// Backends is the leased worker pool size; Spares stay registered
	// for failover. Policy is the svclb routing policy at the dispatcher.
	Backends, Spares int
	Policy           string

	// ArgBytes/RetBytes size the serialized request and response.
	ArgBytes, RetBytes int

	// NICDecode is the FPGA pipeline's fixed decode+dispatch latency.
	// HostDecodeFixed + HostDecodePerByte*len is the host CPU cost for
	// the same work (single-server queue at the dispatcher host).
	NICDecode         sim.Time
	HostDecodeFixed   sim.Time
	HostDecodePerByte sim.Time

	// Batch enables Dagger-style doorbell batching on the offload ingress
	// pipeline (ignored by the host baseline). Requests accumulate at the
	// NIC until the doorbell fills (Size) or the first-queued request has
	// waited Window; the whole batch then crosses the decode pipeline as
	// one dispatch event. Batching trades per-request pipeline events for
	// queueing delay — E18b reports the throughput/p99 trade-off.
	Batch BatchConfig

	Duration sim.Time
	Drain    sim.Time
	Timeout  sim.Time

	RMPoll         sim.Time
	GossipInterval sim.Time

	FaultProfile   string
	BackgroundLoad float64
	Telemetry      bool
	SpanLimit      int
}

// BatchConfig shapes the offload pipeline's doorbell batching.
type BatchConfig struct {
	// Size is the doorbell capacity; <= 1 disables batching entirely and
	// the ingress path is event-for-event identical to the unbatched
	// build (the E18 digest witness).
	Size int
	// Window bounds how long the first queued request may wait for the
	// doorbell to fill (default 2us when Size > 1).
	Window sim.Time
}

// DefaultConfig returns a pool sized so the host-software baseline is
// loaded but not saturated — the tail gap is queueing, not collapse.
func DefaultConfig() Config {
	return Config{
		Offload: true,
		Callers: 6, Rate: 15000,
		Backends: 4, Spares: 1,
		Policy:   svclb.PolicyP2C,
		ArgBytes: 256, RetBytes: 64,
		NICDecode:         250 * sim.Nanosecond,
		HostDecodeFixed:   3 * sim.Microsecond,
		HostDecodePerByte: 5 * sim.Nanosecond,
		Duration:          10 * sim.Millisecond,
		Drain:             5 * sim.Millisecond,
		Timeout:           4 * sim.Millisecond,
		RMPoll:            5 * sim.Millisecond,
		GossipInterval:    100 * sim.Microsecond,
	}
}

func (cfg Config) withDefaults() Config {
	d := DefaultConfig()
	if cfg.Callers <= 0 {
		cfg.Callers = d.Callers
	}
	if cfg.Rate <= 0 {
		cfg.Rate = d.Rate
	}
	if cfg.Backends <= 0 {
		cfg.Backends = d.Backends
	}
	if cfg.Spares < 0 {
		cfg.Spares = 0
	}
	if cfg.Policy == "" {
		cfg.Policy = d.Policy
	}
	if cfg.ArgBytes <= 0 {
		cfg.ArgBytes = d.ArgBytes
	}
	if cfg.RetBytes <= 0 {
		cfg.RetBytes = d.RetBytes
	}
	if cfg.NICDecode <= 0 {
		cfg.NICDecode = d.NICDecode
	}
	if cfg.HostDecodeFixed <= 0 {
		cfg.HostDecodeFixed = d.HostDecodeFixed
	}
	if cfg.HostDecodePerByte < 0 {
		cfg.HostDecodePerByte = d.HostDecodePerByte
	}
	if cfg.Duration <= 0 {
		cfg.Duration = d.Duration
	}
	if cfg.Drain <= 0 {
		cfg.Drain = d.Drain
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = d.Timeout
	}
	if cfg.RMPoll <= 0 {
		cfg.RMPoll = d.RMPoll
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = d.GossipInterval
	}
	if cfg.Batch.Size > 1 && cfg.Batch.Window <= 0 {
		cfg.Batch.Window = 2 * sim.Microsecond
	}
	return cfg
}

// methodTime is the backend role's service time per method — fixed
// accelerator pipelines, not software estimates.
func methodTime(method byte) sim.Time {
	switch method {
	case MethodHash:
		return 4 * sim.Microsecond
	case MethodRank:
		return 12 * sim.Microsecond
	default:
		return 1 * sim.Microsecond
	}
}

// rpcCall is one caller's in-flight RPC. Calls are pooled per caller and
// their timeout fires through a static callback, so the steady-state
// request path schedules no closures and allocates nothing.
type rpcCall struct {
	c      *caller
	id     uint64
	sentAt sim.Time
	timer  sim.Timer
	span   obs.SpanID
}

// caller is one RPC-generating host end.
type caller struct {
	d       *Dispatcher
	sh      *shell.Shell
	host    int
	pending map[uint64]*rpcCall
	nextSeq uint64

	// callFree pools rpcCalls; scratch is the reused request encode
	// buffer (SendDatagram copies synchronously).
	callFree []*rpcCall
	scratch  []byte
}

// dispatchState is the dispatcher's per-request table entry (NIC SRAM in
// offload mode, host memory in the baseline). Entries are pooled.
type dispatchState struct {
	caller int
	slot   *svclb.Slot
	span   obs.SpanID
}

// ingressJob carries one offloaded ingress datagram (and its copied
// payload buffer) through the NIC decode pipeline. Jobs are pooled and
// recycled when the dispatch completes.
type ingressJob struct {
	d    *Dispatcher
	from int
	buf  []byte
}

// dispatchIngress is the static unbatched NIC-pipeline callback: one
// decode+dispatch per ingress datagram.
func dispatchIngress(v any) {
	j := v.(*ingressJob)
	d := j.d
	d.decodeAndDispatch(j.from, j.buf)
	d.ingressFree = append(d.ingressFree, j)
}

// doorbell is one batched NIC dispatch: every job rung by the same
// doorbell crosses the decode pipeline as a single event.
type doorbell struct {
	d    *Dispatcher
	jobs []*ingressJob
}

// ringDoorbell is the static batched NIC-pipeline callback.
func ringDoorbell(v any) {
	db := v.(*doorbell)
	d := db.d
	d.Stats.BatchFlushes.Inc()
	d.Stats.BatchReqs.Add(uint64(len(db.jobs)))
	for _, j := range db.jobs {
		d.decodeAndDispatch(j.from, j.buf)
		d.ingressFree = append(d.ingressFree, j)
	}
	db.jobs = db.jobs[:0]
	d.doorbellFree = append(d.doorbellFree, db)
}

// replyJob carries one completed response back toward its caller through
// the NIC pipeline (offload mode). Pooled like ingressJob.
type replyJob struct {
	d      *Dispatcher
	caller int
	span   obs.SpanID
	buf    []byte
}

// sendReply is the static offload reply-path callback.
func sendReply(v any) {
	j := v.(*replyJob)
	d := j.d
	d.Stats.Replies.Inc()
	if d.tracer != nil {
		d.tracer.End(j.span)
	}
	sim.Must(d.shells[d.dispHost].SendDatagram(j.caller, KindReply, j.buf))
	d.replyFree = append(d.replyFree, j)
}

// Stats aggregates dispatcher counters (registered under rpcnic.*).
type Stats struct {
	Ingress      metrics.Counter // serialized RPCs arriving at the dispatcher
	Dispatched   metrics.Counter // requests forwarded to a backend
	Replies      metrics.Counter // responses returned to callers
	DecodeErrors metrics.Counter // undecodable ingress datagrams dropped
	Timeouts     metrics.Counter // caller-side expiries
	HostQueue    metrics.Gauge   // host-software decode queue depth (baseline)
	Latency      *metrics.Histogram

	// Doorbell-batching counters (zero with batching off).
	BatchFlushes metrics.Counter // doorbell rings (batched dispatch events)
	BatchReqs    metrics.Counter // requests dispatched through a doorbell
	BatchFull    metrics.Counter // flushes triggered by a full doorbell
	BatchWindow  metrics.Counter // flushes triggered by window expiry
}

// Dispatcher is one deployed RPC NIC: callers, the dispatcher node, and
// its HaaS-leased backend pool.
type Dispatcher struct {
	s   *sim.Simulation
	dc  *netsim.Datacenter
	cfg Config

	shells   map[int]*shell.Shell
	callers  []*caller
	dispHost int
	router   *svclb.Router
	table    map[uint64]*dispatchState
	queues   map[int]*svclb.WorkQueue

	pool    *haas.Pool
	in      *faultinject.Injector
	gossip  map[int]*sim.Ticker // live backends' depth-gossip tickers
	phases  int                 // gossip tickers started (phase offsets)
	tracer  *obs.Tracer
	obsCtx  *obs.Context
	stopFns []func()

	// host-software baseline state: a single-server CPU queue.
	hostBusyUntil sim.Time
	hostBusyTotal sim.Time
	hostQueueLen  int

	// Freelists for the offload hot path (ingress jobs, dispatch-table
	// entries, reply jobs, doorbells) — see dispatchIngress/sendReply.
	ingressFree  []*ingressJob
	stateFree    []*dispatchState
	replyFree    []*replyJob
	doorbellFree []*doorbell

	// Doorbell accumulation state (cfg.Batch.Size > 1, offload only).
	batch      []*ingressJob
	batchTimer sim.Timer

	hostEnd     int
	hostsPerTOR int
	// digest folds every completion (obs.FNVFold). All folds happen on
	// the one simulation thread in event order, so the digest is a
	// replay-determinism witness.
	digest uint64

	Stats Stats
}

// NewDispatcher builds a standalone deployment on its own simulation and
// datacenter.
func NewDispatcher(cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	s := sim.New(cfg.Seed)
	var ctx *obs.Context
	if cfg.Telemetry {
		ctx = obs.Enable(s)
		if cfg.SpanLimit > 0 {
			ctx.Tracer.SetLimit(cfg.SpanLimit)
		}
	}
	dc, shells := svclb.NewFabric(s, false, 0)
	d := NewDispatcherOn(s, dc, shells, 0, cfg)
	d.obsCtx = ctx
	dc.StartBackgroundLoad(cfg.BackgroundLoad, pkt.ClassRDMA, 1400)
	return d
}

// NewDispatcherOn deploys on an existing simulation/datacenter starting
// at hostBase: callers first, then (TOR-aligned) the dispatcher node and
// its backend pool, mirroring svclb's layout.
func NewDispatcherOn(s *sim.Simulation, dc *netsim.Datacenter, shells map[int]*shell.Shell, hostBase int, cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	dcCfg := dc.Config()
	d := &Dispatcher{
		s: s, dc: dc, cfg: cfg, shells: shells,
		table:       map[uint64]*dispatchState{},
		queues:      map[int]*svclb.WorkQueue{},
		gossip:      map[int]*sim.Ticker{},
		tracer:      obs.TracerOf(s),
		hostsPerTOR: dcCfg.HostsPerTOR,
		digest:      obs.FNVOffset,
		Stats:       Stats{Latency: metrics.NewHistogram()},
	}
	if reg := obs.RegistryOf(s); reg != nil {
		reg.Counter("rpcnic.ingress", "reqs", "rpcnic", "serialized RPCs arriving at the dispatcher", &d.Stats.Ingress)
		reg.Counter("rpcnic.dispatched", "reqs", "rpcnic", "requests forwarded to backends", &d.Stats.Dispatched)
		reg.Counter("rpcnic.replies", "reqs", "rpcnic", "responses returned to callers", &d.Stats.Replies)
		reg.Counter("rpcnic.decode_errors", "reqs", "rpcnic", "undecodable ingress dropped", &d.Stats.DecodeErrors)
		reg.Counter("rpcnic.timeouts", "reqs", "rpcnic", "caller-side RPC expiries", &d.Stats.Timeouts)
		reg.Gauge("rpcnic.host_queue", "reqs", "rpcnic", "host-software decode queue depth", &d.Stats.HostQueue)
		reg.Histogram("rpcnic.latency", "ns", "rpcnic", "caller-observed RPC latency", d.Stats.Latency)
		reg.Counter("rpcnic.batch_flushes", "doorbells", "rpcnic", "doorbell rings (batched dispatch events)", &d.Stats.BatchFlushes)
		reg.Counter("rpcnic.batch_reqs", "reqs", "rpcnic", "requests dispatched through a doorbell", &d.Stats.BatchReqs)
		reg.Counter("rpcnic.batch_full", "doorbells", "rpcnic", "flushes triggered by a full doorbell", &d.Stats.BatchFull)
		reg.Counter("rpcnic.batch_window", "doorbells", "rpcnic", "flushes triggered by window expiry", &d.Stats.BatchWindow)
	}

	for i := 0; i < cfg.Callers; i++ {
		h := hostBase + i
		dc.Host(h)
		c := &caller{d: d, sh: shells[h], host: h, pending: map[uint64]*rpcCall{}}
		sim.Must(c.sh.SetServiceHandler(c.onDatagram))
		d.callers = append(d.callers, c)
	}

	base := hostBase + ((cfg.Callers+dcCfg.HostsPerTOR-1)/dcCfg.HostsPerTOR)*dcCfg.HostsPerTOR
	d.dispHost = base
	dc.Host(base)
	poolSize := cfg.Backends + cfg.Spares
	poolHosts := make([]int, poolSize)
	for i := range poolHosts {
		poolHosts[i] = base + 1 + i
		dc.Host(base + 1 + i)
	}
	d.hostEnd = base + 1 + poolSize

	router, err := svclb.NewRouter(s.NewRand(), cfg.Policy)
	if err != nil {
		panic(fmt.Sprintf("rpcnic: %v", err))
	}
	d.router = router

	// The dispatcher node terminates ingress and backend responses on the
	// service-datagram plane, and depth gossip on the control plane.
	sim.Must(shells[d.dispHost].SetServiceHandler(d.onDatagram))
	sim.Must(shells[d.dispHost].SetControlHandler(func(from int, kind uint8, payload []byte) {
		if kind == ctrlDepth && len(payload) >= 4 {
			depth := int(payload[0])<<24 | int(payload[1])<<16 | int(payload[2])<<8 | int(payload[3])
			d.router.ReportDepth(from, depth, s.Now())
		}
	}))

	d.pool, d.in = svclb.NewBackendPool(dc, shells, poolHosts, cfg.RMPoll, backendRole{}, d.queues, haas.PoolSpec{
		Tenant: "rpcnic", Image: backendImage,
		OnReady: d.attachBackend,
		OnLost:  d.detachBackend,
	})
	for i := 0; i < cfg.Backends; i++ {
		if _, err := d.pool.Grow(); err != nil {
			panic(fmt.Sprintf("rpcnic: initial lease: %v", err))
		}
	}
	if cfg.FaultProfile != "" {
		p, err := faultinject.ByName(cfg.FaultProfile)
		if err != nil {
			panic(fmt.Sprintf("rpcnic: %v", err))
		}
		d.stopFns = append(d.stopFns, d.in.Start(p))
	}
	return d
}

// backendRole marks backend role slots occupied.
type backendRole struct{}

func (backendRole) Name() string { return "rpcnic-backend" }
func (backendRole) HandleRequest(_ shell.RequestSource, _ []byte, respond func([]byte)) {
	respond(nil)
}

// attachBackend wires a serving backend: work queue, the datagram work
// handler, the depth gossip ticker, and its routing slot.
func (d *Dispatcher) attachBackend(m *haas.Member) {
	h := int(m.Node)
	sh := d.shells[h]
	q := svclb.NewWorkQueue(d.s, h)
	d.queues[h] = q
	ret := make([]byte, d.cfg.RetBytes)
	var out []byte
	sim.Must(sh.SetServiceHandler(func(from int, kind uint8, payload []byte) {
		if kind != KindWork {
			return
		}
		req, err := DecodeReq(payload)
		if err != nil {
			return
		}
		id, method := req.ID, req.Method
		q.Submit(id, methodTime(method), func() {
			// The result is derived from the id, so it is generated into
			// the backend's reused buffers at completion time. The queue
			// serializes completions and SendDatagram copies synchronously,
			// so per-backend scratch is safe.
			for i := range ret {
				ret[i] = byte(id) + byte(i)
			}
			out = AppendResp(out[:0], Resp{Method: method, ID: id, Ret: ret})
			sim.Must(sh.SendDatagram(from, KindWorkResp, out))
		})
	}))
	if len(d.gossip) < 64 { // phase-offset like svclb's backends
		d.gossip[h] = d.s.Every(d.cfg.GossipInterval*sim.Time(1+d.phases%8)/8, d.cfg.GossipInterval, func() {
			depth := q.Depth()
			sim.Must(sh.SendControl(d.dispHost, ctrlDepth, []byte{
				byte(depth >> 24), byte(depth >> 16), byte(depth >> 8), byte(depth)}))
		})
		d.phases++
	}
	d.router.AddSlot(h)
}

// detachBackend retires a dead backend's routing slot and gossip ticker.
// Requests in flight to it surface as caller timeouts; the pool's
// replacement (if any) attaches next.
func (d *Dispatcher) detachBackend(_ *haas.Member, dead haas.NodeID) {
	h := int(dead)
	if sl := d.router.SlotOnHost(h); sl != nil {
		d.router.RemoveSlot(sl)
	}
	if t := d.gossip[h]; t != nil {
		t.Stop()
		delete(d.gossip, h)
	}
}

// onDatagram is the dispatcher node's service-plane receiver.
func (d *Dispatcher) onDatagram(from int, kind uint8, payload []byte) {
	switch kind {
	case KindIngress:
		d.Stats.Ingress.Inc()
		if d.cfg.Offload {
			// FPGA pipeline: fixed decode latency, then dispatch. The host
			// above this shell never runs. The datagram payload is only
			// valid during this call, so it is copied into a pooled job.
			j := d.allocIngress()
			j.from = from
			j.buf = append(j.buf[:0], payload...)
			if d.cfg.Batch.Size > 1 {
				d.enqueueBatch(j)
			} else {
				d.s.ScheduleCall(d.cfg.NICDecode, dispatchIngress, j)
			}
		} else {
			d.hostIngress(from, payload)
		}
	case KindWorkResp:
		d.onWorkResp(payload)
	}
}

func (d *Dispatcher) allocIngress() *ingressJob {
	if n := len(d.ingressFree); n > 0 {
		j := d.ingressFree[n-1]
		d.ingressFree = d.ingressFree[:n-1]
		return j
	}
	return &ingressJob{d: d}
}

// enqueueBatch queues one ingress job on the doorbell. The first job in
// an empty doorbell arms the window timer; a full doorbell cancels it
// and flushes immediately.
func (d *Dispatcher) enqueueBatch(j *ingressJob) {
	if len(d.batch) == 0 {
		d.batchTimer = d.s.ScheduleCall(d.cfg.Batch.Window, flushWindow, d)
	}
	d.batch = append(d.batch, j)
	if len(d.batch) >= d.cfg.Batch.Size {
		d.s.Cancel(d.batchTimer)
		d.Stats.BatchFull.Inc()
		d.flushBatch()
	}
}

// flushWindow is the static window-expiry timer callback.
func flushWindow(v any) {
	d := v.(*Dispatcher)
	d.Stats.BatchWindow.Inc()
	d.flushBatch()
}

// flushBatch moves the accumulated doorbell into a pooled dispatch and
// schedules ONE decode-pipeline event for the whole batch.
func (d *Dispatcher) flushBatch() {
	var db *doorbell
	if n := len(d.doorbellFree); n > 0 {
		db = d.doorbellFree[n-1]
		d.doorbellFree = d.doorbellFree[:n-1]
	} else {
		db = &doorbell{d: d}
	}
	db.jobs = append(db.jobs[:0], d.batch...)
	d.batch = d.batch[:0]
	d.s.ScheduleCall(d.cfg.NICDecode, ringDoorbell, db)
}

// hostIngress is the baseline path: PCIe up, a single-server CPU queue
// whose decode cost scales with the serialized size, PCIe back down.
func (d *Dispatcher) hostIngress(from int, payload []byte) {
	buf := append([]byte(nil), payload...)
	pcie := d.pcieTime(len(buf))
	decode := d.cfg.HostDecodeFixed + d.cfg.HostDecodePerByte*sim.Time(len(buf))
	d.s.Schedule(pcie, func() {
		now := d.s.Now()
		start := now
		if d.hostBusyUntil > start {
			start = d.hostBusyUntil
		}
		fin := start + decode
		d.hostBusyUntil = fin
		d.hostBusyTotal += decode
		d.hostQueueLen++
		d.Stats.HostQueue.Set(int64(d.hostQueueLen))
		if d.tracer != nil {
			if req, err := DecodeReq(buf); err == nil {
				d.tracer.Range(obs.ReqFlow(req.ID), "rpcnic.host_decode", 0, int64(now), int64(fin-now))
			}
		}
		d.s.Schedule(fin-now, func() {
			d.hostQueueLen--
			d.Stats.HostQueue.Set(int64(d.hostQueueLen))
			// Dispatch crosses PCIe back to the shell before entering LTL.
			d.s.Schedule(d.pcieTime(len(buf)), func() { d.decodeAndDispatch(from, buf) })
		})
	})
}

// decodeAndDispatch validates the serialized RPC and forwards it to a
// routed backend.
func (d *Dispatcher) decodeAndDispatch(from int, buf []byte) {
	req, err := DecodeReq(buf)
	if err != nil {
		d.Stats.DecodeErrors.Inc()
		return
	}
	slot, ok := d.router.Pick()
	if !ok {
		d.Stats.DecodeErrors.Inc() // no live backend: drop, caller times out
		return
	}
	var st *dispatchState
	if n := len(d.stateFree); n > 0 {
		st = d.stateFree[n-1]
		d.stateFree = d.stateFree[:n-1]
	} else {
		st = &dispatchState{}
	}
	st.caller, st.slot = from, slot
	if d.tracer != nil {
		st.span = d.tracer.Start(obs.ReqFlow(req.ID), "rpcnic.dispatch", 0)
	}
	d.table[req.ID] = st
	d.Stats.Dispatched.Inc()
	sim.Must(d.shells[d.dispHost].SendDatagram(slot.Host, KindWork, buf))
}

// onWorkResp completes one dispatched request: the response returns to
// the caller (offload: straight through the NIC; baseline: two more PCIe
// crossings and a host decode).
func (d *Dispatcher) onWorkResp(payload []byte) {
	resp, err := DecodeResp(payload)
	if err != nil {
		return
	}
	st, ok := d.table[resp.ID]
	if !ok {
		return
	}
	delete(d.table, resp.ID)
	d.router.Done(st.slot)
	caller, span := st.caller, st.span
	st.slot = nil
	d.stateFree = append(d.stateFree, st)
	if d.cfg.Offload {
		// The reply is forwarded after the NIC pipeline delay; the ingress
		// buffer is recycled when this handler returns, so the payload is
		// copied into a pooled reply job.
		var j *replyJob
		if n := len(d.replyFree); n > 0 {
			j = d.replyFree[n-1]
			d.replyFree = d.replyFree[:n-1]
		} else {
			j = &replyJob{d: d}
		}
		j.caller, j.span = caller, span
		j.buf = append(j.buf[:0], payload...)
		d.s.ScheduleCall(d.cfg.NICDecode, sendReply, j)
		return
	}
	// Baseline: response surfaces to host software and comes back down
	// (a private payload copy, held across the modeled crossings).
	buf := append([]byte(nil), payload...)
	send := func() {
		d.Stats.Replies.Inc()
		if d.tracer != nil {
			d.tracer.End(span)
		}
		sim.Must(d.shells[d.dispHost].SendDatagram(caller, KindReply, buf))
	}
	pcie := d.pcieTime(len(buf))
	decode := d.cfg.HostDecodeFixed/2 + d.cfg.HostDecodePerByte*sim.Time(len(buf))
	d.s.Schedule(pcie, func() {
		start := d.s.Now()
		if d.hostBusyUntil > start {
			start = d.hostBusyUntil
		}
		fin := start + decode
		d.hostBusyUntil = fin
		d.hostBusyTotal += decode
		d.s.Schedule(fin-d.s.Now(), func() {
			d.s.Schedule(d.pcieTime(len(buf)), send)
		})
	})
}

func (d *Dispatcher) pcieTime(n int) sim.Time {
	c := shell.DefaultConfig()
	return c.PCIeLatency + sim.Time(int64(n)*8*int64(sim.Second)/c.PCIeBps)
}

// ---- caller side ----

// call issues one RPC from this caller.
func (c *caller) call(method byte, args []byte) {
	c.nextSeq++
	id := uint64(c.host)<<32 | c.nextSeq
	var rc *rpcCall
	if n := len(c.callFree); n > 0 {
		rc = c.callFree[n-1]
		c.callFree = c.callFree[:n-1]
	} else {
		rc = &rpcCall{c: c}
	}
	rc.id, rc.sentAt = id, c.d.s.Now()
	if c.d.tracer != nil {
		rc.span = c.d.tracer.Start(obs.ReqFlow(id), "rpcnic.rpc", 0)
	}
	c.pending[id] = rc
	rc.timer = c.d.s.ScheduleCall(c.d.cfg.Timeout, expireRPC, rc)
	c.scratch = AppendReq(c.scratch[:0], Req{Method: method, ID: id, Args: args})
	sim.Must(c.sh.SendDatagram(c.d.dispHost, KindIngress, c.scratch))
}

// expireRPC is the static caller-timeout callback (the timer arg is the
// call; the pending check guards a recycled call under the same id slot).
func expireRPC(v any) {
	rc := v.(*rpcCall)
	c := rc.c
	if c.pending[rc.id] != rc {
		return
	}
	delete(c.pending, rc.id)
	c.d.Stats.Timeouts.Inc()
	if c.d.tracer != nil {
		c.d.tracer.End(rc.span)
	}
	c.d.digest = obs.FNVFold(c.d.digest, rc.id, 0x7F)
	c.callFree = append(c.callFree, rc)
}

func (c *caller) onDatagram(from int, kind uint8, payload []byte) {
	if kind != KindReply {
		return
	}
	resp, err := DecodeResp(payload)
	if err != nil {
		return
	}
	rc, ok := c.pending[resp.ID]
	if !ok {
		return
	}
	delete(c.pending, resp.ID)
	c.d.s.Cancel(rc.timer)
	lat := c.d.s.Now() - rc.sentAt
	c.d.Stats.Latency.Observe(int64(lat))
	if c.d.tracer != nil {
		c.d.tracer.End(rc.span)
	}
	c.d.digest = obs.FNVFold(c.d.digest, resp.ID, uint64(lat))
	c.callFree = append(c.callFree, rc)
}

// Sim returns the simulation the dispatcher runs on.
func (d *Dispatcher) Sim() *sim.Simulation { return d.s }

// NextHostBase returns the first TOR-aligned host id past this deployment.
func (d *Dispatcher) NextHostBase() int {
	return ((d.hostEnd + d.hostsPerTOR - 1) / d.hostsPerTOR) * d.hostsPerTOR
}

// Stop releases control-plane resources.
func (d *Dispatcher) Stop() {
	d.pool.RM().Stop()
	for _, t := range d.gossip {
		t.Stop()
	}
	for _, fn := range d.stopFns {
		fn()
	}
}

// Result is one measurement of the dispatcher.
type Result struct {
	Mode      string // "offload" or "host"
	Offered   uint64
	Completed uint64
	Timeouts  uint64
	P50, P99  sim.Time
	Mean      sim.Time
	// HostBusy is the dispatcher host CPU's busy fraction over Duration —
	// identically zero in offload mode, which is the point.
	HostBusy float64
	// Doorbells counts batched dispatch events and BatchedReqs the
	// requests they carried (both zero with batching off).
	Doorbells   uint64
	BatchedReqs uint64
	// RouteHash digests every backend routing decision (svclb.Router).
	RouteHash uint64
	Digest    uint64
	Record    *obs.Record
}

// Result snapshots the run.
func (d *Dispatcher) Result() Result {
	mode := "host"
	if d.cfg.Offload {
		mode = "offload"
	}
	r := Result{
		Mode:        mode,
		Offered:     d.Stats.Ingress.Value(),
		Completed:   d.Stats.Replies.Value(),
		Timeouts:    d.Stats.Timeouts.Value(),
		HostBusy:    float64(d.hostBusyTotal) / float64(d.cfg.Duration),
		Doorbells:   d.Stats.BatchFlushes.Value(),
		BatchedReqs: d.Stats.BatchReqs.Value(),
		RouteHash:   d.router.RouteHash(),
		Digest:      d.digest,
	}
	if d.Stats.Latency.Count() > 0 {
		r.P50 = sim.Time(d.Stats.Latency.Quantile(0.50))
		r.P99 = sim.Time(d.Stats.Latency.Quantile(0.99))
		r.Mean = sim.Time(int64(d.Stats.Latency.Mean()))
	}
	return r
}

// Telemetry collects the deployment's observability record (nil unless
// built with Telemetry).
func (d *Dispatcher) Telemetry(point string) *obs.Record {
	if d.obsCtx == nil {
		return nil
	}
	return obs.Collect(d.obsCtx, "netsvc", point)
}

// Run executes one standalone measurement: open-loop callers drawing a
// fixed method mix for Duration, a drain window, then the snapshot.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	d := NewDispatcher(cfg)
	s := d.s

	gens := make([]*workload.OpenLoop, len(d.callers))
	for ci, c := range d.callers {
		c := c
		rng := s.NewRand()
		// Per-caller argument scratch: the contents are deterministic and
		// call() encodes synchronously, so one buffer per caller suffices.
		args := make([]byte, cfg.ArgBytes)
		for i := range args {
			args[i] = byte(i)
		}
		gens[ci] = workload.NewOpenLoop(s, cfg.Rate, func() {
			method := byte(MethodEcho)
			switch u := rng.Float64(); {
			case u < 0.2:
				method = MethodRank
			case u < 0.5:
				method = MethodHash
			}
			c.call(method, args)
		})
		gens[ci].Start()
	}
	s.Schedule(cfg.Duration-s.Now(), func() {
		for _, g := range gens {
			g.Stop()
		}
	})
	s.RunUntil(cfg.Duration + cfg.Drain)
	d.Stop()
	res := d.Result()
	res.Record = d.Telemetry(fmt.Sprintf("rpc %s rate=%g", res.Mode, cfg.Rate))
	return res
}
