// Package kvcache is a line-rate key-value cache terminated on the FPGA
// (paper §III: the accelerator sits between the NIC and the TOR, so
// network services can be served without the host; Beehive hosts exactly
// this service class on a direct-attached accelerator network stack).
//
// GET/PUT requests travel as connection-less LTL service datagrams
// (internal/ltl/service.go) to a keyspace-sharded pool of HaaS-leased
// FPGAs. Each shard holds a cuckoo-hashed tag directory in role SRAM
// and its key/value payloads in board DRAM (internal/dram), whose
// controller the shard calls directly. Replies are generated entirely
// on-fabric: a GET hit costs the ER hop, a DRAM read, and the return
// datagram — the server's CPU never sees the request, which is the
// paper's line-rate argument and what Result.OnFabric witnesses
// (shard-side PCIe counters must stay zero).
//
// Loss tolerance is memcached-over-UDP's: datagrams are best-effort, so
// clients time requests out and count it; nothing retransmits below the
// service. Shard failure is cache failure — the lease is replaced, the
// replacement starts cold, and in-flight requests to the dead shard
// surface as timeouts.
package kvcache

import (
	"encoding/binary"
	"fmt"
	"math/rand"

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

// shardImage names the role bitstream a lease loads.
const shardImage = "kvcache-shard-v1"

// Config parameterizes a KV cache service and its measurement run.
type Config struct {
	Seed int64
	// Clients is the number of ingress client hosts.
	Clients int
	// Shards is the number of leased shard FPGAs the keyspace hashes
	// across; Spares stay registered with HaaS for failover.
	Shards, Spares int

	// Workload shape: Keys in the keyspace, fixed key/value sizes (Run
	// widens keys to at least 8 bytes, the index they encode), Zipf
	// skew (>1 selects rand.Zipf with that s; else uniform), the GET
	// fraction, and each client's open-loop request rate per second.
	Keys        int
	KeyBytes    int
	ValBytes    int
	Zipf        float64
	GetFraction float64
	ClientRate  float64

	// MGetBatch > 1 makes Run's clients coalesce GETs into multi-get
	// datagrams: each client buffers GET keys per keyspace slice and
	// sends an OpMGet when a slice's buffer reaches MGetBatch (partial
	// batches flush when load generation stops). Batches above
	// MaxMultiKeys are clamped to it. PUTs are never batched.
	MGetBatch int

	// Duration generates load; the run then drains for Drain before
	// snapshotting. Timeout is the client-side datagram-loss timeout.
	Duration sim.Time
	Drain    sim.Time
	Timeout  sim.Time

	// RMPoll is the HaaS health-poll interval.
	RMPoll sim.Time
	// Store sizes each shard's directory and DRAM arena.
	Store StoreConfig

	// FaultProfile optionally names a faultinject profile applied to the
	// shard pool's links and boards (incast, pfcstorm, ...).
	FaultProfile string
	// BackgroundLoad is other tenants' fabric noise (standalone Run only).
	BackgroundLoad float64

	Telemetry bool
	SpanLimit int
}

// DefaultConfig returns a small-but-honest service: 8 client hosts
// driving 4 shards (2 spares) over the shared fabric.
func DefaultConfig() Config {
	return Config{
		Clients: 8, Shards: 4, Spares: 2,
		Keys: 2048, KeyBytes: 16, ValBytes: 128,
		GetFraction: 0.9, ClientRate: 20000,
		Duration: 10 * sim.Millisecond,
		Drain:    4 * sim.Millisecond,
		Timeout:  2 * sim.Millisecond,
		RMPoll:   5 * sim.Millisecond,
		Store:    DefaultStoreConfig(),
	}
}

// Outcome is one request's completion as the client saw it. Val aliases
// the reply datagram's reused buffer: it is valid only for the duration
// of the done callback (copy it to keep it).
type Outcome struct {
	Hit      bool // GET answered RespHit
	Ok       bool // any reply arrived (hit, miss, put-ack)
	TimedOut bool
	Val      []byte
	Latency  sim.Time
}

// kvCall is one in-flight client request. Calls are pooled on the client
// (freed when the reply or timeout completes), and the timeout is a
// pooled sim.Timer with a static callback — the per-request path neither
// allocates the call nor a timer closure.
type kvCall struct {
	c      *Client
	id     uint64
	op     byte
	sentAt sim.Time
	timer  sim.Timer
	span   obs.SpanID
	done   func(Outcome)
	mdone  func(m MResp, lat sim.Time, ok bool)
}

// ClientStats aggregates one client end's counters (registered under
// kvcache.* so instances sum in the registry).
type ClientStats struct {
	Gets, Puts  metrics.Counter
	Hits        metrics.Counter
	Misses      metrics.Counter
	PutAcks     metrics.Counter
	Timeouts    metrics.Counter
	LateReplies metrics.Counter // reply after the timeout already charged
	Errors      metrics.Counter // RespError or undecodable reply
	Latency     *metrics.Histogram
}

// Client is one host's KV client end: it serializes requests, hashes
// keys to shards, sends service datagrams, and matches replies (or
// timeouts) back to callers. One Client per ingress host.
type Client struct {
	s       *sim.Simulation
	sh      *shell.Shell
	host    int
	timeout sim.Time
	// lookup maps a key hash to the current shard host (indirect so
	// failover rewires every client at once).
	lookup  func(hash uint64) int
	pending map[uint64]*kvCall
	nextSeq uint64
	tracer  *obs.Tracer
	// digest folds every completion (obs.FNVFold). Completions on one
	// client are totally ordered by the simulation, so the digest is a
	// replay-determinism witness per client end.
	digest uint64

	// callFree pools kvCalls; scratch is the reused request encode buffer
	// (SendDatagram copies synchronously, so one buffer per client is
	// enough).
	callFree []*kvCall
	scratch  []byte

	Stats ClientStats
}

// NewClient builds a client end on sh and installs its reply handler.
func NewClient(s *sim.Simulation, sh *shell.Shell, timeout sim.Time, lookup func(hash uint64) int) *Client {
	c := &Client{
		s: s, sh: sh, host: sh.HostID(), timeout: timeout, lookup: lookup,
		pending: make(map[uint64]*kvCall),
		tracer:  obs.TracerOf(s),
		digest:  obs.FNVOffset,
		Stats:   ClientStats{Latency: metrics.NewHistogram()},
	}
	if reg := obs.RegistryOf(s); reg != nil {
		reg.Counter("kvcache.gets", "reqs", "kvcache", "GET requests issued", &c.Stats.Gets)
		reg.Counter("kvcache.puts", "reqs", "kvcache", "PUT requests issued", &c.Stats.Puts)
		reg.Counter("kvcache.hits", "reqs", "kvcache", "GETs answered with the value", &c.Stats.Hits)
		reg.Counter("kvcache.misses", "reqs", "kvcache", "GETs answered absent", &c.Stats.Misses)
		reg.Counter("kvcache.put_acks", "reqs", "kvcache", "PUTs acknowledged", &c.Stats.PutAcks)
		reg.Counter("kvcache.timeouts", "reqs", "kvcache", "requests with no reply in time", &c.Stats.Timeouts)
		reg.Counter("kvcache.late_replies", "reqs", "kvcache", "replies after the timeout fired", &c.Stats.LateReplies)
		reg.Counter("kvcache.errors", "reqs", "kvcache", "error or undecodable replies", &c.Stats.Errors)
		reg.Histogram("kvcache.latency", "ns", "kvcache", "client-observed request latency", c.Stats.Latency)
	}
	sh.SetServiceHandler(c.onDatagram)
	return c
}

// Get looks key up on its shard. done (optional) fires exactly once.
func (c *Client) Get(key []byte, done func(Outcome)) {
	c.Stats.Gets.Inc()
	c.send(Req{Op: OpGet, Key: key}, done)
}

// Put stores key=val on its shard. done (optional) fires exactly once.
func (c *Client) Put(key, val []byte, done func(Outcome)) {
	c.Stats.Puts.Inc()
	c.send(Req{Op: OpPut, Key: key, Val: val}, done)
}

func (c *Client) allocCall() *kvCall {
	if n := len(c.callFree); n > 0 {
		call := c.callFree[n-1]
		c.callFree = c.callFree[:n-1]
		return call
	}
	return &kvCall{c: c}
}

func (c *Client) freeCall(call *kvCall) {
	call.done, call.mdone = nil, nil
	c.callFree = append(c.callFree, call)
}

// startCall opens one in-flight request of op: it takes the next id,
// opens the request span, and arms the timeout. The caller sets the
// completion callback and sends the datagram.
func (c *Client) startCall(op byte) *kvCall {
	c.nextSeq++
	call := c.allocCall()
	call.id, call.op, call.sentAt = uint64(c.host)<<32|c.nextSeq, op, c.s.Now()
	if c.tracer != nil {
		call.span = c.tracer.Start(obs.ReqFlow(call.id), "kvcache.request", 0)
	}
	c.pending[call.id] = call
	call.timer = c.s.ScheduleCall(c.timeout, expireCall, call)
	return call
}

func (c *Client) send(r Req, done func(Outcome)) {
	call := c.startCall(r.Op)
	call.done = done
	r.ID = call.id
	c.scratch = AppendReq(c.scratch[:0], r)
	c.sh.SendDatagram(c.lookup(keyHash(r.Key)), KindReq, c.scratch)
}

// MultiGet sends up to MaxMultiKeys keys as one OpMGet datagram, routed
// by the first key's hash — callers batch keys that share a shard (see
// ShardOf). done fires exactly once: with the decoded reply (Vals alias
// the reply datagram, valid only during the call) and ok=true, or zero
// MResp and ok=false on timeout.
func (c *Client) MultiGet(keys [][]byte, done func(m MResp, lat sim.Time, ok bool)) {
	if len(keys) == 0 || len(keys) > MaxMultiKeys {
		panic(fmt.Sprintf("kvcache: MultiGet with %d keys (1..%d)", len(keys), MaxMultiKeys))
	}
	c.Stats.Gets.Add(uint64(len(keys)))
	call := c.startCall(OpMGet)
	call.mdone = done
	c.scratch = AppendMReq(c.scratch[:0], MReq{ID: call.id, Keys: keys})
	c.sh.SendDatagram(c.lookup(keyHash(keys[0])), KindReq, c.scratch)
}

// ShardOf reports the keyspace slice index key currently routes to —
// what MultiGet callers group by.
func (c *Client) ShardOf(key []byte, shards int) int {
	return int(keyHash(key) % uint64(shards))
}

// MGetBatcher coalesces one client's GETs into multi-get datagrams. GET
// key indices are buffered per keyspace slice (keys in one OpMGet must
// share a shard) and a slice is sent when its buffer fills; the keys are
// rebuilt into a reused arena at flush time.
type MGetBatcher struct {
	cl       *Client
	batch    int
	keyBytes int
	pend     [][]int
	mkeys    [][]byte
	arena    []byte
	done     func(MResp, sim.Time, bool)
}

// NewMGetBatcher batches cl's GETs over shards keyspace slices, batch
// keys of keyBytes each per datagram; done (optional) is every
// datagram's MultiGet callback. batch is clamped to MaxMultiKeys, and a
// batch of 1 or less returns nil: GETs go out one by one.
func NewMGetBatcher(cl *Client, shards, batch, keyBytes int, done func(m MResp, lat sim.Time, ok bool)) *MGetBatcher {
	batch = min(batch, MaxMultiKeys)
	if batch <= 1 {
		return nil
	}
	return &MGetBatcher{
		cl: cl, batch: batch, keyBytes: keyBytes, done: done,
		pend:  make([][]int, shards),
		mkeys: make([][]byte, batch),
		arena: make([]byte, batch*keyBytes),
	}
}

// Add buffers the GET of key (keyspace index idx) and reports whether
// that filled its slice's batch and sent it.
func (b *MGetBatcher) Add(key []byte, idx int) bool {
	sidx := b.cl.ShardOf(key, len(b.pend))
	b.pend[sidx] = append(b.pend[sidx], idx)
	if len(b.pend[sidx]) < b.batch {
		return false
	}
	b.flush(sidx)
	return true
}

// Flush sends every slice's partial batch.
func (b *MGetBatcher) Flush() {
	for sidx := range b.pend {
		b.flush(sidx)
	}
}

func (b *MGetBatcher) flush(sidx int) {
	n := len(b.pend[sidx])
	if n == 0 {
		return
	}
	for i, idx := range b.pend[sidx] {
		b.mkeys[i] = MakeKeyInto(b.arena[i*b.keyBytes:(i+1)*b.keyBytes], idx)
	}
	b.pend[sidx] = b.pend[sidx][:0]
	b.cl.MultiGet(b.mkeys[:n], b.done)
}

// expireCall is the static timeout callback (the timer arg is the call).
func expireCall(v any) {
	call := v.(*kvCall)
	c := call.c
	if _, ok := c.pending[call.id]; !ok {
		return
	}
	delete(c.pending, call.id)
	c.Stats.Timeouts.Inc()
	c.endSpan(call)
	c.digest = obs.FNVFold(c.digest, call.id, 0x7F) // timeout marker, distinct from every Resp op
	done, mdone := call.done, call.mdone
	c.freeCall(call)
	if done != nil {
		done(Outcome{TimedOut: true, Latency: c.timeout})
	}
	if mdone != nil {
		mdone(MResp{}, c.timeout, false)
	}
}

func (c *Client) onDatagram(from int, kind uint8, payload []byte) {
	if kind != KindResp {
		return
	}
	if len(payload) > 0 && payload[0] == RespMGet {
		c.onMResp(payload)
		return
	}
	resp, err := DecodeResp(payload)
	if err != nil {
		c.Stats.Errors.Inc()
		return
	}
	call, ok := c.pending[resp.ID]
	if !ok {
		c.Stats.LateReplies.Inc()
		return
	}
	delete(c.pending, resp.ID)
	c.s.Cancel(call.timer)
	lat := c.s.Now() - call.sentAt
	c.Stats.Latency.Observe(int64(lat))
	c.endSpan(call)

	out := Outcome{Ok: true, Latency: lat}
	switch resp.Op {
	case RespHit:
		c.Stats.Hits.Inc()
		out.Hit, out.Val = true, resp.Val
	case RespMiss:
		c.Stats.Misses.Inc()
	case RespPut:
		c.Stats.PutAcks.Inc()
	default:
		c.Stats.Errors.Inc()
		out.Ok = false
	}
	c.digest = obs.FNVFold(c.digest, resp.ID, uint64(resp.Op), resp.ID, uint64(lat))
	done := call.done
	c.freeCall(call)
	if done != nil {
		done(out)
	}
}

// onMResp completes a MultiGet. The per-key hit pattern folds into the
// digest as a bitmap so batched runs stay replay-checkable.
func (c *Client) onMResp(payload []byte) {
	m, err := DecodeMResp(payload)
	if err != nil {
		c.Stats.Errors.Inc()
		return
	}
	call, ok := c.pending[m.ID]
	if !ok {
		c.Stats.LateReplies.Inc()
		return
	}
	delete(c.pending, m.ID)
	c.s.Cancel(call.timer)
	lat := c.s.Now() - call.sentAt
	c.Stats.Latency.Observe(int64(lat))
	c.endSpan(call)

	var bitmap uint64
	for i, hit := range m.Hits {
		if hit {
			c.Stats.Hits.Inc()
			bitmap |= 1 << uint(i)
		} else {
			c.Stats.Misses.Inc()
		}
	}
	c.digest = obs.FNVFold(c.digest, m.ID, uint64(RespMGet)<<32|bitmap, m.ID, uint64(lat))
	mdone := call.mdone
	c.freeCall(call)
	if mdone != nil {
		mdone(m, lat, true)
	}
}

func (c *Client) endSpan(call *kvCall) {
	if c.tracer != nil {
		c.tracer.End(call.span)
	}
}

// Digest returns the client's completion digest.
func (c *Client) Digest() uint64 { return c.digest }

// Pending reports in-flight requests (drain diagnostics).
func (c *Client) Pending() int { return len(c.pending) }

// Shard is the FPGA-resident shard role: it terminates request datagrams
// on the service VC, probes the store, and generates the reply datagram —
// all without the host. Per-request state is a pooled StoreOp with static
// completion callbacks; the reply datagram encodes into a reused buffer.
type Shard struct {
	s  *sim.Simulation
	sh *shell.Shell
	// slot is the vFPGA slot the shard occupies (-1 = whole-board role).
	slot int
	// Store is the shard's directory + DRAM arena.
	Store  *Store
	tracer *obs.Tracer

	opFree  []*StoreOp
	scratch []byte
	// mreq is the reused multi-get decode target.
	mreq MReq

	// Replies counts reply datagrams generated on-fabric; DecodeErrors
	// counts dropped undecodable requests.
	Replies      metrics.Counter
	DecodeErrors metrics.Counter
}

// AttachShard loads the shard role onto sh and wires the store to the
// shell's service-datagram plane. The role takes no PCIe requests: the
// request path never touches the host — that is the point.
func AttachShard(s *sim.Simulation, sh *shell.Shell, st *Store) *Shard {
	sh.LoadRole(nil)
	return attachShard(s, sh, -1, st)
}

// AttachShardSlot wires the store to an already-reconfigured vFPGA slot:
// requests demux onto the slot's virtual channel and replies pay the
// slot's egress token bucket. The role itself was loaded by the slot's
// partial reconfiguration (haas.SlotFM wiring).
func AttachShardSlot(s *sim.Simulation, sh *shell.Shell, slot int, st *Store) *Shard {
	return attachShard(s, sh, slot, st)
}

// attachShard wires st to a loaded role: the whole board's service plane
// (slot -1) or one vFPGA slot's.
func attachShard(s *sim.Simulation, sh *shell.Shell, slot int, st *Store) *Shard {
	d := &Shard{s: s, sh: sh, slot: slot, Store: st, tracer: obs.TracerOf(s)}
	if reg := obs.RegistryOf(s); reg != nil {
		reg.Counter("kvcache.fabric_replies", "dgrams", "kvcache", "replies generated on-fabric (no host round-trip)", &d.Replies)
		reg.Counter("kvcache.decode_errors", "reqs", "kvcache", "undecodable request datagrams dropped", &d.DecodeErrors)
	}
	if slot < 0 {
		sh.SetServiceHandler(d.onDatagram)
	} else {
		sim.Must(sh.SetServiceHandlerSlot(slot, []uint8{KindReq}, d.onDatagram))
	}
	return d
}

func (d *Shard) allocOp() *StoreOp {
	if n := len(d.opFree); n > 0 {
		op := d.opFree[n-1]
		d.opFree = d.opFree[:n-1]
		return op
	}
	return &StoreOp{Shard: d}
}

func (d *Shard) freeOp(op *StoreOp) {
	op.Done = nil
	op.Evicted = false
	op.keys, op.keyOffs, op.reply = op.keys[:0], op.keyOffs[:0], op.reply[:0]
	d.opFree = append(d.opFree, op)
}

// sendReply encodes one single-op reply into the shard's reused buffer
// and sends it toward the requester.
func (d *Shard) sendReply(op *StoreOp, respOp byte, val []byte) {
	d.Replies.Inc()
	if d.tracer != nil {
		d.tracer.End(op.Span)
	}
	d.scratch = AppendResp(d.scratch[:0], Resp{Op: respOp, ID: op.ID, Val: val})
	d.sendRaw(op.From, d.scratch)
}

func (d *Shard) sendRaw(to int, payload []byte) {
	if d.slot >= 0 {
		// A reply racing the slot's eviction (defrag cutover, board
		// death) is dropped; the client's timeout covers it.
		_ = d.sh.SendDatagramSlot(d.slot, to, KindResp, payload)
		return
	}
	d.sh.SendDatagram(to, KindResp, payload)
}

// shardGetDone completes a single-key GET probe.
func shardGetDone(op *StoreOp, hit bool, val []byte) {
	d := op.Shard
	if hit {
		d.sendReply(op, RespHit, val)
	} else {
		d.sendReply(op, RespMiss, nil)
	}
	d.freeOp(op)
}

// shardPutDone completes a PUT.
func shardPutDone(op *StoreOp, ok bool, _ []byte) {
	d := op.Shard
	if ok {
		d.sendReply(op, RespPut, nil)
	} else {
		d.sendReply(op, RespError, nil)
	}
	d.freeOp(op)
}

func (d *Shard) onDatagram(from int, kind uint8, payload []byte) {
	if kind != KindReq {
		return
	}
	if len(payload) > 0 && payload[0] == OpMGet {
		d.onMGet(from, payload)
		return
	}
	req, err := DecodeReq(payload)
	if err != nil {
		d.DecodeErrors.Inc()
		return
	}
	op := d.allocOp()
	op.ID, op.From, op.Kind = req.ID, from, req.Op
	if d.tracer != nil {
		op.Span = d.tracer.Start(obs.ReqFlow(req.ID), "kvcache.shard", 0)
	}
	switch req.Op {
	case OpGet:
		op.Done = shardGetDone
		d.Store.Get(req.Key, op)
	case OpPut:
		op.Done = shardPutDone
		d.Store.Put(req.Key, req.Val, op)
	}
}

// onMGet terminates one batched multi-get: the keys are copied out of
// the (reused) request buffer into the pooled op, probed sequentially
// through the store, and answered as a single RespMGet datagram — the
// batch amortizes the datagram and dispatch cost across its keys, which
// is the E18b trade.
func (d *Shard) onMGet(from int, payload []byte) {
	if err := DecodeMReq(payload, &d.mreq); err != nil {
		d.DecodeErrors.Inc()
		return
	}
	// The keys alias the (reused) request buffer: copy them into the op.
	op := d.allocOp()
	op.keyOffs = append(op.keyOffs, 0)
	for _, k := range d.mreq.Keys {
		op.keys = append(op.keys, k...)
		op.keyOffs = append(op.keyOffs, len(op.keys))
	}
	id := d.mreq.ID
	op.ID, op.From, op.Kind, op.keyIdx = id, from, OpMGet, 0
	if d.tracer != nil {
		op.Span = d.tracer.Start(obs.ReqFlow(id), "kvcache.shard", 0)
	}
	// Reply accumulates in the op (the shard scratch is per-probe).
	op.reply = appendMHeader(op.reply[:0], RespMGet, id, len(d.mreq.Keys))
	op.Done = shardMGetDone
	d.mgetNext(op)
}

// mgetNext probes the next batched key, or sends the accumulated reply
// when the batch is drained.
func (d *Shard) mgetNext(op *StoreOp) {
	if op.keyIdx >= len(op.keyOffs)-1 {
		d.Replies.Inc()
		if d.tracer != nil {
			d.tracer.End(op.Span)
		}
		d.sendRaw(op.From, op.reply)
		d.freeOp(op)
		return
	}
	key := op.keys[op.keyOffs[op.keyIdx]:op.keyOffs[op.keyIdx+1]]
	d.Store.Get(key, op)
}

// shardMGetDone folds one probe into the batched reply and advances.
func shardMGetDone(op *StoreOp, hit bool, val []byte) {
	op.reply = appendMEntry(op.reply, hit, val)
	op.keyIdx++
	op.Shard.mgetNext(op)
}

// Service is a deployed KV cache: client ends, a HaaS-leased shard pool,
// and the failover plumbing between them.
type Service struct {
	// The deployment's Pool holds slice i's lease as the member with
	// Index i; it has no head host.
	*svclb.Deployment
	cfg Config

	clients []*Client
	// shardHosts[i] is the host currently serving keyspace slice i.
	shardHosts []int
	// shards maps pool host -> its Shard (built when the lease serves).
	shards map[int]*Shard

	Failovers metrics.Counter
}

// NewService builds a standalone service on its own simulation and
// datacenter (cf. svclb.NewService).
func NewService(cfg Config) *Service {
	s, dc, shells := svclb.Standalone(cfg.Seed, cfg.Telemetry, cfg.SpanLimit)
	sv := NewServiceOn(s, dc, shells, 0, cfg)
	dc.StartBackgroundLoad(cfg.BackgroundLoad, pkt.ClassRDMA, 1400)
	return sv
}

// NewServiceOn deploys the service on an existing simulation/datacenter
// starting at hostBase: clients first, then (TOR-aligned) the shard pool,
// so requests cross the L1 tier like a real disaggregated cache's.
func NewServiceOn(s *sim.Simulation, dc *netsim.Datacenter, shells map[int]*shell.Shell, hostBase int, cfg Config) *Service {
	sv := &Service{
		cfg:        cfg,
		shardHosts: make([]int, cfg.Shards),
		shards:     map[int]*Shard{},
	}
	if reg := obs.RegistryOf(s); reg != nil {
		reg.Counter("kvcache.failovers", "leases", "kvcache", "shard leases replaced after failure", &sv.Failovers)
	}

	sv.Deployment = svclb.Deploy(s, dc, shells, hostBase, cfg.Clients, "", cfg.Shards+cfg.Spares, cfg.RMPoll, haas.PoolSpec{
		Tenant: "kvcache", Image: shardImage,
		OnReady: func(m *haas.Member) {
			h := int(m.Node)
			sv.shards[h] = attachShard(s, shells[h], -1, NewStore(s, shells[h].DRAM, cfg.Store))
		},
		// A replacement starts the slice cold (cache semantics: loss
		// costs hit rate only). Without a spare the slice keeps routing
		// at the dead host and its requests time out.
		OnLost: func(m *haas.Member, dead haas.NodeID) {
			sv.Failovers.Inc()
			delete(sv.shards, int(dead))
			sv.shardHosts[m.Index] = int(m.Node)
		},
	})
	lookup := func(hash uint64) int {
		return sv.shardHosts[int(hash%uint64(len(sv.shardHosts)))]
	}
	for _, sh := range sv.ClientEnds {
		sv.clients = append(sv.clients, NewClient(s, sh, cfg.Timeout, lookup))
	}
	for i := 0; i < cfg.Shards; i++ {
		m, err := sv.Pool.Grow()
		if err != nil {
			panic(fmt.Sprintf("kvcache: initial lease: %v", err))
		}
		sv.shardHosts[i] = int(m.Node)
	}
	sv.StartFaults(cfg.FaultProfile)
	return sv
}

// Clients returns the client ends (index-addressable ingress points).
func (sv *Service) Clients() []*Client { return sv.clients }

// ShardHosts returns the current keyspace slice -> host table.
func (sv *Service) ShardHosts() []int { return append([]int(nil), sv.shardHosts...) }

// Telemetry collects the service's observability record under the
// netsvc experiment (nil unless telemetry is enabled).
func (sv *Service) Telemetry(point string) *obs.Record {
	return sv.Deployment.Telemetry("netsvc", point)
}

// Result is one measurement of the service.
type Result struct {
	Offered   uint64 // requests issued
	Completed uint64 // requests answered
	Gets      uint64
	Puts      uint64
	Hits      uint64
	Misses    uint64
	Timeouts  uint64
	HitRate   float64 // hits / (hits + misses)

	P50, P99 sim.Time

	Evictions uint64
	Rejected  uint64 // DRAM-pressure rejections at the stores
	// Used/Slots aggregate directory occupancy across the shards' stores;
	// Kicks counts the residents relocated by cuckoo inserts.
	Used, Slots int
	Kicks       uint64

	// FabricReplies counts shard replies generated on-fabric, and
	// HostRoundTrips the PCIe requests observed at shard shells over the
	// same window. OnFabric is the §III witness: replies happened and the
	// host path stayed silent.
	FabricReplies  uint64
	HostRoundTrips uint64
	OnFabric       bool

	Failovers uint64
	// Digest folds every client's completion stream in client order —
	// the replay-determinism witness.
	Digest uint64

	Record *obs.Record
}

// Result snapshots the service. Aggregation walks clients, then shard
// slots, in fixed construction order, so the digest and counters are
// independent of any scheduling freedom the run had.
func (sv *Service) Result() Result {
	var r Result
	r.Digest = obs.FNVOffset
	lat := metrics.NewHistogram()
	for _, c := range sv.clients {
		r.Gets += c.Stats.Gets.Value()
		r.Puts += c.Stats.Puts.Value()
		r.Hits += c.Stats.Hits.Value()
		r.Misses += c.Stats.Misses.Value()
		r.Timeouts += c.Stats.Timeouts.Value()
		r.Completed += c.Stats.Hits.Value() + c.Stats.Misses.Value() + c.Stats.PutAcks.Value()
		lat.Merge(c.Stats.Latency)
		r.Digest = obs.FNVFold(r.Digest, c.Digest())
	}
	r.Offered = r.Gets + r.Puts
	if n := r.Hits + r.Misses; n > 0 {
		r.HitRate = float64(r.Hits) / float64(n)
	}
	if lat.Count() > 0 {
		r.P50 = sim.Time(lat.Quantile(0.50))
		r.P99 = sim.Time(lat.Quantile(0.99))
	}
	// Shard-side truth, walked in pool-host order (sorted by id via the
	// shard slot table plus spares never being attached twice).
	seen := map[int]bool{}
	for _, h := range sv.shardHosts {
		if seen[h] {
			continue
		}
		seen[h] = true
		if d := sv.shards[h]; d != nil {
			u, tot := d.Store.Occupancy()
			r.Used += u
			r.Slots += tot
			r.Kicks += d.Store.Stats().CuckooKicks.Value()
			r.Evictions += d.Store.Stats().Evictions.Value()
			r.Rejected += d.Store.Stats().Rejected.Value()
			r.FabricReplies += d.Replies.Value()
			r.HostRoundTrips += sv.Shells[h].Stats.PCIeReqs.Value()
		}
	}
	r.OnFabric = r.FabricReplies > 0 && r.HostRoundTrips == 0
	r.Failovers = sv.Failovers.Value()
	return r
}

// Run executes one standalone measurement: open-loop clients drawing the
// configured key distribution for Duration, a drain window for in-flight
// requests and timeouts, then the snapshot.
func Run(cfg Config) Result {
	sv := NewService(cfg)
	s := sv.Sim()

	keyBytes := max(cfg.KeyBytes, 8) // MakeKeyInto writes the index as 8 bytes
	gens := make([]*workload.OpenLoop, len(sv.clients))
	var batchers []*MGetBatcher
	for ci, cl := range sv.clients {
		cl := cl
		rng := s.NewRand()
		var zipf *rand.Zipf
		if cfg.Zipf > 1 {
			zipf = rand.NewZipf(rng, cfg.Zipf, 1, uint64(cfg.Keys-1))
		}
		// Per-client key/value scratch: Get/Put encode synchronously, so
		// the buffers are free again when the call returns.
		keyBuf := make([]byte, keyBytes)
		valBuf := make([]byte, cfg.ValBytes)

		mget := NewMGetBatcher(cl, cfg.Shards, cfg.MGetBatch, keyBytes, nil)
		if mget != nil {
			batchers = append(batchers, mget)
		}
		gens[ci] = workload.NewOpenLoop(s, cfg.ClientRate, func() {
			idx := 0
			if zipf != nil {
				idx = int(zipf.Uint64())
			} else {
				idx = rng.Intn(cfg.Keys)
			}
			key := MakeKeyInto(keyBuf, idx)
			if rng.Float64() < cfg.GetFraction {
				if mget != nil {
					mget.Add(key, idx)
					return
				}
				cl.Get(key, nil)
			} else {
				cl.Put(key, MakeValInto(valBuf, idx), nil)
			}
		})
		gens[ci].Start()
	}
	s.Schedule(cfg.Duration-s.Now(), func() {
		for _, g := range gens {
			g.Stop()
		}
		for _, b := range batchers {
			b.Flush()
		}
	})
	s.RunUntil(cfg.Duration + cfg.Drain)
	sv.Stop()
	res := sv.Result()
	res.Record = sv.Telemetry(fmt.Sprintf("kv rate=%g zipf=%g", cfg.ClientRate, cfg.Zipf))
	return res
}

// MakeKey derives the fixed-width key for keyspace index idx.
func MakeKey(idx, keyBytes int) []byte {
	return MakeKeyInto(make([]byte, keyBytes), idx)
}

// MakeKeyInto fills key (its length is the key width) for index idx —
// the zero-alloc variant for callers with a reused buffer.
func MakeKeyInto(key []byte, idx int) []byte {
	binary.BigEndian.PutUint64(key, uint64(idx))
	for i := 8; i < len(key); i++ {
		key[i] = 0xA5
	}
	return key
}

// MakeVal derives a deterministic value for keyspace index idx.
func MakeVal(idx, valBytes int) []byte {
	return MakeValInto(make([]byte, valBytes), idx)
}

// MakeValInto fills val for index idx (zero-alloc variant).
func MakeValInto(val []byte, idx int) []byte {
	for i := range val {
		val[i] = byte(idx + i)
	}
	return val
}
