// Package frontend is the live-traffic ingestion tier: it exposes the
// simulated acceleration cloud as a real Go HTTP service. Two pipelines
// — "rank" (heavy-tailed ranking-style service times) and "dnn" (fixed
// service times) — run as svclb pools sharing one virtual clock and one
// packet-level datacenter, and every request POSTed to the service
// crosses PCIe, LTL, and the simulated fabric before its response is
// written back to the socket.
//
// The frontend supports two clocks:
//
//   - Replay: requests carry a virtual arrival timestamp and the driver
//     waits for the whole script before running the simulation once over
//     the sorted arrivals. Determinism survives the network boundary —
//     same seed and same script produce byte-identical telemetry and
//     identical responses regardless of how many client connections
//     delivered the script or in what order.
//   - RealTime: the virtual clock is paced against the wall clock and
//     requests are injected at arrival. When the simulation falls behind
//     (lag), admitted requests would complete later than virtual time
//     claims, so the lag is charged against the deadline through the
//     svclb admission rule and excess load is shed.
package frontend

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/svclb"
	"repro/internal/workload"
)

// Mode selects the frontend's clock.
type Mode int

const (
	// Replay injects requests into virtual time: deterministic.
	Replay Mode = iota
	// RealTime paces virtual time against the wall clock: live.
	RealTime
)

func (m Mode) String() string {
	if m == RealTime {
		return "realtime"
	}
	return "replay"
}

// PipelineConfig sizes one accelerated pipeline behind the frontend.
type PipelineConfig struct {
	Clients int // ingress hosts (and the submit fan-in width)
	FPGAs   int // initially leased pool size
	Spares  int

	ServiceTime sim.Time
	// Sigma, when positive, draws each request's service time from a
	// lognormal with mean ServiceTime (the ranking pipeline's heavy
	// tail); zero keeps every request at ServiceTime (the DNN batch
	// shape).
	Sigma     float64
	ReqBytes  int
	RespBytes int

	// Deadline is the admission-control deadline; 0 disables shedding.
	Deadline sim.Time
}

// KVConfig sizes the optional "kv" pipeline: an on-fabric KV cache
// (internal/kvcache) behind POST /v1/kv. Requests map seq
// deterministically to a key and operation, so the same script produces
// the same GET/PUT stream in any mode and over any connection order.
type KVConfig struct {
	Enabled bool
	Clients int
	Shards  int
	Spares  int
	// Keys is the keyspace the seq-derived indices draw from.
	Keys               int
	KeyBytes, ValBytes int
	Timeout            sim.Time
	// PutEvery makes every Nth scripted request a PUT; the rest are
	// GETs (0 sends GETs only).
	PutEvery int
}

// Config parameterizes one frontend service.
type Config struct {
	Seed int64
	Mode Mode

	Rank PipelineConfig
	DNN  PipelineConfig
	// KV, when enabled, adds the on-fabric KV cache pipeline at /v1/kv.
	KV KVConfig

	// Expect is the replay script length: the driver buffers requests
	// until it has all of them, then runs the simulation once. Requests
	// also carry the total, which must agree when both are set.
	Expect int

	// Dilation is virtual nanoseconds advanced per wall nanosecond in
	// real-time mode (must be positive there; >1 runs the sim clock
	// faster than wall). The driver polls the clock only while a
	// request is outstanding and otherwise sleeps until the next
	// pending event (DESIGN.md §6.8).
	Dilation float64

	// BackgroundLoad is other tenants' lossless traffic (fabric noise).
	BackgroundLoad float64

	// Telemetry enables span tracing and the metrics registry; SpanLimit
	// overrides the tracer's capture cap (0 = default).
	Telemetry bool
	SpanLimit int
}

// DefaultConfig returns a two-pipeline frontend sized like the svclb
// defaults: a ranking pipeline with a heavy-tailed 250µs mean and a DNN
// pipeline with fixed 250µs service. The KV pipeline is sized but off.
func DefaultConfig() Config {
	return Config{
		Seed: 17,
		Rank: PipelineConfig{
			Clients: 16, FPGAs: 2, Spares: 1,
			ServiceTime: 250 * sim.Microsecond, Sigma: 0.5,
			ReqBytes: 2 << 10, RespBytes: 512,
			Deadline: 2500 * sim.Microsecond,
		},
		DNN: PipelineConfig{
			Clients: 16, FPGAs: 2, Spares: 1,
			ServiceTime: 250 * sim.Microsecond,
			ReqBytes:    4 << 10, RespBytes: 256,
			Deadline: 2500 * sim.Microsecond,
		},
		KV: KVConfig{
			Clients: 4, Shards: 2,
			Keys: 512, KeyBytes: 16, ValBytes: 128,
			Timeout:  2 * sim.Millisecond,
			PutEvery: 4,
		},
		Dilation:       1,
		BackgroundLoad: 0.05,
	}
}

// Resp is the frontend's answer to one request (the HTTP response body).
type Resp struct {
	Seq      uint64 `json:"seq"`
	Pipeline string `json:"pipeline"`
	// Admitted is false when the request was shed (deadline admission
	// control, including real-time fall-behind lag) — HTTP 503.
	Admitted bool `json:"admitted"`
	// LatencyNs is the virtual client-observed latency (admitted only).
	LatencyNs int64 `json:"latency_ns,omitempty"`
	// Hit reports a KV GET answered from the cache (kv pipeline only).
	Hit bool `json:"hit,omitempty"`
	// DoneNs is the virtual completion time.
	DoneNs int64 `json:"done_ns,omitempty"`
	// Error carries a terminal condition (timeout, shutdown) when the
	// request could not be served at all.
	Error string `json:"error,omitempty"`
}

// inReq is one parsed ingress request.
type inReq struct {
	Seq   uint64 `json:"seq"`
	AtNs  int64  `json:"at_ns"` // virtual arrival time (replay mode)
	Total int    `json:"total"` // script length (replay mode)
}

// pipeline is one backing pool plus its frontend-side bookkeeping —
// either an svclb pool (svc) or the on-fabric KV cache (kv); exactly one
// is non-nil. All fields are sim-thread state.
type pipeline struct {
	name  string
	cfg   PipelineConfig
	svc   *svclb.Service
	kv    *kvcache.Service
	kvCfg KVConfig
	rng   *rand.Rand // per-request service-time draws (own stream)
	next  int        // round-robin ingress client cursor

	ingress, shed, completed metrics.Counter
	latency                  *metrics.Histogram
}

// stop halts whichever pool backs the pipeline.
func (pl *pipeline) stop() {
	if pl.svc != nil {
		pl.svc.Stop()
	}
	if pl.kv != nil {
		pl.kv.Stop()
	}
}

// Service is one frontend instance. Construction, injection, and all
// metric access happen on the goroutine driving the simulation: the
// replay driver runs it under its script mutex, the real-time driver on
// its pacing goroutine.
type Service struct {
	cfg    Config
	s      *sim.Simulation
	dc     *netsim.Datacenter
	tracer *obs.Tracer
	pipes  map[string]*pipeline
	order  []string // pipeline names in construction order

	lag metrics.Gauge // virtual-behind-wall at injection (realtime)

	// inflight maps injection tokens to responders, so shutdown can
	// answer stragglers instead of hanging their handlers.
	inflight map[uint64]func(Resp)
	nextTok  uint64

	drv driver

	mu     sync.Mutex
	closed bool
}

// driver owns the clock: it serializes injections onto the sim thread
// and answers stats snapshots from it.
type driver interface {
	// submit delivers one request to pipeline pl; the responder fires
	// exactly once. A false return means the service is shutting down or
	// overloaded and the request was not accepted.
	submit(pl *pipeline, req inReq, respond func(Resp)) bool
	// stats snapshots sim-side state from the sim thread.
	stats() Stats
	// close drains in-flight work and stops the clock.
	close()
}

// New builds the frontend: one simulation, one datacenter, two svclb
// pools on disjoint TOR-aligned host ranges, and the mode's driver.
func New(cfg Config) *Service {
	s, dc, shells := svclb.Standalone(cfg.Seed, cfg.Telemetry, cfg.SpanLimit)

	f := &Service{
		cfg: cfg, s: s, dc: dc,
		pipes:    map[string]*pipeline{},
		inflight: map[uint64]func(Resp){},
	}
	f.tracer = obs.TracerOf(s)

	base := 0
	for _, p := range []struct {
		name string
		pc   PipelineConfig
	}{{"rank", cfg.Rank}, {"dnn", cfg.DNN}} {
		sv := svclb.NewServiceOn(s, dc, shells, base, pipelineSvcConfig(p.pc))
		base = sv.NextHostBase()
		pl := &pipeline{
			name: p.name, cfg: p.pc, svc: sv,
			rng:     s.NewRand(),
			latency: metrics.NewHistogram(),
		}
		f.pipes[p.name] = pl
		f.order = append(f.order, p.name)
		f.registerPipelineMetrics(pl)
	}
	if kc := cfg.KV; kc.Enabled {
		kcfg := kvcache.DefaultConfig()
		kcfg.Seed = cfg.Seed
		kcfg.Clients = kc.Clients
		kcfg.Shards = kc.Shards
		kcfg.Spares = kc.Spares
		kcfg.Timeout = kc.Timeout
		ksv := kvcache.NewServiceOn(s, dc, shells, base, kcfg)
		pl := &pipeline{name: "kv", kv: ksv, kvCfg: kc, latency: metrics.NewHistogram()}
		f.pipes["kv"] = pl
		f.order = append(f.order, "kv")
		f.registerPipelineMetrics(pl)
	}
	if reg := obs.RegistryOf(s); reg != nil {
		reg.Gauge("frontend.lag", "ns", "frontend",
			"virtual time behind the paced wall clock at injection", &f.lag)
	}
	dc.StartBackgroundLoad(cfg.BackgroundLoad, pkt.ClassRDMA, 1400)

	if cfg.Mode == RealTime {
		f.drv = newRTDriver(f)
	} else {
		f.drv = newReplayDriver(f)
	}
	return f
}

func (f *Service) registerPipelineMetrics(pl *pipeline) {
	reg := obs.RegistryOf(f.s)
	if reg == nil {
		return
	}
	const pkg = "frontend"
	reg.Counter("frontend."+pl.name+".ingress", "reqs", pkg,
		"requests reaching the "+pl.name+" pipeline's injector", &pl.ingress)
	reg.Counter("frontend."+pl.name+".shed", "reqs", pkg,
		"requests the "+pl.name+" pipeline rejected at admission", &pl.shed)
	reg.Counter("frontend."+pl.name+".completed", "reqs", pkg,
		"responses the "+pl.name+" pipeline delivered", &pl.completed)
	reg.Histogram("frontend."+pl.name+".latency", "ns", pkg,
		"virtual client-observed latency through the "+pl.name+" pipeline", pl.latency)
}

// pipelineSvcConfig maps a frontend pipeline onto an externally driven
// svclb pool: no generators, no predetermined measurement window. The
// pool routes by p2c from an SM head host and polls health every
// millisecond, as svclb's default pool does.
func pipelineSvcConfig(pc PipelineConfig) svclb.Config {
	return svclb.Config{
		Clients:     pc.Clients,
		FPGAs:       pc.FPGAs,
		Spares:      pc.Spares,
		Policy:      svclb.PolicyP2C,
		ServiceTime: pc.ServiceTime,
		ClientRate:  1, // knee bookkeeping only; arrivals are external
		ReqBytes:    pc.ReqBytes,
		RespBytes:   pc.RespBytes,
		Admission:   pc.Deadline > 0,
		Deadline:    pc.Deadline,
		RMPoll:      sim.Millisecond,
	}
}

// Pipeline returns the named pipeline ("rank" or "dnn"), nil if unknown.
func (f *Service) pipeline(name string) *pipeline { return f.pipes[name] }

// Sim returns the underlying simulation (tests pin virtual invariants).
func (f *Service) Sim() *sim.Simulation { return f.s }

// Mode returns the service's clock mode.
func (f *Service) Mode() Mode { return f.cfg.Mode }

// serviceTimeFor draws one request's service time on the sim thread.
func (pl *pipeline) serviceTimeFor() sim.Time {
	if pl.cfg.Sigma <= 0 {
		return 0 // keep the pool default
	}
	d := sim.Time(workload.LogNormal(pl.rng, float64(pl.cfg.ServiceTime), pl.cfg.Sigma))
	// Clamp the tail: the knee stays heavy-tailed but a single request
	// cannot wedge the drain loop.
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	if max := 16 * pl.cfg.ServiceTime; d > max {
		d = max
	}
	return d
}

// inject runs on the sim thread at the request's virtual arrival: draw
// the service time, pick the ingress client, and submit through svclb
// admission. The responder fires exactly once — synchronously for sheds,
// at virtual completion for admitted requests.
func (f *Service) inject(pl *pipeline, seq uint64, lag sim.Time, respond func(Resp)) {
	if pl.kv != nil {
		f.injectKV(pl, seq, lag, respond)
		return
	}
	pl.ingress.Inc()
	f.lag.Set(int64(lag))
	svcT := pl.serviceTimeFor()
	ci := pl.next
	pl.next = (pl.next + 1) % pl.svc.Clients()

	var span obs.SpanID
	tok := f.nextTok
	f.nextTok++
	id, ok := pl.svc.Submit(ci, svclb.Request{
		Service: svcT,
		Lag:     lag,
		Done: func(latv sim.Time) {
			pl.completed.Inc()
			pl.latency.Observe(int64(latv))
			f.tracer.End(span)
			delete(f.inflight, tok)
			respond(Resp{
				Seq: seq, Pipeline: pl.name, Admitted: true,
				LatencyNs: int64(latv), DoneNs: int64(f.s.Now()),
			})
		},
	})
	if !ok {
		pl.shed.Inc()
		f.tracer.Event(0, "frontend.shed", 0, int64(seq))
		respond(Resp{Seq: seq, Pipeline: pl.name, Admitted: false, DoneNs: int64(f.s.Now())})
		return
	}
	if f.tracer != nil {
		span = f.tracer.Start(obs.ReqFlow(id), "frontend.request", 0)
		f.tracer.SetArg(span, int64(seq))
	}
	f.inflight[tok] = respond
}

// injectKV runs one scripted request against the KV pipeline. The seq
// number deterministically selects the operation and key, so replay
// digests are connection-order-independent exactly like the svclb
// pipelines'. A timeout answers as not-admitted (HTTP 503): the cache
// never owes an answer, only speed.
func (f *Service) injectKV(pl *pipeline, seq uint64, lag sim.Time, respond func(Resp)) {
	pl.ingress.Inc()
	f.lag.Set(int64(lag))
	clients := pl.kv.Clients()
	cl := clients[pl.next]
	pl.next = (pl.next + 1) % len(clients)

	tok := f.nextTok
	f.nextTok++
	f.inflight[tok] = respond
	done := func(o kvcache.Outcome) {
		delete(f.inflight, tok)
		if o.TimedOut {
			pl.shed.Inc()
			respond(Resp{Seq: seq, Pipeline: pl.name, Admitted: false, DoneNs: int64(f.s.Now())})
			return
		}
		pl.completed.Inc()
		pl.latency.Observe(int64(o.Latency))
		respond(Resp{
			Seq: seq, Pipeline: pl.name, Admitted: true, Hit: o.Hit,
			LatencyNs: int64(o.Latency), DoneNs: int64(f.s.Now()),
		})
	}
	// Fibonacci-hash the seq so GETs and PUTs spray the keyspace rather
	// than walking it in order.
	idx := int(seq * 2654435761 % uint64(pl.kvCfg.Keys))
	key := kvcache.MakeKey(idx, max(pl.kvCfg.KeyBytes, 8)) // the index takes 8 bytes
	if pe := pl.kvCfg.PutEvery; pe > 0 && seq%uint64(pe) == 0 {
		cl.Put(key, kvcache.MakeVal(idx, pl.kvCfg.ValBytes), done)
	} else {
		cl.Get(key, done)
	}
}

// outstanding reports admitted-but-unanswered requests (sim thread).
func (f *Service) outstanding() int { return len(f.inflight) }

// abandon answers every in-flight request with a terminal error (sim
// thread; shutdown path only, so map order does not matter).
func (f *Service) abandon(msg string) {
	for tok, respond := range f.inflight {
		delete(f.inflight, tok)
		respond(Resp{Admitted: false, Error: msg})
	}
}

// drainOutstanding advances virtual time until every admitted request
// has answered, in bounded steps. It returns false if the event queue
// dries up or the step budget is exhausted first (then the caller
// abandons the leftovers).
func (f *Service) drainOutstanding(step sim.Time, maxSteps int) bool {
	for i := 0; i < maxSteps && f.outstanding() > 0; i++ {
		if _, ok := f.s.NextEventTime(); !ok {
			return false
		}
		f.s.RunFor(step)
	}
	return f.outstanding() == 0
}

// PipelineStats is one pipeline's counter snapshot.
type PipelineStats struct {
	Ingress   uint64 `json:"ingress"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	P50Ns     int64  `json:"p50_ns"`
	P99Ns     int64  `json:"p99_ns"`
}

// Stats is the service-wide snapshot served at /v1/stats.
type Stats struct {
	Mode        string                   `json:"mode"`
	VirtualNs   int64                    `json:"virtual_ns"`
	Outstanding int                      `json:"outstanding"`
	LagNs       int64                    `json:"lag_ns"`      // last injection's lag
	LagPeakNs   int64                    `json:"lag_peak_ns"` // watermark
	Pipelines   map[string]PipelineStats `json:"pipelines"`

	// The real-time driver's wall-time split (zero in replay mode): wall
	// ns spent running the simulation, wall ns asleep with no request
	// outstanding, and the wakes from that sleep by cause.
	AdvanceWallNs int64  `json:"advance_wall_ns,omitempty"`
	SleepWallNs   int64  `json:"sleep_wall_ns,omitempty"`
	TaskWakes     uint64 `json:"task_wakes,omitempty"`
	TimerWakes    uint64 `json:"timer_wakes,omitempty"`
}

// snapshotStats must run on the sim thread.
func (f *Service) snapshotStats() Stats {
	st := Stats{
		Mode:        f.cfg.Mode.String(),
		VirtualNs:   int64(f.s.Now()),
		Outstanding: f.outstanding(),
		LagNs:       f.lag.Value(),
		LagPeakNs:   f.lag.Watermark(),
		Pipelines:   map[string]PipelineStats{},
	}
	for _, name := range f.order {
		pl := f.pipes[name]
		st.Pipelines[name] = PipelineStats{
			Ingress:   pl.ingress.Value(),
			Shed:      pl.shed.Value(),
			Completed: pl.completed.Value(),
			P50Ns:     pl.latency.Percentile(50),
			P99Ns:     pl.latency.Percentile(99),
		}
	}
	return st
}

// Stats snapshots the service through its driver (safe from any
// goroutine).
func (f *Service) Stats() Stats { return f.drv.stats() }

// Telemetry collects the run's observability record (nil when telemetry
// is off). Call it only when the clock is quiescent: after the replay
// has run, or after Close in real-time mode.
func (f *Service) Telemetry(point string) *obs.Record {
	c := obs.Of(f.s)
	if c == nil {
		return nil
	}
	return obs.Collect(c, "frontend", point)
}

// Close drains in-flight requests, answers stragglers, and stops both
// pools. Idempotent.
func (f *Service) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.drv.close()
}

// sortScript orders a replay script by (virtual arrival, seq): the
// injection order, whatever order the network delivered the requests in.
func sortScript(reqs []scriptedReq) {
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].at != reqs[j].at {
			return reqs[i].at < reqs[j].at
		}
		return reqs[i].seq < reqs[j].seq
	})
}

// scriptedReq is one buffered replay-mode request.
type scriptedReq struct {
	seq     uint64
	at      sim.Time
	pl      *pipeline
	respond func(Resp)
}

func badPipeline(name string) error { return fmt.Errorf("unknown pipeline %q", name) }
