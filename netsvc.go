package configcloud

// E18 — on-fabric network services. The paper's §III argument, applied
// to the two services every datacenter runs: a line-rate KV cache whose
// GET/PUT path terminates on the FPGA (replies leave the shard board
// without the host ever waking), and a Dagger-style RPC NIC that moves
// request decode + dispatch off host software. Four views:
//
//  1. KV latency/throughput under uniform and Zipf-skewed load, with
//     the on-fabric witness (fabric replies > 0, shard-host PCIe = 0).
//  2. RPC offload vs the host-software baseline — same seed, topology,
//     and workload; only the decode location differs — plus doorbell
//     batching, KV multi-get coalescing, and the shards' cuckoo
//     directory on a deliberately pressured geometry.
//  3. The KV workload with every pod's shard in one keyspace, at up to
//     16 pods.
//  4. The KV cache behind the live HTTP frontend (/v1/kv), driven over
//     real sockets by the open-loop load generator.

import (
	"fmt"
	"time"

	"repro/internal/frontend"
	"repro/internal/kvcache"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/rpcnic"
	"repro/internal/shell"
	"repro/internal/sim"
)

// netsvcKVConfig shapes one KV sweep point. The keyspace is kept small
// relative to the request volume so hit rates move visibly with skew.
func netsvcKVConfig(seed int64, rate, zipf float64, scale Scale) kvcache.Config {
	cfg := kvcache.DefaultConfig()
	cfg.Seed = seed
	cfg.Keys = 512
	cfg.GetFraction = 0.85
	cfg.ClientRate = rate
	cfg.Zipf = zipf
	cfg.Duration = 8 * Millisecond
	cfg.Drain = 4 * Millisecond
	cfg.FaultProfile = defaultFaultProfile
	if scale == Full {
		cfg.Duration = 40 * Millisecond
		cfg.Drain = 8 * Millisecond
	}
	return cfg
}

// expNetsvcKV sweeps offered load × key distribution. The first row runs
// twice as the digest-identity witness.
func expNetsvcKV(scale Scale) *Table {
	t := &Table{
		Title: "E18a — Line-rate KV cache: latency vs offered load and skew (on-fabric = replies without host PCIe)",
		Headers: []string{"dist", "rate/client", "offered", "completed", "hit rate",
			"p50", "p99", "timeouts", "evictions", "on-fabric", "identical"},
	}
	rates := []float64{10000, 25000}
	if scale == Full {
		rates = []float64{10000, 25000, 50000}
	}
	first := true
	for _, dist := range []struct {
		name string
		zipf float64
	}{{"uniform", 0}, {"zipf-1.2", 1.2}} {
		for _, rate := range rates {
			cfg := netsvcKVConfig(18, rate, dist.zipf, scale)
			if first && TelemetryEnabled() {
				cfg.Telemetry = true
				cfg.SpanLimit = 4096
			}
			res := kvcache.Run(cfg)
			identical := "-"
			if first {
				cfg2 := cfg
				cfg2.Telemetry = false
				res2 := kvcache.Run(cfg2)
				identical = fmt.Sprint(res2.Digest == res.Digest && res2.Completed == res.Completed)
				addTelemetry("netsvc", res.Record)
				first = false
			}
			t.AddRow(dist.name, fmt.Sprintf("%.0f", rate), res.Offered, res.Completed,
				fmt.Sprintf("%.3f", res.HitRate), res.P50, res.P99,
				res.Timeouts, res.Evictions, res.OnFabric, identical)
		}
	}
	return t
}

// expNetsvcRPC runs the offload/host pair, then the offload pipeline
// again with doorbell batching. Everything but the decode location (and,
// for the batched rows, the doorbell) is held fixed, so the first two
// rows isolate what moving serialization handling onto the NIC-attached
// FPGA buys, and the batched rows expose the dispatch-events-vs-tail
// trade: fewer pipeline events per request, at the price of requests
// waiting for the doorbell to fill.
func expNetsvcRPC(scale Scale) *Table {
	t := &Table{
		Title: "E18b — RPC NIC: FPGA offload vs host-software decode, and doorbell batching (same seed, topology, and workload)",
		Headers: []string{"mode", "batch", "offered", "completed", "timeouts",
			"p50", "p99", "mean", "doorbells", "host CPU busy"},
	}
	points := []struct {
		offload bool
		batch   int
		window  sim.Time
	}{
		{true, 0, 0}, {false, 0, 0},
		{true, 4, 2 * sim.Microsecond},
		{true, 16, 16 * sim.Microsecond},
	}
	for _, pt := range points {
		cfg := rpcnic.DefaultConfig()
		cfg.Seed = 18
		cfg.Offload = pt.offload
		cfg.Batch.Size = pt.batch
		cfg.Batch.Window = pt.window
		cfg.FaultProfile = defaultFaultProfile
		if scale == Full {
			cfg.Duration = 40 * Millisecond
			cfg.Drain = 8 * Millisecond
		}
		if pt.offload && pt.batch == 0 && TelemetryEnabled() {
			cfg.Telemetry = true
			cfg.SpanLimit = 4096
		}
		res := rpcnic.Run(cfg)
		addTelemetry("netsvc", res.Record)
		batch, doorbells := "-", "-"
		if pt.batch > 0 {
			batch = fmt.Sprintf("%dx%s", pt.batch, pt.window)
			doorbells = fmt.Sprint(res.Doorbells)
		}
		t.AddRow(res.Mode, batch, res.Offered, res.Completed, res.Timeouts,
			res.P50, res.P99, res.Mean, doorbells, fmt.Sprintf("%.2f", res.HostBusy))
	}
	return t
}

// expNetsvcKVBatch is E18b's KV half: multi-get coalescing on the
// default store, then the cuckoo directory on a deliberately pressured
// geometry (512 directory slots across 4 shards for a 512-key working
// set), where occupancy, evictions and relocation kicks show what the
// 2-hash x 4-way table does with a full directory.
func expNetsvcKVBatch(scale Scale) *Table {
	t := &Table{
		Title: "E18b (KV) — multi-get coalescing and the cuckoo directory under pressure (512 slots for 512 keys)",
		Headers: []string{"variant", "offered", "completed", "hit rate",
			"p50", "p99", "occupancy", "evictions", "kicks"},
	}
	row := func(name string, cfg kvcache.Config) {
		res := kvcache.Run(cfg)
		occ := "-"
		if res.Slots > 0 {
			occ = fmt.Sprintf("%.3f", float64(res.Used)/float64(res.Slots))
		}
		t.AddRow(name, res.Offered, res.Completed,
			fmt.Sprintf("%.3f", res.HitRate), res.P50, res.P99,
			occ, res.Evictions, res.Kicks)
	}
	for _, mget := range []int{1, 4, 8} {
		cfg := netsvcKVConfig(18, 25000, 1.2, scale)
		cfg.MGetBatch = mget
		name := "mget off"
		if mget > 1 {
			name = fmt.Sprintf("mget x%d", mget)
		}
		row(name, cfg)
	}
	cfg := netsvcKVConfig(18, 25000, 0, scale)
	cfg.Store.Sets, cfg.Store.Ways = 32, 4
	row("cuckoo 32x4", cfg)
	return t
}

// KVLoad is the closed-loop KV client population shared by the
// fabric-wide KV points (E18c, E19c): per pod, ClientsPerPod clients
// each issue RequestsPerClient requests over a Keys-key space, one at a
// time, with exponential think times of mean MeanGap (0 = back to back).
type KVLoad struct {
	ClientsPerPod     int
	RequestsPerClient int
	Keys              int
	GetFraction       float64
	MeanGap           sim.Time
	Timeout           sim.Time
}

// start places one KV shard per pod on the pod's second TOR — attach
// serves each pod's store on its board (nil = kvcache.AttachShard, the
// whole board) — then starts the clients pod-major on each pod's first
// TOR, issuing from virtual time from. mget > 1 coalesces each client's GETs into
// per-shard multi-gets (kvcache.MGetBatcher); buffered keys ride the
// next flush, so the closed loop advances as soon as a key is queued.
// Every order here is fixed before the clock starts.
func (w KVLoad) start(c *Cloud, topo netsim.Config, mget int, from sim.Time,
	attach func(pod int, n Node, st *kvcache.Store)) []*kvcache.Client {
	perPod := topo.HostsPerTOR * topo.TORsPerPod
	shardHosts := make([]int, topo.Pods)
	for p := range shardHosts {
		h := p*perPod + topo.HostsPerTOR
		shardHosts[p] = h
		n := c.Node(h)
		st := kvcache.NewStore(c.Sim, n.Shell.DRAM, kvcache.DefaultStoreConfig())
		if attach != nil {
			attach(p, n, st)
		} else {
			kvcache.AttachShard(c.Sim, n.Shell, st)
		}
	}
	lookup := func(hash uint64) int { return shardHosts[hash%uint64(len(shardHosts))] }

	var clients []*kvcache.Client
	for p := range shardHosts {
		for i := 0; i < w.ClientsPerPod; i++ {
			h := p*perPod + i
			cl := kvcache.NewClient(c.Sim, c.Node(h).Shell, w.Timeout, lookup)
			clients = append(clients, cl)

			rng := c.Sim.NewRand()
			remaining := w.RequestsPerClient
			var next func(kvcache.Outcome)
			batcher := kvcache.NewMGetBatcher(cl, len(shardHosts), mget, 16,
				func(kvcache.MResp, sim.Time, bool) { next(kvcache.Outcome{}) })
			issue := func() {
				if remaining == 0 {
					return
				}
				remaining--
				idx := rng.Intn(w.Keys)
				key := kvcache.MakeKey(idx, 16)
				switch {
				case rng.Float64() >= w.GetFraction:
					cl.Put(key, kvcache.MakeVal(idx, 128), next)
				case batcher == nil:
					cl.Get(key, next)
				case !batcher.Add(key, idx):
					next(kvcache.Outcome{}) // buffered: the loop advances
				}
			}
			next = func(kvcache.Outcome) {
				gap := sim.Time(rng.ExpFloat64() * float64(w.MeanGap))
				c.Sim.Schedule(gap, issue)
			}
			c.Sim.Schedule(from+startOffset(rng, w.MeanGap), issue)
		}
	}
	return clients
}

// foldClients tallies the clients' request counters and folds each
// client's completion digest, in client order.
func foldClients(clients []*kvcache.Client, fold func(...uint64)) (offered, completed, hits, timeouts uint64) {
	for _, cl := range clients {
		s := &cl.Stats
		offered += s.Gets.Value() + s.Puts.Value()
		completed += s.Hits.Value() + s.Misses.Value() + s.PutAcks.Value()
		hits += s.Hits.Value()
		timeouts += s.Timeouts.Value()
		fold(cl.Digest())
	}
	return offered, completed, hits, timeouts
}

// NetsvcScaleConfig drives one fabric-wide KV point: per pod, a cluster
// of closed-loop KV clients and one shard host, with the keyspace hashed
// across every pod's shard — so most requests cross the L2 spine.
type NetsvcScaleConfig struct {
	FabricPoint
	KVLoad
	// MGetBatch > 1 coalesces each client's GETs into per-shard
	// multi-get datagrams of that size (clamped to kvcache.MaxMultiKeys).
	MGetBatch int
}

// DefaultNetsvcScaleConfig sizes the fabric-wide KV workload for pods.
func DefaultNetsvcScaleConfig(pods int) NetsvcScaleConfig {
	return NetsvcScaleConfig{
		FabricPoint: FabricPoint{Seed: 18, Pods: pods, Duration: 20 * sim.Millisecond},
		KVLoad: KVLoad{
			ClientsPerPod:     2,
			RequestsPerClient: 150,
			Keys:              256,
			GetFraction:       0.8,
			MeanGap:           30 * sim.Microsecond,
			Timeout:           2 * sim.Millisecond,
		},
	}
}

// NetsvcScaleResult summarizes one fabric-wide KV run. The digest folds
// every client's completion stream in client order.
type NetsvcScaleResult struct {
	FabricRun
	Offered   uint64
	Completed uint64
	Hits      uint64
	Timeouts  uint64
}

// RunNetsvcScalePoint runs the KV service with one shard per pod.
func RunNetsvcScalePoint(cfg NetsvcScaleConfig) NetsvcScaleResult {
	c, topo := cfg.build(netsim.DefaultConfig(), shell.Config{})
	clients := cfg.KVLoad.start(c, topo, cfg.MGetBatch, 0, nil)
	var res NetsvcScaleResult
	res.FabricRun = cfg.run(c, "netsvc", fmt.Sprintf("shardkv pods=%d", cfg.Pods), func(fold func(...uint64)) {
		res.Offered, res.Completed, res.Hits, res.Timeouts = foldClients(clients, fold)
	})
	return res
}

// expNetsvcScale runs the fabric-wide KV point once per pod count.
func expNetsvcScale(scale Scale) *Table {
	t := &Table{
		Title: "E18c — KV service with one shard per pod, keys hashed across pods",
		Headers: []string{"pods", "offered", "completed", "hits", "timeouts",
			"events", "seq wall"},
	}
	pods := []int{2, 4}
	mk := func(p int) NetsvcScaleConfig {
		cfg := DefaultNetsvcScaleConfig(p)
		cfg.HostsPerTOR = 8
		cfg.TORsPerPod = 4
		cfg.RequestsPerClient = 60
		cfg.Duration = 8 * Millisecond
		return cfg
	}
	if scale == Full {
		pods = []int{2, 4, 16}
		mk = DefaultNetsvcScaleConfig
	}
	for _, p := range pods {
		cfg := mk(p)
		cfg.observe()
		r := RunNetsvcScalePoint(cfg)
		addTelemetry("netsvc", r.Record)
		t.AddRow(p, r.Offered, r.Completed, r.Hits, r.Timeouts, r.Events, r.wall())
	}
	return t
}

// RunNetsvcHTTPPoint serves a mixed rank/kv script over a real loopback
// listener in replay mode, with the KV pipeline enabled at /v1/kv.
func RunNetsvcHTTPPoint(seed int64, rate float64, duration sim.Time, clients int) (loadgen.Result, frontend.Stats, error) {
	script := loadgen.ScriptMix(seed+1, rate, duration,
		[]loadgen.Mix{{Pipeline: "rank", Weight: 0.25}, {Pipeline: "kv", Weight: 0.75}})

	fcfg := frontend.DefaultConfig()
	fcfg.Seed = seed
	fcfg.Mode = frontend.Replay
	fcfg.Expect = len(script)
	fcfg.KV.Enabled = true
	fcfg.KV.Keys = 256
	res, stats, err := serveLoopback(frontend.New(fcfg), loadgen.Config{Clients: clients}, script)
	if err != nil {
		return loadgen.Result{}, frontend.Stats{}, fmt.Errorf("netsvc: %w", err)
	}
	return res, stats, nil
}

// expNetsvcHTTP is the live-wire view: the same on-fabric KV cache, but
// every request crosses a real socket. Runs twice for the digest column.
func expNetsvcHTTP(scale Scale) *Table {
	t := &Table{
		Title: "E18d — KV cache behind the HTTP frontend (replay clock, mixed rank/kv script)",
		Headers: []string{"sent", "kv reqs", "kv completed", "kv shed", "ok",
			"client p50", "client p99", "conserved", "identical"},
	}
	rate, duration := 3000.0, 30*Millisecond
	if scale == Full {
		rate, duration = 6000, 100*Millisecond
	}
	res, stats, err := RunNetsvcHTTPPoint(18, rate, duration, 8)
	if err != nil {
		t.AddRow("-", "-", "-", "-", "-", "-", "-", err.Error(), "-")
		return t
	}
	res2, _, err2 := RunNetsvcHTTPPoint(18, rate, duration, 2)
	identical := fmt.Sprint(err2 == nil && res2.Digest == res.Digest && res2.OK == res.OK)
	kv := stats.Pipelines["kv"]
	conserved := res.Lost == 0 && res.Dup == 0 && res.Errors == 0
	t.AddRow(res.Sent, kv.Ingress, kv.Completed, kv.Shed, res.OK,
		res.WallP50.Round(time.Microsecond).String(),
		res.WallP99.Round(time.Microsecond).String(),
		conserved, identical)
	return t
}

// ExpNetsvc is experiment E18: the two on-fabric network services.
func ExpNetsvc(scale Scale) []*Table {
	return []*Table{
		expNetsvcKV(scale),
		expNetsvcRPC(scale),
		expNetsvcKVBatch(scale),
		expNetsvcScale(scale),
		expNetsvcHTTP(scale),
	}
}
