package configcloud

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/faultinject"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// ShardedCloud is a Cloud partitioned by pod for conservative-parallel
// execution (internal/sim/shard): the L2 spine runs on shard 0 and each
// pod on its own shard, with the pod<->spine cable latency as the
// lookahead. The partition is fixed by the topology — the worker count
// chosen at construction only decides how many goroutines advance the
// shards, never the results: a run with W workers is bit-identical to
// the same cloud run with one worker.
//
// Construction (Node calls, connection setup, load generators) must
// finish before the first Run: lazy instantiation registers cross-shard
// mailboxes, which is a construction-time operation.
type ShardedCloud struct {
	Group *shard.Group
	DC    *netsim.Datacenter
	// Obs holds the per-shard observability contexts (shard order) when
	// Options.Telemetry was set; merge them after a run with
	// obs.CollectGroup. Nil otherwise.
	Obs []*obs.Context

	seed     int64
	shellCfg shell.Config
	shells   map[int]*shell.Shell
	faults   map[int]*faultinject.Injector // pod -> injector, created lazily
	profile  *faultinject.Profile
}

// NewSharded builds a pod-sharded cloud. workers caps the goroutines
// advancing the shards each conservative window; 0 means one per core
// (capped at the shard count), 1 means sequential execution of the same
// partition.
func NewSharded(opts Options, workers int) *ShardedCloud {
	topo := opts.Topology
	if topo.HostsPerTOR == 0 {
		topo = netsim.DefaultConfig()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := shard.NewGroup(opts.Seed, topo.Pods+1, workers)
	shCfg := opts.Shell
	if shCfg.BridgeLatency == 0 {
		shCfg = shell.DefaultConfig()
	}
	c := &ShardedCloud{
		Group:    g,
		seed:     opts.Seed,
		shellCfg: shCfg,
		shells:   make(map[int]*shell.Shell),
		faults:   make(map[int]*faultinject.Injector),
	}
	if opts.Telemetry {
		c.Obs = obs.EnableGroup(g.Sims())
	}
	profName := opts.FaultProfile
	if profName == "" {
		profName = defaultFaultProfile
	}
	if profName != "" {
		p, err := faultinject.ByName(profName)
		if err != nil {
			panic(fmt.Sprintf("configcloud: %v", err))
		}
		c.profile = &p
	}
	if !opts.NoFPGAs {
		topo.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
			sh := shell.New(dc.SimForHost(hostID), hostID, netsim.DefaultPortConfig(), shCfg)
			c.shells[hostID] = sh
			return sh
		}
	}
	c.DC = netsim.NewShardedDatacenter(g, topo)
	return c
}

// Node instantiates (if needed) and returns server id with its shell.
// Under a fault profile, the node registers with its pod's injector —
// fault schedules and draws stay on the shard that owns the node, so
// they replay identically at any worker count.
func (c *ShardedCloud) Node(id int) Node {
	_, known := c.shells[id]
	h := c.DC.Host(id)
	sh := c.shells[id]
	if sh != nil && !known {
		pod, _, _ := c.DC.Locate(id)
		inj := c.faults[pod]
		if inj == nil {
			inj = faultinject.New(c.DC.SimForPod(pod))
			c.faults[pod] = inj
		}
		inj.AddNode(id, sh)
		if c.profile != nil {
			inj.Start(*c.profile)
		}
	}
	return Node{ID: id, Host: h, Shell: sh}
}

// Injector returns pod's fault injector, creating it if needed (e.g. to
// drive faults directly without a profile).
func (c *ShardedCloud) Injector(pod int) *faultinject.Injector {
	inj := c.faults[pod]
	if inj == nil {
		inj = faultinject.New(c.DC.SimForPod(pod))
		c.faults[pod] = inj
	}
	return inj
}

// Seed returns the group seed the cloud was built with.
func (c *ShardedCloud) Seed() int64 { return c.seed }

// Run advances virtual time by d across all shards.
func (c *ShardedCloud) Run(d Time) { c.Group.RunFor(d) }

// RunUntil advances all shards to the absolute virtual time t.
func (c *ShardedCloud) RunUntil(t Time) { c.Group.RunUntil(t) }

// Now returns the group clock (all shards agree between runs).
func (c *ShardedCloud) Now() Time { return c.Group.Now() }

// Fired sums executed events across all shards.
func (c *ShardedCloud) Fired() uint64 { return c.Group.Fired() }

// Tier reports the network tier connecting two hosts (0 = same TOR,
// 1 = same pod, 2 = cross-pod).
func (c *ShardedCloud) Tier(a, b int) int { return c.DC.Tier(a, b) }

// SimForHost returns the shard simulation host id lives on — for
// scheduling workload callbacks next to the components they drive.
func (c *ShardedCloud) SimForHost(id int) *sim.Simulation { return c.DC.SimForHost(id) }

// ShardedPoint is the set-up shared by every pod-sharded experiment point
// (E16, E18c, E19c): seed, down-sized topology, run length, and how the
// run is advanced and observed.
type ShardedPoint struct {
	Seed int64
	// Topology dimensions. Zero HostsPerTOR/TORsPerPod mean the paper's
	// (24 hosts/TOR, 40 TORs/pod); Pods must be set.
	Pods        int
	HostsPerTOR int
	TORsPerPod  int
	// Duration is the virtual run time.
	Duration sim.Time
	// Workers is the goroutine count advancing the shards (0 = one per
	// core). The digest is worker-count-independent by construction.
	Workers int
	// Telemetry collects a merged obs Record for the run; SpanLimit
	// caps each shard's span log (0 = tracer default).
	Telemetry bool
	SpanLimit int
}

// ShardedRun is what every sharded point reports about its run.
type ShardedRun struct {
	Workers   int
	Events    uint64
	Crossings uint64
	Rounds    uint64
	// Digest folds the point's own values in construction order, then
	// the event and crossing totals: two runs agree on the digest iff the
	// simulation behaved identically.
	Digest  uint64
	Elapsed time.Duration
	// Record is the merged telemetry (nil unless Telemetry was set).
	Record *obs.Record
}

// build sets the point's dimensions on topo (which may carry cable-delay
// overrides) and constructs the pod-sharded cloud with shCfg (zero = the
// default shell). It returns the cloud and the topology it was built on.
func (p ShardedPoint) build(topo netsim.Config, shCfg shell.Config) (*ShardedCloud, netsim.Config) {
	topo.Pods = p.Pods
	if p.HostsPerTOR > 0 {
		topo.HostsPerTOR = p.HostsPerTOR
	}
	if p.TORsPerPod > 0 {
		topo.TORsPerPod = p.TORsPerPod
	}
	c := NewSharded(Options{Seed: p.Seed, Topology: topo, Shell: shCfg, Telemetry: p.Telemetry}, p.Workers)
	if p.SpanLimit > 0 {
		for _, ctx := range c.Obs {
			ctx.Tracer.SetLimit(p.SpanLimit)
		}
	}
	return c, topo
}

// run advances the built cloud for p.Duration, timing it on the wall
// clock. tally folds the point's own values into the digest in a fixed
// order (tallying its result as it goes); the event and crossing totals
// follow. The telemetry label must omit the worker count: a parallel
// run's telemetry has to be byte-identical to the sequential run's.
func (p ShardedPoint) run(c *ShardedCloud, experiment, label string, tally func(fold func(...uint64))) ShardedRun {
	start := time.Now()
	c.Run(p.Duration)
	r := ShardedRun{
		Elapsed:   time.Since(start),
		Workers:   c.Group.Workers(),
		Events:    c.Fired(),
		Crossings: c.Group.Crossings,
		Rounds:    c.Group.Rounds,
	}
	h := uint64(obs.FNVOffset)
	tally(func(vs ...uint64) { h = obs.FNVFold(h, vs...) })
	r.Digest = obs.FNVFold(h, r.Events, r.Crossings)
	if p.Telemetry {
		r.Record = obs.CollectGroup(c.Obs, experiment, label, p.Seed)
	}
	return r
}

// wall renders the run's wall-clock time for the seq-vs-parallel tables.
func (r ShardedRun) wall() string { return r.Elapsed.Round(time.Millisecond).String() }

// startOffset draws a request chain's first-send jitter in [0, meanGap);
// a zero meanGap means back-to-back requests from time zero.
func startOffset(rng *rand.Rand, meanGap sim.Time) sim.Time {
	if meanGap <= 0 {
		return 0
	}
	return sim.Time(rng.Intn(int(meanGap)))
}

// scaleWorkers resolves the parallel worker count for the seq-vs-parallel
// tables: the -shards flag when set, else one worker per core — but never
// fewer than two, so the parallel rows exercise the concurrent path (and
// the digest comparison stays meaningful) even on a single-core machine.
func scaleWorkers() int {
	if n := Shards(); n > 0 {
		return n
	}
	return max(runtime.GOMAXPROCS(0), 2)
}

// seqVsPar runs one sharded point twice through run, which reads pt:
// sequentially (one worker), then on scaleWorkers() workers. Telemetry
// rides the parallel run only: the sequential run's record would be
// byte-identical (the determinism tests enforce that), so collecting
// both would just duplicate records. Tracing appends spans but schedules
// nothing, so the traced run's digest still matches the untraced one.
func seqVsPar[R any](pt *ShardedPoint, run func() R) (seq, par R) {
	pt.Workers = 1
	seq = run()
	pt.Telemetry = TelemetryEnabled()
	if pt.Telemetry {
		pt.SpanLimit = 4096
	}
	pt.Workers = scaleWorkers()
	return seq, run()
}
