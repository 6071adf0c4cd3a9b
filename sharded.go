package configcloud

import (
	"fmt"
	"runtime"

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
