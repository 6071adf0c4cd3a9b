package configcloud

// E19 — vFPGA multi-tenancy. The paper deploys one role per FPGA; E19
// measures what the pool gains — and what tenants risk — when the shell's
// role region is split into partially reconfigurable vFPGA slots
// (internal/shell/slots.go) scheduled by the HaaS Resource Manager
// (internal/haas/slots.go). Three views:
//
//  1. Pool packing: a heterogeneous tenant mix (the E15/E16 roles —
//     ranking, DNN, crypto, KV cache, compression) bin-packed onto an
//     asymmetrically floorplanned slot pool, against the dedicated
//     one-board-per-role baseline; then churn, then a defrag-off/on A/B
//     where live partial reconfiguration drains fragmented boards.
//  2. Noisy neighbor: a latency-sensitive tenant alone on a board, then
//     co-located with an elephant tenant blasting datagrams through the
//     shared 40G link — unshaped, and with the slot's egress token
//     bucket capping the elephant before its frames reach the wire.
//  3. The multi-tenant board in every pod: KV shard in slot 0, shaped
//     elephant in slot 1, at up to 8 pods.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/haas"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/sim"
)

// Datagram kinds used by the tenancy workloads (disjoint from
// kvcache.KindReq/KindResp, which share boards in E19c).
const (
	kindTenantPing  uint8 = 0x61
	kindTenantPong  uint8 = 0x62
	kindTenantBlast uint8 = 0x63
)

// tenantStub is the minimal role loaded into a slot by the tenancy
// experiments: slot tenants exchange service datagrams, so the Role
// interface's request path just echoes.
type tenantStub struct{ name string }

func (r tenantStub) Name() string { return r.name }
func (r tenantStub) HandleRequest(_ shell.RequestSource, p []byte, respond func([]byte)) {
	respond(p)
}

// tenancyFloorplan is E19a's asymmetric 3-slot partition of the role
// region: one slot big enough for ranking's feature stage, a mid slot,
// and a small slot — so best-fit placement has real work to do.
func tenancyFloorplan() shell.SlotConfig {
	sc := shell.DefaultSlotConfig(3)
	big := 48295
	mid := 28295
	sc.ALMs = []int{big, mid, shell.RoleRegionALMs() - big - mid}
	return sc
}

// tenancySpec is one tenant kind in the E19a mix, with a coarse ALM
// footprint for its role (the Fig. 5 ledger scale: the role region holds
// 96590 ALMs).
type tenancySpec struct {
	name  string
	alms  int
	count int
}

func tenancyMix() []tenancySpec {
	return []tenancySpec{
		{"ranking", 44000, 2},
		{"dnn", 30000, 2},
		{"kvcache", 17500, 2},
		{"crypto", 9500, 2},
		{"compress", 12000, 1},
	}
}

// tenancyPool builds a slotted board pool registered with a HaaS RM:
// every slot grant runs the shell's real partial-reconfiguration cost
// model. Returns the RM, the shells, and the obs context (nil without
// telemetry).
func tenancyPool(seed int64, boards int, telemetry bool) (*sim.Simulation, *haas.ResourceManager, map[int]*shell.Shell, *obs.Context) {
	s := sim.New(seed)
	var ctx *obs.Context
	if telemetry {
		ctx = obs.Enable(s)
	}
	shells := map[int]*shell.Shell{}
	topo := netsim.DefaultConfig()
	topo.HostsPerTOR = 8
	topo.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		shCfg := shell.DefaultConfig()
		shCfg.Slots = tenancyFloorplan()
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shCfg)
		shells[hostID] = sh
		return sh
	}
	dc := netsim.NewDatacenter(s, topo)
	rm := haas.NewResourceManager(s, haas.RMConfig{
		HealthPollInterval: 5 * sim.Millisecond,
	})
	for i := 0; i < boards; i++ {
		dc.Host(i)
		sh := shells[i]
		id := haas.NodeID(i)
		rm.RegisterSlots(&haas.SlotFM{
			FM: &haas.FPGAManager{
				Node:      id,
				Configure: func(string) {},
				Healthy:   func() bool { return !sh.Failed() },
			},
			Caps: sh.SlotCaps(),
			ConfigureSlot: func(slot int, tenant, image string, alms int, done func(ok bool)) (sim.Time, error) {
				return sh.ReconfigureSlot(slot, tenant, tenantStub{tenant}, alms, done)
			},
			ClearSlot: sh.ClearSlot,
		})
	}
	return s, rm, shells, ctx
}

// expTenancyPool is E19a: pack the heterogeneous mix, compare pool
// boards/utilization against the dedicated baseline, churn, then the
// defrag A/B — "off" is the pool as churn left it, "on" is after
// Defragment()'s live moves complete.
func expTenancyPool(scale Scale) *Table {
	boards := 6
	if scale == Full {
		boards = 8
	}
	s, rm, _, ctx := tenancyPool(19, boards, TelemetryEnabled())
	defer rm.Stop()

	mix := tenancyMix()
	instances, wantALMs := 0, 0
	claims := map[string][]*haas.SlotClaim{}
	ready := 0
	for _, spec := range mix {
		cs, err := rm.LeaseSlots(haas.SlotRequest{
			Tenant: spec.name, Image: spec.name + "-v1", ALMs: spec.alms, Count: spec.count,
			DistinctNodes: true,
			OnReady:       func(*haas.SlotClaim) { ready++ },
		})
		sim.Must(err)
		claims[spec.name] = cs
		instances += spec.count
		wantALMs += spec.alms * spec.count
	}
	// An oversized request must be rejected, not mis-packed.
	_, rejErr := rm.LeaseSlots(haas.SlotRequest{Tenant: "oversize", ALMs: 60000, Count: 1})
	s.RunFor(15 * sim.Millisecond) // partial reconfigurations complete

	packedBoards := rm.SlotBoardsInUse()
	usedSlots, totalSlots, usedALMs, _ := rm.SlotPoolStats()
	regionALMs := shell.RoleRegionALMs()
	util := func(b int) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(usedALMs)/float64(b*regionALMs))
	}

	t := &Table{
		Title: fmt.Sprintf("E19a — vFPGA pool packing (%d boards x %v-ALM slots; dedicated baseline = one board per role)",
			boards, tenancyFloorplan().ALMs),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("tenant instances placed", fmt.Sprintf("%d (%d ALMs)", instances, wantALMs))
	t.AddRow("slots claimed / total", fmt.Sprintf("%d / %d", usedSlots, totalSlots))
	t.AddRow("claims serving after reconfig", ready)
	t.AddRow("boards in use: pool vs dedicated", fmt.Sprintf("%d vs %d", packedBoards, instances))
	t.AddRow("role-region utilization: pool vs dedicated", fmt.Sprintf("%s vs %.1f%%",
		util(packedBoards), 100*float64(wantALMs)/float64(instances*regionALMs)))
	t.AddRow("oversized request rejected", rejErr != nil)
	t.AddRow("grant->serving p50", sim.Time(rm.Slot.ReconfigWait.Percentile(50)).String())

	// Churn: the short-lived tenants leave; fragmentation strands the
	// survivors across boards.
	for _, name := range []string{"crypto", "compress"} {
		for _, c := range claims[name] {
			rm.ReleaseSlot(c)
		}
	}
	rm.ReleaseSlot(claims["ranking"][1])
	rm.ReleaseSlot(claims["dnn"][1])
	fragBoards := rm.SlotBoardsInUse()
	_, _, fragALMs, _ := rm.SlotPoolStats()
	t.AddRow("after churn (defrag off): boards in use", fmt.Sprintf("%d (%d ALMs stranded)", fragBoards, fragALMs))

	moves := rm.Defragment()
	s.RunFor(15 * sim.Millisecond) // live moves reprogram destinations
	usedSlots, _, usedALMs, _ = rm.SlotPoolStats()
	t.AddRow("defrag on: live moves / boards in use", fmt.Sprintf("%d / %d", moves, rm.SlotBoardsInUse()))
	t.AddRow("defrag on: role-region utilization", util(rm.SlotBoardsInUse()))
	t.AddRow("defrag moves never co-locate a tenant", rm.SlotBoardsInUse() >= len(claims["kvcache"]))
	if ctx != nil {
		addTelemetry("tenancy", obs.Collect(ctx, "tenancy", fmt.Sprintf("pool boards=%d", boards)))
	}
	return t
}

// tenancyNeighborResult is one E19b row.
type tenancyNeighborResult struct {
	P50, P99      sim.Time
	Replies       uint64
	ElephantSent  uint64
	Throttled     uint64
	ElephantBytes uint64
}

// runTenancyNeighbor measures a latency-sensitive tenant's datagram RTT
// from a same-TOR client. elephant co-locates a bandwidth tenant in the
// board's second slot, blasting 1KB datagrams at ~33 Gbps offered toward
// a third host; shapeBps > 0 caps the elephant's slot egress with the
// token bucket. pings is the sample count.
func runTenancyNeighbor(seed int64, pings int, elephant bool, shapeBps int64, telemetry bool) tenancyNeighborResult {
	s := sim.New(seed)
	var ctx *obs.Context
	if telemetry {
		ctx = obs.Enable(s)
	}
	shells := map[int]*shell.Shell{}
	topo := netsim.DefaultConfig()
	topo.HostsPerTOR = 8
	topo.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		shCfg := shell.DefaultConfig()
		shCfg.Slots = shell.DefaultSlotConfig(2)
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shCfg)
		shells[hostID] = sh
		return sh
	}
	dc := netsim.NewDatacenter(s, topo)
	for i := 0; i < 3; i++ {
		dc.Host(i) // victim board, client, elephant sink — one TOR
	}
	victim, client := shells[0], shells[1]

	// Victim tenant: slot 0, echoing pings back through its slot's
	// shaped egress path.
	_, err := victim.ReconfigureSlot(0, "victim", tenantStub{"victim"}, 17500, nil)
	sim.Must(err)
	sim.Must(victim.SetServiceHandlerSlot(0, []uint8{kindTenantPing}, func(from int, _ uint8, p []byte) {
		_ = victim.SendDatagramSlot(0, from, kindTenantPong, p)
	}))

	// Elephant tenant: slot 1, bursts of 128 KB-sized datagrams every
	// 32 us (~33 Gbps offered; each burst serializes ~27 us of queue on
	// the board's shared 40G link).
	var elephantSent uint64
	if elephant {
		_, err := victim.ReconfigureSlot(1, "elephant", tenantStub{"elephant"}, 8000, nil)
		sim.Must(err)
		if shapeBps > 0 {
			sim.Must(victim.SetSlotEgressRate(1, shapeBps, 16<<10))
		}
	}

	const warmup = 12 * sim.Millisecond // slot reconfigs finish at ~10.7 ms
	const pingGap = 15 * sim.Microsecond
	stop := warmup + sim.Time(pings)*pingGap + 2*sim.Millisecond
	if elephant {
		blastPayload := make([]byte, 1024)
		var blast func()
		blast = func() {
			if s.Now() >= stop {
				return
			}
			for i := 0; i < 128; i++ {
				if victim.SendDatagramSlot(1, 2, kindTenantBlast, blastPayload) == nil {
					elephantSent++
				}
			}
			s.Schedule(32*sim.Microsecond, blast)
		}
		s.Schedule(warmup, blast)
	}

	// Open-loop client: fixed cadence, RTT measured per sequence number.
	h := metrics.NewHistogram()
	var replies uint64
	sentAt := map[uint64]sim.Time{}
	sim.Must(client.SetServiceHandler(func(_ int, kind uint8, p []byte) {
		if kind != kindTenantPong || len(p) < 8 {
			return
		}
		seq := binary.BigEndian.Uint64(p)
		if t0, ok := sentAt[seq]; ok {
			delete(sentAt, seq)
			h.Observe(int64(s.Now() - t0))
			replies++
		}
	}))
	payload := make([]byte, 64)
	var seq uint64
	var ping func()
	ping = func() {
		if int(seq) >= pings {
			return
		}
		binary.BigEndian.PutUint64(payload, seq)
		sentAt[seq] = s.Now()
		sim.Must(client.SendDatagram(0, kindTenantPing, payload))
		seq++
		s.Schedule(pingGap, ping)
	}
	s.Schedule(warmup, ping)

	s.RunFor(stop)
	res := tenancyNeighborResult{
		P50:           sim.Time(h.Percentile(50)),
		P99:           sim.Time(h.Percentile(99)),
		Replies:       replies,
		ElephantSent:  elephantSent,
		Throttled:     victim.Tenant.EgressThrottled.Value(),
		ElephantBytes: victim.Tenant.EgressBytes.Value(),
	}
	if ctx != nil {
		label := "dedicated"
		if elephant {
			label = "co-located unshaped"
			if shapeBps > 0 {
				label = fmt.Sprintf("co-located shaped %dMbps", shapeBps/1e6)
			}
		}
		addTelemetry("tenancy", obs.Collect(ctx, "tenancy", "neighbor "+label))
	}
	return res
}

// expTenancyNeighbor is E19b: the noisy-neighbor p99 rows. The token
// bucket is the isolation mechanism under test — the shaped row must sit
// near the dedicated baseline, not the unshaped one.
func expTenancyNeighbor(scale Scale) *Table {
	pings := 400
	if scale == Full {
		pings = 1500
	}
	const shape = int64(2e9)
	t := &Table{
		Title: "E19b — Noisy neighbor on one board (victim RTT vs co-located elephant; token bucket = 2 Gbps)",
		Headers: []string{"board", "victim p50", "victim p99", "p99 x dedicated",
			"replies", "elephant dgrams", "throttled", "identical"},
	}
	dedicated := runTenancyNeighbor(19, pings, false, 0, TelemetryEnabled())
	check := runTenancyNeighbor(19, pings, false, 0, false)
	identical := dedicated.P50 == check.P50 && dedicated.P99 == check.P99 && dedicated.Replies == check.Replies
	rows := []struct {
		name string
		res  tenancyNeighborResult
		id   string
	}{
		{"dedicated", dedicated, fmt.Sprint(identical)},
		{"co-located, unshaped", runTenancyNeighbor(19, pings, true, 0, TelemetryEnabled()), "-"},
		{"co-located, shaped", runTenancyNeighbor(19, pings, true, shape, TelemetryEnabled()), "-"},
	}
	for _, r := range rows {
		t.AddRow(r.name, r.res.P50, r.res.P99,
			fmt.Sprintf("%.2f", float64(r.res.P99)/float64(dedicated.P99)),
			r.res.Replies, r.res.ElephantSent, r.res.Throttled, r.id)
	}
	return t
}

// TenancyScaleConfig drives one multi-tenant fabric-wide point: the
// E18c KV point with each pod's board split into two vFPGA slots — the
// KV shard in slot 0 and a shaped elephant tenant in slot 1.
type TenancyScaleConfig struct {
	FabricPoint
	KVLoad
	// Warmup delays traffic until the slots' partial reconfigurations
	// complete; Duration is total virtual run time including warmup.
	Warmup sim.Time
	// ElephantShapeBps caps each elephant slot's egress (0 = unshaped).
	ElephantShapeBps int64
}

// DefaultTenancyScaleConfig sizes the multi-tenant fabric-wide point.
func DefaultTenancyScaleConfig(pods int) TenancyScaleConfig {
	return TenancyScaleConfig{
		FabricPoint: FabricPoint{Seed: 19, Pods: pods, Duration: 24 * sim.Millisecond},
		KVLoad: KVLoad{
			ClientsPerPod:     2,
			RequestsPerClient: 100,
			Keys:              256,
			GetFraction:       0.8,
			MeanGap:           30 * sim.Microsecond,
			Timeout:           2 * sim.Millisecond,
		},
		Warmup:           12 * sim.Millisecond,
		ElephantShapeBps: 2e9,
	}
}

// TenancyScaleResult summarizes one multi-tenant fabric-wide run. The digest
// folds every client's completion stream, then each pod's elephant
// send and throttle totals.
type TenancyScaleResult struct {
	FabricRun
	Offered      uint64
	Completed    uint64
	Timeouts     uint64
	ElephantSent uint64
	Throttled    uint64
}

// RunTenancyScalePoint runs the multi-tenant KV workload: E18c's placement and clients, with every client
// held back until Warmup, and each shard board loading its two slots and
// starting its elephant as it is placed.
func RunTenancyScalePoint(cfg TenancyScaleConfig) TenancyScaleResult {
	shCfg := shell.DefaultConfig()
	shCfg.Slots = shell.DefaultSlotConfig(2)
	c, topo := cfg.build(netsim.DefaultConfig(), shCfg)

	// Each elephant bursts 8 KB-sized datagrams every 5 us (~13 Gbps
	// offered) at a same-pod sink host from warmup until the run ends.
	boards := make([]*shell.Shell, cfg.Pods)
	sent := make([]uint64, cfg.Pods)
	blastPayload := make([]byte, 1024)
	loadSlots := func(p int, n Node, st *kvcache.Store) {
		s := c.Sim
		sink := n.ID + 1
		c.Node(sink) // no handler: frames still load the wire
		_, err := n.Shell.ReconfigureSlot(0, "kvcache", tenantStub{"kvcache"}, 17500, nil)
		sim.Must(err)
		kvcache.AttachShardSlot(s, n.Shell, 0, st)
		_, err = n.Shell.ReconfigureSlot(1, "elephant", tenantStub{"elephant"}, 8000, nil)
		sim.Must(err)
		if cfg.ElephantShapeBps > 0 {
			sim.Must(n.Shell.SetSlotEgressRate(1, cfg.ElephantShapeBps, 16<<10))
		}
		boards[p] = n.Shell
		var blast func()
		blast = func() {
			if s.Now() >= cfg.Duration {
				return
			}
			for i := 0; i < 8; i++ {
				if n.Shell.SendDatagramSlot(1, sink, kindTenantBlast, blastPayload) == nil {
					sent[p]++
				}
			}
			s.Schedule(5*sim.Microsecond, blast)
		}
		s.Schedule(cfg.Warmup, blast)
	}
	clients := cfg.KVLoad.start(c, topo, 0, cfg.Warmup, loadSlots)

	var res TenancyScaleResult
	res.FabricRun = cfg.run(c, "tenancy", fmt.Sprintf("shardkv+elephant pods=%d", cfg.Pods), func(fold func(...uint64)) {
		res.Offered, res.Completed, _, res.Timeouts = foldClients(clients, fold)
		for p, sh := range boards {
			throttled := sh.Tenant.EgressThrottled.Value()
			res.ElephantSent += sent[p]
			res.Throttled += throttled
			fold(sent[p], throttled)
		}
	})
	return res
}

// expTenancyScale is E19c: the multi-tenant board in every pod, one run
// per pod count.
func expTenancyScale(scale Scale) *Table {
	t := &Table{
		Title: "E19c — Multi-tenant boards in every pod (KV slot + shaped elephant slot)",
		Headers: []string{"pods", "offered", "completed", "timeouts", "elephant dgrams",
			"throttled", "events", "seq wall"},
	}
	pods := []int{2}
	mk := func(p int) TenancyScaleConfig {
		cfg := DefaultTenancyScaleConfig(p)
		cfg.HostsPerTOR = 6
		cfg.TORsPerPod = 4
		cfg.RequestsPerClient = 40
		cfg.Duration = 18 * Millisecond
		return cfg
	}
	if scale == Full {
		pods = []int{2, 4, 8}
		mk = DefaultTenancyScaleConfig
	}
	for _, p := range pods {
		cfg := mk(p)
		cfg.observe()
		r := RunTenancyScalePoint(cfg)
		addTelemetry("tenancy", r.Record)
		t.AddRow(p, r.Offered, r.Completed, r.Timeouts, r.ElephantSent,
			r.Throttled, r.Events, r.wall())
	}
	return t
}

// ExpTenancy is experiment E19: vFPGA multi-tenancy.
func ExpTenancy(scale Scale) []*Table {
	return []*Table{
		expTenancyPool(scale),
		expTenancyNeighbor(scale),
		expTenancyScale(scale),
	}
}
