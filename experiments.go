package configcloud

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/bioinfo"
	"repro/internal/board"
	"repro/internal/compressor"
	"repro/internal/cryptoflow"
	"repro/internal/dnnpool"
	"repro/internal/haas"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/ranking"
	"repro/internal/reliability"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/svclb"
	"repro/internal/sweep"
)

// Table is the experiment output format.
type Table = metrics.Table

// experimentDef is one registry entry: the id accepted by RunExperiment
// and cmd/ccexperiment's -exp flag, a one-line description (rendered into
// the flag's usage text, so the help cannot drift from the registry), and
// the runner.
type experimentDef struct {
	id   string
	help string
	run  func(Scale) ([]*Table, error)
}

// experiments is the single source of truth for what ccexperiment can
// run. The "ext-" entries are extensions beyond the paper's figures: the
// other Fig. 1a workloads (bioinformatics, compression) and elastic pool
// management, all running on the same substrates.
var experiments = []experimentDef{
	{"fig5", "shell area and frequency breakdown (Stratix V D5)",
		func(Scale) ([]*Table, error) { return []*Table{shell.AreaTable()}, nil }},
	{"power", "card power under the power virus (Sec. II)",
		func(Scale) ([]*Table, error) { return []*Table{board.Table()}, nil }},
	{"reliability", "deployment reliability study (Sec. II-B)",
		func(scale Scale) ([]*Table, error) {
			reps := 500
			if scale == Full {
				reps = 5000
			}
			return []*Table{reliability.Table(2, reps)}, nil
		}},
	{"fig6", "single-box ranking latency vs throughput",
		func(scale Scale) ([]*Table, error) { return []*Table{ExpFig6(scale)}, nil }},
	{"fig7", "five-day two-datacenter production time series",
		func(scale Scale) ([]*Table, error) {
			t7, _ := ExpFig7Fig8(scale)
			return []*Table{t7}, nil
		}},
	{"fig8", "query p99.9 latency vs offered load",
		func(scale Scale) ([]*Table, error) {
			_, t8 := ExpFig7Fig8(scale)
			return []*Table{t8}, nil
		}},
	{"crypto", "transparent per-flow encryption (Sec. IV)",
		func(Scale) ([]*Table, error) {
			return []*Table{cryptoflow.DefaultCostModel().CostTable(), ExpCryptoFunctional()}, nil
		}},
	{"fig10", "LTL round-trip latency CDFs by tier",
		func(scale Scale) ([]*Table, error) {
			cfg := DefaultFig10Config()
			if scale == Quick {
				cfg.PingsPer = 150
			}
			return []*Table{Fig10(cfg).Table()}, nil
		}},
	{"fig11", "ranking: software vs local vs remote FPGA",
		func(scale Scale) ([]*Table, error) { return []*Table{ExpFig11(scale)}, nil }},
	{"fig12", "DNN pool latency vs oversubscription",
		func(scale Scale) ([]*Table, error) { return []*Table{ExpFig12(scale)}, nil }},
	{"haas", "HaaS lease lifecycle and self-repair (Fig. 13)",
		func(Scale) ([]*Table, error) { return []*Table{ExpHaaS()}, nil }},
	{"ltlloss", "LTL reliability under injected frame loss (Sec. V-A)",
		func(scale Scale) ([]*Table, error) { return []*Table{ExpLTLLoss(scale)}, nil }},
	{"faults", "LTL workload under fault-injection profiles",
		func(scale Scale) ([]*Table, error) { return ExpFaults(scale), nil }},
	{"svclb", "SM as an informed load balancer (Sec. V-F ext)",
		func(scale Scale) ([]*Table, error) { return []*Table{ExpSvcLB(scale)}, nil }},
	{"scale", "E16: sharded-kernel scaling, sequential vs parallel",
		func(scale Scale) ([]*Table, error) { return []*Table{ExpScale(scale), ExpScaleCurve(scale)}, nil }},
	{"serve", "E17: live HTTP frontend + open-loop load generator",
		func(scale Scale) ([]*Table, error) { return []*Table{ExpServe(scale)}, nil }},
	{"netsvc", "E18: on-fabric network services — line-rate KV cache + RPC NIC offload",
		func(scale Scale) ([]*Table, error) { return ExpNetsvc(scale), nil }},
	{"tenancy", "E19: vFPGA multi-tenancy — slot packing, noisy-neighbor isolation, live defrag",
		func(scale Scale) ([]*Table, error) { return ExpTenancy(scale), nil }},
	{"ext-bioinfo", "Smith-Waterman on the acceleration plane (Fig. 1a)",
		func(Scale) ([]*Table, error) { return []*Table{ExpBioinfo()}, nil }},
	{"ext-compression", "compression offload cost model (Fig. 1a)",
		func(Scale) ([]*Table, error) { return []*Table{compressor.DefaultCostModel().Table(40)}, nil }},
}

// ExperimentIDs is the registry's id list, in registry (and output)
// order; accepted by RunExperiment and cmd/ccexperiment.
var ExperimentIDs = func() []string {
	ids := make([]string, len(experiments))
	for i, d := range experiments {
		ids[i] = d.id
	}
	return ids
}()

// ExperimentUsage renders the registry as flag-usage text: one "id —
// description" line per experiment. cmd/ccexperiment builds its -exp
// help from this, so the flag's documentation is generated, not
// hand-maintained.
func ExperimentUsage() string {
	var b strings.Builder
	b.WriteString("experiment id or 'all':\n")
	for _, d := range experiments {
		fmt.Fprintf(&b, "  %-16s %s\n", d.id, d.help)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Telemetry collection: when enabled (cmd/ccexperiment -telemetry),
// experiments that support it run their sweep points with observability
// on and deposit the per-point records here; the caller drains them
// after the sweep. The table output is unaffected — tracing rides the
// same simulations that produce the published numbers.
var (
	telemetryMu      sync.Mutex
	telemetryEnabled bool
	telemetryRecords map[string][]*obs.Record
)

// SetTelemetry turns per-sweep-point telemetry collection on or off and
// clears any previously collected records.
func SetTelemetry(on bool) {
	telemetryMu.Lock()
	defer telemetryMu.Unlock()
	telemetryEnabled = on
	telemetryRecords = map[string][]*obs.Record{}
}

// TelemetryEnabled reports whether telemetry collection is on.
func TelemetryEnabled() bool {
	telemetryMu.Lock()
	defer telemetryMu.Unlock()
	return telemetryEnabled
}

// addTelemetry appends records collected by experiment id. Nil records
// (points run without observability) are skipped.
func addTelemetry(id string, recs ...*obs.Record) {
	telemetryMu.Lock()
	defer telemetryMu.Unlock()
	if !telemetryEnabled {
		return
	}
	for _, r := range recs {
		if r != nil {
			telemetryRecords[id] = append(telemetryRecords[id], r)
		}
	}
}

// DrainTelemetry returns and clears every collected record, ordered by
// experiment id and then collection order (deterministic for a fixed
// experiment list, since sweep points are collected in sweep order).
func DrainTelemetry() []*obs.Record {
	telemetryMu.Lock()
	defer telemetryMu.Unlock()
	ids := make([]string, 0, len(telemetryRecords))
	for id := range telemetryRecords {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []*obs.Record
	for _, id := range ids {
		out = append(out, telemetryRecords[id]...)
	}
	telemetryRecords = map[string][]*obs.Record{}
	return out
}

// Scale selects experiment sizing: tests use Quick, the benchmark harness
// and cmd/ccexperiment use Full.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// RunExperiment regenerates one paper artifact as text tables.
func RunExperiment(id string, scale Scale) ([]*Table, error) {
	for _, d := range experiments {
		if d.id == id {
			return d.run(scale)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (have %v)", id, ExperimentIDs)
}

// rankingSweepConfig sizes the Fig. 6/11 sweeps.
func rankingSweepConfig(scale Scale) ranking.SweepConfig {
	cfg := ranking.DefaultSweepConfig()
	if scale == Quick {
		cfg.QueriesPer = 5000
		cfg.PoolSize = 400
		cfg.Points = 8
	} else {
		cfg.QueriesPer = 50000
		cfg.Points = 12
	}
	return cfg
}

// ExpFig6 runs the single-box ranking sweep (software vs local FPGA) and
// renders the normalized curves plus the headline gain.
func ExpFig6(scale Scale) *Table {
	res := ranking.Fig6(rankingSweepConfig(scale))
	t := &Table{
		Title: "Fig. 6 — Ranking 99% latency vs throughput (single box, normalized)",
		Headers: []string{"mode", "throughput (x sw nominal)", "p99 latency (x target)",
			"cpu util", "fpga util"},
	}
	add := func(mode string, pts []ranking.SweepPoint) {
		for _, p := range pts {
			t.AddRow(mode,
				p.OfferedQPS/res.SwNominalQPS,
				float64(p.P99)/float64(res.TargetLatency),
				p.CPUUtil, p.FPGAUtil)
		}
	}
	add("software", res.Software)
	add("local-fpga", res.LocalFPGA)
	t.AddRow("=> throughput gain at target 99% latency", res.ThroughputGain, "-", "-", "-")
	return t
}

// ExpFig7Fig8 runs the compressed five-day two-datacenter comparison and
// renders Fig. 7 (time series) and Fig. 8 (load vs latency scatter).
func ExpFig7Fig8(scale Scale) (*Table, *Table) {
	cfg := ranking.DefaultProductionConfig()
	if scale == Quick {
		cfg.Servers = 3
		cfg.DayLength = 1 * sim.Second
		cfg.Days = 3
		cfg.PoolSize = 300
	}
	res := ranking.Production(cfg)

	t7 := &Table{
		Title: "Fig. 7 — Five-day production run (windowed; latency normalized to sw p99.9 target)",
		Headers: []string{"window", "day", "sw offered qps", "sw admitted", "sw p99.9 (x)",
			"sw shed", "fpga qps", "fpga p99.9 (x)"},
	}
	n := len(res.Software)
	if len(res.FPGA) < n {
		n = len(res.FPGA)
	}
	norm := func(v sim.Time) float64 { return float64(v) / float64(res.TargetLatency) }
	for i := 0; i < n; i++ {
		sw, fp := res.Software[i], res.FPGA[i]
		t7.AddRow(i, float64(sw.At)/float64(cfg.DayLength),
			sw.Offered, sw.Load, norm(sw.P999), sw.Shed, fp.Load, norm(fp.P999))
	}

	t8 := &Table{
		Title:   "Fig. 8 — Query 99.9% latency vs offered load (same windows as Fig. 7)",
		Headers: []string{"dc", "load (qps)", "p99.9 (x target)"},
	}
	for _, w := range res.Software {
		t8.AddRow("software", w.Load, norm(w.P999))
	}
	for _, w := range res.FPGA {
		t8.AddRow("fpga", w.Load, norm(w.P999))
	}
	return t7, t8
}

// ExpCryptoFunctional exercises the crypto tap end-to-end between two
// shells and reports functional counters (§IV's transparency claim).
func ExpCryptoFunctional() *Table {
	cloud := New(Options{Seed: 4})
	taps := map[int]*cryptoflow.Tap{}
	for _, id := range []int{0, 1} {
		n := cloud.Node(id)
		tap := cryptoflow.NewTap(cryptoflow.DefaultCostModel())
		n.Shell.AddTap(tap)
		taps[id] = tap
	}
	key := []byte("0123456789abcdef")
	flow := cryptoflow.FlowKey{
		Src: netsim.HostIP(0), Dst: netsim.HostIP(1), SrcPort: 7000, DstPort: 7000,
	}
	id, err := taps[0].AddFlow(flow, cryptoflow.AESCBC128SHA1, key)
	sim.Must(err)
	sim.Must(taps[1].AddFlowWithID(flow, cryptoflow.AESCBC128SHA1, key, id))

	h1 := cloud.Node(1).Host
	plain := 0
	h1.RegisterUDP(7000, func(f *pkt.Frame) {
		if string(f.Payload) == "secret payload" {
			plain++
		}
	})
	for i := 0; i < 200; i++ {
		cloud.Node(0).Host.SendUDP(h1.IP(), 7000, 7000, pkt.ClassBestEffort, []byte("secret payload"))
	}
	cloud.Run(50 * Millisecond)

	t := &Table{
		Title:   "Sec. IV — Transparent per-flow encryption, end to end",
		Headers: []string{"counter", "value"},
	}
	t.AddRow("packets sent (plaintext at sender)", 200)
	t.AddRow("packets encrypted at sender FPGA", taps[0].Stats.Encrypted.Value())
	t.AddRow("packets decrypted at receiver FPGA", taps[1].Stats.Decrypted.Value())
	t.AddRow("plaintext packets delivered to software", plain)
	t.AddRow("auth failures", taps[1].Stats.AuthFailures.Value())
	return t
}

// MeasureLTLRTTs collects n LTL message round trips across the given tier
// (0/1/2); the Fig. 11 remote-ranking sweep samples these, so the remote
// feature stage rides empirically measured LTL latencies.
func MeasureLTLRTTs(seed int64, tier, n int) []sim.Time {
	cloud := New(Options{Seed: seed})
	topo := cloud.DC.Config()
	var b int
	switch tier {
	case 0:
		b = 1
	case 1:
		b = topo.HostsPerTOR
	default:
		b = topo.HostsPerTOR * topo.TORsPerPod
	}
	na, nb := cloud.Node(0), cloud.Node(b)
	sim.Must(nb.Shell.Engine.OpenRecv(9, netsim.HostIP(0), nil))
	sim.Must(na.Shell.Engine.OpenSend(9, netsim.HostIP(b), netsim.HostMAC(b), 9, 0, nil))
	var out []sim.Time
	payload := make([]byte, 64)
	var ping func()
	ping = func() {
		if len(out) >= n {
			return
		}
		t0 := cloud.Sim.Now()
		sim.Must(na.Shell.Engine.SendMessage(9, payload, func() {
			out = append(out, cloud.Sim.Now()-t0)
			cloud.Sim.Schedule(20*Microsecond, ping)
		}))
	}
	cloud.Sim.Schedule(0, ping)
	cloud.Run(sim.Time(n+10) * 50 * Microsecond)
	return out
}

// ExpFig11 runs the software/local/remote ranking comparison with the
// remote path's RTT sampled from measured LTL round trips.
func ExpFig11(scale Scale) *Table {
	rtts := MeasureLTLRTTs(8, 1, 300)
	cfg := rankingSweepConfig(scale)
	cfg.RemoteRTT = func(rng *rand.Rand) sim.Time { return rtts[rng.Intn(len(rtts))] }
	res := ranking.Fig11(cfg)

	t := &Table{
		Title:   "Fig. 11 — Ranking latency: software vs local FPGA vs remote FPGA (normalized)",
		Headers: []string{"mode", "throughput (x sw nominal)", "p99.9 latency (x target)"},
	}
	add := func(mode string, pts []ranking.SweepPoint) {
		for _, p := range pts {
			t.AddRow(mode, p.OfferedQPS/res.SwNominalQPS,
				float64(p.P999)/float64(res.TargetLatency))
		}
	}
	add("software", res.Software)
	add("local-fpga", res.LocalFPGA)
	add("remote-fpga", res.RemoteFPGA)
	t.AddRow("=> remote overhead at nominal load",
		fmt.Sprintf("%.1f%%", res.RemoteOverheadAtNominal*100), "-")
	return t
}

// ExpFig12 sweeps DNN-pool oversubscription and renders latencies
// normalized to the locally-attached baseline.
func ExpFig12(scale Scale) *Table {
	cfg := dnnpool.DefaultConfig()
	cfg.LB = defaultLB // -lb swaps static SM assignment for routed dispatch
	var counts []int
	if scale == Quick {
		cfg.Clients = 12
		cfg.Duration = 200 * Millisecond
		cfg.Warmup = 40 * Millisecond
		counts = []int{12, 6, 4, 2}
	} else {
		cfg.Clients = 24
		counts = []int{24, 12, 8, 6, 4, 2, 1}
	}
	base, points := dnnpool.Fig12(cfg, counts)
	t := &Table{
		Title: fmt.Sprintf("Fig. 12 — DNN pool latency vs oversubscription (knee at %.1f clients/FPGA; normalized to local)",
			cfg.KneeClientsPerFPGA()),
		Headers: []string{"clients/FPGA", "avg (x local)", "p95 (x local)", "p99 (x local)", "requests"},
	}
	for _, p := range points {
		t.AddRow(p.Ratio,
			float64(p.Avg)/float64(base.Avg),
			float64(p.P95)/float64(base.P95),
			float64(p.P99)/float64(base.P99),
			p.Completed)
	}
	return t
}

// ExpSvcLB sweeps client:FPGA oversubscription under each service-level
// routing policy (the Sec. V-F extension: the SM as an informed load
// balancer rather than a static pointer server). A point is "sustained"
// when windowed p99 holds the bound with goodput intact; the headline is
// the extra oversubscription the informed policy + admission control buy
// over naive random dispatch. With -lb set, only that policy (with and
// without admission) is compared against the random baseline.
func ExpSvcLB(scale Scale) *Table {
	sc := svclb.DefaultSweepConfig()
	if scale == Quick {
		sc.Base.Warmup = 30 * Millisecond
		sc.Base.Duration = 200 * Millisecond
		sc.ClientCounts = []int{24, 32, 40}
	}
	variants := svclb.DefaultVariants()
	if defaultLB != "" {
		variants = []svclb.Variant{
			{Policy: svclb.PolicyRandom, Admission: false},
			{Policy: defaultLB, Admission: false},
			{Policy: defaultLB, Admission: true},
		}
	}
	if TelemetryEnabled() {
		// Trace the published points themselves: observability does not
		// schedule events, so the traced runs produce identical numbers.
		sc.Base.Telemetry = true
	}
	results := svclb.ComparePolicies(sc, variants)
	if TelemetryEnabled() {
		for _, sr := range results {
			for _, p := range sr.Points {
				addTelemetry("svclb", p.Telemetry)
			}
		}
		// One extra hedged point (E15): request hedging is off in the
		// published sweep, so trace a run where the hedge path — copy,
		// win, cancel — actually fires. Hedge wins need divergent queues,
		// which naive random dispatch produces and p2c suppresses; they
		// are rare, so the capture limit is raised to span the whole run.
		// Not added to the table.
		hc := sc.Base
		hc.Clients = sc.ClientCounts[len(sc.ClientCounts)-1]
		hc.Policy = svclb.PolicyRandom
		hc.Admission = false
		hc.HedgeDelay = 2 * hc.ServiceTime
		hc.Duration = 150 * Millisecond
		hc.SpanLimit = 200_000
		hr := svclb.Run(hc)
		addTelemetry("svclb", hr.Telemetry)
	}

	t := &Table{
		Title: fmt.Sprintf("Sec. V-F extension — SM load balancing (%d-FPGA pool; sustain = p99 <= %v, goodput >= %.0f%%)",
			sc.Base.FPGAs, sc.P99Bound, sc.MinGoodput*100),
		Headers: []string{"policy", "clients/FPGA", "p99", "admit rate", "goodput", "hedged", "sustained"},
	}
	for _, sr := range results {
		for _, p := range sr.Points {
			t.AddRow(sr.Label, svclb.RatioLabel(p), p.P99.String(),
				fmt.Sprintf("%.3f", p.AdmitRate), fmt.Sprintf("%.3f", p.Goodput),
				p.Hedged, sc.Sustained(p))
		}
		t.AddRow(fmt.Sprintf("=> %s max sustained ratio", sr.Label),
			fmt.Sprintf("%.1f", sr.MaxSustainedRatio), "-", "-", "-", "-", "-")
	}
	return t
}

// ExpBioinfo runs the Fig. 1a bioinformatics workload: Smith-Waterman
// alignment of mutated reads against a reference on local and remote
// FPGAs, verifying identical results and reporting the latency split.
func ExpBioinfo() *Table {
	cloud := New(Options{Seed: 13})
	local, remote := cloud.Node(0), cloud.Node(100)
	cost := bioinfo.DefaultCostModel()
	sc := bioinfo.DefaultScoring()
	local.Shell.LoadRole(bioinfo.NewRole(cloud.Sim, cost, sc))
	remoteRole := bioinfo.NewRole(cloud.Sim, cost, sc)
	remote.Shell.LoadRole(remoteRole)

	rng := rand.New(rand.NewSource(13))
	ref := bioinfo.RandomSequence(rng, 2000)
	read := bioinfo.Mutate(rng, ref[600:728], 0.04)
	direct := bioinfo.Align(read, ref, sc)

	var localT, remoteT sim.Time
	var localAl, remoteAl bioinfo.Alignment
	req := bioinfo.EncodeRequest(read, ref)
	t0 := cloud.Sim.Now()
	sim.Must(local.Shell.PCIeCall(req, func(resp []byte) {
		localAl, _ = bioinfo.DecodeResponse(resp)
		localT = cloud.Sim.Now() - t0
	}))
	cloud.Run(Millisecond)

	sim.Must(remote.Shell.OpenRemoteRecv(3, 0, func(p []byte) {
		remoteRole.HandleRequest(shell.FromLTL, p, func(resp []byte) {
			remote.Shell.SendRemote(4, resp, nil)
		})
	}))
	sim.Must(remote.Shell.OpenRemoteSend(4, 0, 4, nil))
	t1 := cloud.Sim.Now()
	sim.Must(local.Shell.OpenRemoteRecv(4, 100, func(resp []byte) {
		remoteAl, _ = bioinfo.DecodeResponse(resp)
		remoteT = cloud.Sim.Now() - t1
	}))
	sim.Must(local.Shell.OpenRemoteSend(3, 100, 3, nil))
	local.Shell.SendRemote(3, req, nil)
	cloud.Run(Millisecond)

	t := &Table{
		Title:   "Extension — Smith-Waterman on the acceleration plane (Fig. 1a workload)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("problem", fmt.Sprintf("%dbp read vs %dbp reference", len(read), len(ref)))
	t.AddRow("software score / ref-end", fmt.Sprintf("%d / %d", direct.Score, direct.RefEnd))
	t.AddRow("local FPGA score (must match)", localAl.Score)
	t.AddRow("remote FPGA score (must match)", remoteAl.Score)
	t.AddRow("systolic speedup vs software", cost.Speedup(len(read), len(ref)))
	t.AddRow("local PCIe round trip", localT.String())
	t.AddRow("remote LTL round trip", remoteT.String())
	return t
}

// ExpHaaS demonstrates the Fig. 13 lease lifecycle: two services share
// the pool, a node dies, the SM repairs itself.
func ExpHaaS() *Table {
	s := sim.New(5)
	healthy := map[haas.NodeID]*bool{}
	rm := haas.NewResourceManager(s, haas.RMConfig{
		PodOf: func(id haas.NodeID) int { return int(id) / 8 },
	})
	const nodes = 16
	for i := 0; i < nodes; i++ {
		ok := true
		id := haas.NodeID(i)
		healthy[id] = &ok
		rm.Register(&haas.FPGAManager{
			Node:      id,
			Configure: func(string) {},
			Healthy:   func() bool { return *healthy[id] },
		})
	}
	smA := haas.NewServiceManager(s, rm, "ranking", "rank-v2")
	smB := haas.NewServiceManager(s, rm, "dnn", "dnn-v1")
	sim.Must(smA.Scale(6, haas.Constraints{Pod: -1}))
	sim.Must(smB.Scale(4, haas.Constraints{Pod: -1}))
	freeBefore := rm.FreeCount()

	victim := smA.Members()[2]
	*healthy[victim] = false
	s.RunFor(2 * sim.Second)

	t := &Table{
		Title:   "Fig. 13 / Sec. V-F — HaaS lease lifecycle",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("pool size", nodes)
	t.AddRow("service A (ranking) FPGAs", len(smA.Members()))
	t.AddRow("service B (dnn) FPGAs", len(smB.Members()))
	t.AddRow("unallocated before failure", freeBefore)
	t.AddRow("failures detected", rm.Failures.Value())
	t.AddRow("replacements issued", rm.Replaced.Value())
	t.AddRow("service A repaired", smA.Repaired.Value())
	t.AddRow("unallocated after repair", rm.FreeCount())
	rm.Stop()
	return t
}

// echoRole is the trivial role used by fault experiments: it answers
// every request with its payload, and exists so SEU-induced wedges have a
// running role to hang.
type echoRole struct{}

func (echoRole) Name() string { return "echo" }
func (echoRole) HandleRequest(_ shell.RequestSource, p []byte, respond func([]byte)) {
	respond(p)
}

// ExpFaults runs an LTL messaging workload across several same-TOR pairs
// under faultinject profiles and reports delivery outcomes next to the
// injector's fault tally and recovery-latency histograms. With -faults
// set, only that profile runs; otherwise every named profile runs (each
// an independent cloud, fanned across cores). The scrub interval is
// shortened so role-wedge recovery is observable within the run.
func ExpFaults(scale Scale) []*Table {
	profiles := []string{defaultFaultProfile}
	if defaultFaultProfile == "" {
		profiles = FaultProfileNames()
	}
	perProfile := sweep.Over(profiles, func(_ int, prof string) []*Table {
		return runFaultWorkload(prof, scale)
	})
	var out []*Table
	for _, tabs := range perProfile {
		out = append(out, tabs...)
	}
	return out
}

func runFaultWorkload(prof string, scale Scale) []*Table {
	msgs := 200
	runFor := 60 * Millisecond
	if scale == Full {
		msgs = 1500
		runFor = 400 * Millisecond
	}

	shCfg := shell.DefaultConfig()
	shCfg.ScrubInterval = 10 * Millisecond // wedge repairs land inside the window
	shCfg.FullReconfigTime = 2 * Millisecond
	cloud := New(Options{Seed: 42, Shell: shCfg, FaultProfile: prof})

	const pairs = 4
	gap := runFor * 8 / 10 / sim.Time(msgs) // sends span ~80% of the window
	h := metrics.NewHistogram()
	delivered, connFailed := 0, 0
	attempted := make([]int, pairs)
	for p := 0; p < pairs; p++ {
		p := p
		a, b := cloud.Node(2*p), cloud.Node(2*p+1)
		a.Shell.LoadRole(echoRole{})
		b.Shell.LoadRole(echoRole{})
		conn := uint16(10 + p)
		sim.Must(b.Shell.Engine.OpenRecv(conn, netsim.HostIP(a.ID), nil))
		sim.Must(a.Shell.Engine.OpenSend(conn, netsim.HostIP(b.ID), netsim.HostMAC(b.ID), conn, 0,
			func() { connFailed++ }))
		payload := make([]byte, 256)
		var send func(i int)
		send = func(i int) {
			if i >= msgs {
				return
			}
			t0 := cloud.Sim.Now()
			if err := a.Shell.Engine.SendMessage(conn, payload, func() {
				h.Observe(int64(cloud.Sim.Now() - t0))
				delivered++
			}); err != nil {
				return // connection declared failed; stop this pair
			}
			attempted[p]++
			cloud.Sim.Schedule(gap, func() { send(i + 1) })
		}
		cloud.Sim.Schedule(0, func() { send(0) })
	}
	cloud.Run(runFor)

	total := 0
	for _, n := range attempted {
		total += n
	}
	t := &Table{
		Title:   fmt.Sprintf("Fault injection — LTL workload under the %q profile (%d same-TOR pairs)", prof, pairs),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("messages attempted", total)
	t.AddRow("messages completed", delivered)
	t.AddRow("connections declared failed", connFailed)
	t.AddRow("completion RTT mean", sim.Time(int64(h.Mean())).String())
	t.AddRow("completion RTT p99", sim.Time(h.Percentile(99)).String())
	return []*Table{t, cloud.Faults.Stats.Table()}
}

// ExpLTLLoss measures LTL reliability machinery under injected frame loss
// (§V-A: ACK/NACK retransmission, 50 µs timeout, fast failure
// detection). Each loss rate is an independent cloud, so the rates run
// in parallel; rows stay in loss-rate order.
func ExpLTLLoss(scale Scale) *Table {
	msgs := 400
	if scale == Full {
		msgs = 4000
	}
	t := &Table{
		Title: "Sec. V-A — LTL under injected frame loss (same-TOR pair)",
		Headers: []string{"loss rate", "delivered", "avg RTT", "p99 RTT",
			"timeouts", "nack rtx", "conn failed"},
	}
	rows := sweep.Over([]float64{0, 0.001, 0.01, 0.05, 1.0}, func(_ int, loss float64) []any {
		cloud := New(Options{Seed: 21})
		a, b := cloud.Node(0), cloud.Node(1)
		a.Shell.SetEgressLossRate(loss)
		failed := false
		sim.Must(b.Shell.Engine.OpenRecv(2, netsim.HostIP(0), nil))
		sim.Must(a.Shell.Engine.OpenSend(2, netsim.HostIP(1), netsim.HostMAC(1), 2, 0,
			func() { failed = true }))
		h := metrics.NewHistogram()
		delivered := 0
		payload := make([]byte, 512)
		n := msgs
		if loss == 1.0 {
			n = 4
		}
		var send func(i int)
		send = func(i int) {
			if i >= n {
				return
			}
			t0 := cloud.Sim.Now()
			err := a.Shell.Engine.SendMessage(2, payload, func() {
				h.Observe(int64(cloud.Sim.Now() - t0))
				delivered++
			})
			if err != nil {
				return
			}
			cloud.Sim.Schedule(30*Microsecond, func() { send(i + 1) })
		}
		cloud.Sim.Schedule(0, func() { send(0) })
		cloud.Run(sim.Time(n)*60*Microsecond + 10*Millisecond)

		eng := a.Shell.Engine
		return []any{fmt.Sprintf("%.1f%%", loss*100),
			fmt.Sprintf("%d/%d", delivered, n),
			sim.Time(int64(h.Mean())).String(),
			sim.Time(h.Percentile(99)).String(),
			eng.Stats.Timeouts.Value(),
			eng.Stats.NacksRecv.Value(),
			failed}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t
}
