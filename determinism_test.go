package configcloud

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/frontend"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/ranking"
	"repro/internal/svclb"
	"repro/internal/sweep"
)

// Every experiment is a pure function of its seed: rendering the same
// experiment twice must produce byte-identical tables. This is the
// regression harness that keeps EXPERIMENTS.md's recorded numbers honest.
func TestExperimentDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	// "tenancy" and "scale" print wall-clock columns and are covered by
	// their own digest-based tests (TestTenancyScaleDeterminism,
	// TestScaleDeterminism) plus TestTenancyTableDeterminism for
	// the wall-free E19 tables.
	for _, id := range []string{"fig5", "power", "reliability", "crypto", "haas", "faults", "ext-bioinfo", "ext-compression"} {
		render := func() string {
			tabs, err := RunExperiment(id, Quick)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			out := ""
			for _, tab := range tabs {
				out += tab.String()
			}
			return out
		}
		if a, b := render(), render(); a != b {
			t.Errorf("experiment %s is non-deterministic", id)
		}
	}
}

// Fault injection replays bit-identically: the same seed and fault
// profile must yield the same executed-event trace, the same fault tally,
// and the same transport metrics, run after run. This is what makes a
// fault scenario debuggable — a failure seen once can be re-run under a
// tracer.
func TestFaultProfileReplayDeterminism(t *testing.T) {
	for _, profile := range FaultProfileNames() {
		render := func() string {
			cloud := New(Options{Seed: 23, FaultProfile: profile})
			cloud.Sim.EnableTrace(2048)
			a, b := cloud.Node(0), cloud.Node(1)
			if err := b.Shell.Engine.OpenRecv(5, netsim.HostIP(0), nil); err != nil {
				t.Fatal(err)
			}
			if err := a.Shell.Engine.OpenSend(5, netsim.HostIP(1), netsim.HostMAC(1), 5, 0, nil); err != nil {
				t.Fatal(err)
			}
			completed := 0
			payload := make([]byte, 256)
			var send func(i int)
			send = func(i int) {
				if i >= 100 {
					return
				}
				// Sends may fail mid-run (the profile can kill a node);
				// the error itself must also replay identically.
				err := a.Shell.Engine.SendMessage(5, payload, func() { completed++ })
				cloud.Sim.Schedule(20*Microsecond, func() { send(i + 1) })
				_ = err
			}
			cloud.Sim.Schedule(0, func() { send(0) })
			cloud.Run(10 * Millisecond)

			eng := a.Shell.Engine
			return fmt.Sprintf("completed=%d retx=%d timeouts=%d nacks=%d\n%s%s",
				completed,
				eng.Stats.Retransmits.Value(),
				eng.Stats.Timeouts.Value(),
				eng.Stats.NacksRecv.Value(),
				cloud.Faults.Stats.Table().String(),
				cloud.Sim.TraceString())
		}
		if a, b := render(), render(); a != b {
			t.Errorf("profile %q does not replay deterministically", profile)
		}
	}
}

// Service-level load balancing replays bit-identically: for every policy,
// the same seed yields the same routing-decision digest (RouteHash) and
// the same percentile outputs, hedging and cancellation included.
func TestSvcLBRoutingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the balancer twice per policy")
	}
	cfg := svclb.DefaultConfig()
	cfg.Clients = 8
	cfg.Warmup = 20 * Millisecond
	cfg.Duration = 100 * Millisecond
	cfg.Drain = 50 * Millisecond
	cfg.HedgeDelay = 2 * cfg.ServiceTime // exercise hedge + cancel paths too
	for _, policy := range svclb.PolicyNames() {
		cfg.Policy = policy
		a, b := svclb.Run(cfg), svclb.Run(cfg)
		if a.RouteHash != b.RouteHash {
			t.Errorf("%s: routing decisions diverged: %x vs %x", policy, a.RouteHash, b.RouteHash)
		}
		if a != b {
			t.Errorf("%s: results diverged:\n%+v\n%+v", policy, a, b)
		}
	}
}

// The parallel sweep runner must be a pure performance change: fanning
// sweep points across workers has to produce byte-identical output to
// running them one by one on the calling goroutine. This guards the two
// rules sweep.Map relies on — per-point seeds drawn before the fan-out,
// and no shared mutable state (e.g. a common RNG) between points.
func TestParallelSweepMatchesSequential(t *testing.T) {
	if sweep.SequentialEnabled() {
		t.Fatal("sequential mode unexpectedly on at test entry")
	}
	render := func() string {
		// A ranking sweep (per-point Sampler + pre-drawn seeds) and an
		// svclb policy sweep (self-contained points) cover both
		// fan-out styles.
		rcfg := ranking.DefaultSweepConfig()
		rcfg.QueriesPer = 2000
		rcfg.PoolSize = 200
		rcfg.Points = 4
		curve := ranking.Sweep(rcfg, ranking.LocalFPGA)

		scfg := svclb.DefaultSweepConfig()
		scfg.Base.Warmup = 10 * Millisecond
		scfg.Base.Duration = 60 * Millisecond
		scfg.ClientCounts = []int{16, 32}
		sr := svclb.Sweep(scfg, svclb.PolicyP2C, true)

		return fmt.Sprintf("%+v\n%+v", curve, sr)
	}
	par := render()
	sweep.SetSequential(true)
	defer sweep.SetSequential(false)
	seq := render()
	if par != seq {
		t.Errorf("parallel sweep output diverges from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", par, seq)
	}
}

// The scale point's headline guarantee: a run across every pod of the
// fabric is a pure function of its seed. Two same-seed runs agree bit
// for bit — same behaviour digest (per-pair ping counts and RTTs) and
// byte-identical telemetry JSONL. The fired-event count is run cost and
// stays out of the digest.
//
// Comparing runs within one build cannot catch a drift both runs share,
// so the results are also pinned to literals: the digest, and the
// SHA-256 of the telemetry JSONL. A change to either is a behaviour
// change and must be deliberate.
const (
	pinScaleDigest      = "d380bcf5f6864825"
	pinScaleTelemetry   = "3dca0cea11c24e2c60956f79bef56f0a6a5db03a385954af4b9344f74e79e2a2"
	pinNetsvcDigest     = "0c3b5c33dae2aa14"
	pinNetsvcTelemetry  = "4487174d863739e9b4a8f91ffb9722ddef4be684b0670964f10ae4f6b59dd1d5"
	pinNetsvcMGet4      = "aa388d46ba25a786"
	pinTenancyDigest    = "e7e83a475fa81ddc"
	pinTenancyTelemetry = "cfd354c8b32d9d0ba6934691a66b291fdd3fb12a0a2cb7b84091b5081acf3d10"
)

// checkPinned compares a run's digest and (when tel is non-empty) the
// SHA-256 of its telemetry JSONL against pinned hex literals.
func checkPinned(t *testing.T, label string, digest uint64, tel, wantDigest, wantTel string) {
	t.Helper()
	if got := fmt.Sprintf("%016x", digest); got != wantDigest {
		t.Errorf("%s: digest %s, pinned %s", label, got, wantDigest)
	}
	if tel == "" {
		return
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tel))); got != wantTel {
		t.Errorf("%s: telemetry sha256 %s, pinned %s", label, got, wantTel)
	}
}

// encodeRecord renders one telemetry record as JSONL.
func encodeRecord(t *testing.T, r *obs.Record) string {
	t.Helper()
	var b strings.Builder
	if err := obs.EncodeAll(&b, []*obs.Record{r}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// pinnedScaleConfig is the scale point whose digest and telemetry are
// pinned (pinScaleDigest, pinScaleTelemetry).
func pinnedScaleConfig() ScaleConfig {
	cfg := DefaultScaleConfig(3)
	cfg.HostsPerTOR = 6
	cfg.TORsPerPod = 4
	cfg.PingsPerPair = 25
	cfg.MeanGap = 20 * Microsecond
	cfg.Duration = 3 * Millisecond
	cfg.BackgroundUtil = 0.01
	return cfg
}

func TestScaleDeterminism(t *testing.T) {
	run := func() (ScaleResult, string) {
		cfg := pinnedScaleConfig()
		cfg.Telemetry = true
		cfg.SpanLimit = 3000
		res := RunScalePoint(cfg)
		return res, encodeRecord(t, res.Record)
	}
	ref, refTel := run()
	// Guard against a vacuous pass before comparing anything.
	if ref.Pings == 0 {
		t.Fatal("workload completed no pings")
	}
	if len(refTel) < 1000 {
		t.Fatalf("telemetry suspiciously small (%d bytes)", len(refTel))
	}
	checkPinned(t, "scale", ref.Digest, refTel, pinScaleDigest, pinScaleTelemetry)
	got, gotTel := run()
	if got.Digest != ref.Digest {
		t.Errorf("same-seed rerun diverged: digest %016x vs %016x (pings %d vs %d, events %d vs %d)",
			got.Digest, ref.Digest, got.Pings, ref.Pings, got.Events, ref.Events)
	}
	if gotTel != refTel {
		t.Errorf("same-seed rerun: telemetry JSONL diverged (%d vs %d bytes)", len(gotTel), len(refTel))
	}
}

// NewSharded and ScaleConfig.Workers are deprecated and ignored, but
// cmd/ccperf still passes a worker count to both: NewSharded must build
// the cloud New builds, and a 2-worker scale config must fold the pinned
// digest.
func TestWorkerCountIgnored(t *testing.T) {
	topo := netsim.DefaultConfig()
	topo.Pods, topo.HostsPerTOR, topo.TORsPerPod = 3, 4, 2
	fired := func(c *Cloud) uint64 {
		c.DC.StartBackgroundLoad(0.01, pkt.ClassBestEffort, 700)
		src, far := c.DC.Host(0), topo.HostsPerTOR*topo.TORsPerPod
		c.Sim.Schedule(0, func() {
			src.SendUDP(netsim.HostIP(far), 4000, 4000, pkt.ClassBestEffort, []byte("cross-pod"))
		})
		c.Run(200 * Microsecond)
		return c.Sim.Fired()
	}
	opts := Options{Seed: 5, Topology: topo}
	want := fired(New(opts))
	if want == 0 {
		t.Fatal("run fired no events; test is vacuous")
	}
	if got := fired(NewSharded(opts, 8)); got != want {
		t.Errorf("NewSharded(opts, 8) fired %d events, New(opts) %d", got, want)
	}

	cfg := pinnedScaleConfig()
	cfg.Workers = 2
	checkPinned(t, "scale workers=2", RunScalePoint(cfg).Digest, "", pinScaleDigest, "")
}

// Property test: random small topologies — random pod
// counts, random L1<->L2 cable delays and per-pod spreads, random
// cross-traffic — each run twice. The rerun must produce the same
// digest and byte-identical telemetry JSONL.
func TestScaleRandomTopologyReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 clouds per trial")
	}
	rng := rand.New(rand.NewSource(816))
	for trial := 0; trial < 3; trial++ {
		cfg := DefaultScaleConfig(1 + rng.Intn(4))
		cfg.Seed = int64(1000 + trial)
		cfg.HostsPerTOR = 4 + rng.Intn(4)
		cfg.TORsPerPod = 4
		cfg.IntraPairsPerPod = 1 + rng.Intn(2)
		cfg.CrossPairsPerPod = 1 + rng.Intn(2)
		cfg.PingsPerPair = 10 + rng.Intn(15)
		cfg.MeanGap = 15 * Microsecond
		cfg.Duration = 2 * Millisecond
		cfg.BackgroundUtil = 0.005 * float64(rng.Intn(3))
		cfg.L1UplinkProp = Time(200 + rng.Intn(1500))
		cfg.L2CableSpread = Time(rng.Intn(1200))
		cfg.Telemetry = true
		cfg.SpanLimit = 2000
		label := fmt.Sprintf("trial=%d pods=%d hosts/tor=%d prop=%d spread=%d",
			trial, cfg.Pods, cfg.HostsPerTOR, cfg.L1UplinkProp, cfg.L2CableSpread)

		run := func() (ScaleResult, string) {
			res := RunScalePoint(cfg)
			return res, encodeRecord(t, res.Record)
		}
		ref, refTel := run()
		if ref.Pings == 0 {
			t.Fatalf("%s: vacuous workload (no pings)", label)
		}
		got, gotTel := run()
		if got.Digest != ref.Digest {
			t.Errorf("%s: rerun digest %016x, first run %016x", label, got.Digest, ref.Digest)
		}
		if gotTel != refTel {
			t.Errorf("%s: rerun telemetry diverged (%d vs %d bytes)", label, len(gotTel), len(refTel))
		}
	}
}

// The KV service inherits the scale point's guarantee: the same KV
// workload (clients, shards, and closed-loop request chains spread
// across pods) run twice must agree bit for bit — same completion-stream
// digest and byte-identical telemetry JSONL.
func TestNetsvcScaleDeterminism(t *testing.T) {
	base := func() NetsvcScaleConfig {
		cfg := DefaultNetsvcScaleConfig(3)
		cfg.HostsPerTOR = 6
		cfg.TORsPerPod = 4
		cfg.RequestsPerClient = 50
		cfg.Duration = 6 * Millisecond
		return cfg
	}
	run := func() (NetsvcScaleResult, string) {
		cfg := base()
		cfg.Telemetry = true
		cfg.SpanLimit = 3000
		res := RunNetsvcScalePoint(cfg)
		return res, encodeRecord(t, res.Record)
	}
	ref, refTel := run()
	if ref.Completed == 0 {
		t.Fatal("workload completed no KV requests")
	}
	if len(refTel) < 1000 {
		t.Fatalf("telemetry suspiciously small (%d bytes)", len(refTel))
	}
	checkPinned(t, "netsvc", ref.Digest, refTel, pinNetsvcDigest, pinNetsvcTelemetry)
	got, gotTel := run()
	if got.Digest != ref.Digest {
		t.Errorf("same-seed rerun diverged: digest %016x vs %016x (completed %d vs %d, events %d vs %d)",
			got.Digest, ref.Digest, got.Completed, ref.Completed, got.Events, ref.Events)
	}
	if gotTel != refTel {
		t.Errorf("same-seed rerun: telemetry JSONL diverged (%d vs %d bytes)", len(gotTel), len(refTel))
	}

	// Multi-get coalescing replays exactly like the base service: its
	// digest is pinned and rerun.
	mget := func() NetsvcScaleResult {
		cfg := base()
		cfg.MGetBatch = 4
		res := RunNetsvcScalePoint(cfg)
		if res.Completed == 0 {
			t.Fatal("mget4: no completions")
		}
		return res
	}
	first := mget()
	checkPinned(t, "netsvc mget4", first.Digest, "", pinNetsvcMGet4, "")
	if again := mget(); again.Digest != first.Digest || again.Completed != first.Completed {
		t.Errorf("mget4: rerun diverged: digest %016x vs %016x (completed %d vs %d)",
			again.Digest, first.Digest, again.Completed, first.Completed)
	}
}

// A multi-get batch above kvcache.MaxMultiKeys is clamped to it: the
// closed-loop KV point with MGetBatch 32 sends the same datagrams, and so
// folds the same digest, as with MGetBatch 16.
func TestNetsvcScaleMGetClamp(t *testing.T) {
	run := func(batch int) NetsvcScaleResult {
		cfg := DefaultNetsvcScaleConfig(2)
		cfg.HostsPerTOR = 6
		cfg.TORsPerPod = 4
		cfg.RequestsPerClient = 100
		cfg.Duration = 6 * Millisecond
		cfg.MGetBatch = batch
		return RunNetsvcScalePoint(cfg)
	}
	at16, at32 := run(16), run(32)
	if at16.Completed == 0 {
		t.Fatal("mget16: no completions")
	}
	if at32.Digest != at16.Digest || at32.Completed != at16.Completed {
		t.Errorf("mget32 digest %016x (completed %d), mget16 %016x (completed %d)",
			at32.Digest, at32.Completed, at16.Digest, at16.Completed)
	}
}

// MeanGap 0 means back-to-back requests: every fabric point still
// draws its per-chain state and completes its whole workload.
func TestFabricPointsZeroMeanGap(t *testing.T) {
	scfg := DefaultScaleConfig(2)
	scfg.HostsPerTOR = 6
	scfg.TORsPerPod = 4
	scfg.PingsPerPair = 20
	scfg.MeanGap = 0
	scfg.Duration = 3 * Millisecond
	sr := RunScalePoint(scfg)
	if want := uint64(scfg.Pods * (scfg.IntraPairsPerPod + scfg.CrossPairsPerPod) * scfg.PingsPerPair); sr.Pings != want {
		t.Errorf("scale: %d pings completed, want %d", sr.Pings, want)
	}

	ncfg := DefaultNetsvcScaleConfig(2)
	ncfg.HostsPerTOR = 6
	ncfg.TORsPerPod = 4
	ncfg.RequestsPerClient = 40
	ncfg.MeanGap = 0
	ncfg.Duration = 6 * Millisecond
	nr := RunNetsvcScalePoint(ncfg)
	if want := uint64(ncfg.Pods * ncfg.ClientsPerPod * ncfg.RequestsPerClient); nr.Completed != want || nr.Offered != want {
		t.Errorf("netsvc: %d offered, %d completed, want %d", nr.Offered, nr.Completed, want)
	}
}

// The wall-free E19 tables (pool packing, noisy neighbor) render
// byte-identically run over run; E19c carries wall-clock columns and is
// covered by the digest test below instead.
func TestTenancyTableDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tenancy experiment twice")
	}
	render := func() string {
		return expTenancyPool(Quick).String() + expTenancyNeighbor(Quick).String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("tenancy tables are non-deterministic:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// The E19 acceptance check: the multi-tenant board — KV shard slot plus
// a shaped elephant slot, both loaded by partial reconfiguration — runs
// in every pod with the same guarantee as every other workload.
// A same-seed rerun gives the same digest (client completion streams +
// elephant send/throttle totals) and byte-identical telemetry JSONL.
func TestTenancyScaleDeterminism(t *testing.T) {
	run := func() (TenancyScaleResult, string) {
		cfg := DefaultTenancyScaleConfig(3)
		cfg.HostsPerTOR = 6
		cfg.TORsPerPod = 4
		cfg.RequestsPerClient = 30
		cfg.Duration = 16 * Millisecond
		cfg.Telemetry = true
		cfg.SpanLimit = 3000
		res := RunTenancyScalePoint(cfg)
		return res, encodeRecord(t, res.Record)
	}
	ref, refTel := run()
	if ref.Completed == 0 {
		t.Fatal("workload completed no KV requests")
	}
	if ref.ElephantSent == 0 || ref.Throttled == 0 {
		t.Fatalf("elephant tenants idle (sent=%d throttled=%d): the point is not multi-tenant",
			ref.ElephantSent, ref.Throttled)
	}
	if len(refTel) < 1000 {
		t.Fatalf("telemetry suspiciously small (%d bytes)", len(refTel))
	}
	checkPinned(t, "tenancy", ref.Digest, refTel, pinTenancyDigest, pinTenancyTelemetry)
	got, gotTel := run()
	if got.Digest != ref.Digest {
		t.Errorf("same-seed rerun diverged: digest %016x vs %016x (completed %d vs %d, events %d vs %d)",
			got.Digest, ref.Digest, got.Completed, ref.Completed, got.Events, ref.Events)
	}
	if gotTel != refTel {
		t.Errorf("same-seed rerun: telemetry JSONL diverged (%d vs %d bytes)", len(gotTel), len(refTel))
	}
}

func TestFig10Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 twice is heavy")
	}
	cfg := DefaultFig10Config()
	cfg.PingsPer = 60
	a := Fig10(cfg)
	b := Fig10(cfg)
	if a.Table().String() != b.Table().String() {
		t.Fatal("Fig10 is non-deterministic")
	}
}

// The control-plane outputs that TestExperimentDeterminism only checks
// as "same run twice" are pinned to literals as well: the SHA-256 of
// the rendered haas (Fig. 13) and fig12 (Fig. 12) tables at Quick
// sizing, and of examples/haasdemo's stdout.
const (
	pinHaaSTable  = "d1e2d8b0a5b68851671a9d8fb698cc70a585dfa6acc15c8a1f1300b8db50d3f9"
	pinFig12Table = "2df6b9162b389f790a283eea2397668b04906cc3abdc50cd596cce2f5b198566"
	pinHaaSDemo   = "29a9520e8e265247a8fa67be94c518aa7610ea898606740c0b33a962f0bc0e34"
)

func TestControlPlanePins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig12 and builds an example")
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	for _, p := range []struct{ id, want string }{{"haas", pinHaaSTable}, {"fig12", pinFig12Table}} {
		tabs, err := RunExperiment(p.id, Quick)
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		out := ""
		for _, tab := range tabs {
			out += tab.String()
		}
		if got := sum([]byte(out)); got != p.want {
			t.Errorf("%s table sha256 %s, pinned %s:\n%s", p.id, got, p.want, out)
		}
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command(goTool, "run", "./examples/haasdemo").Output()
	if err != nil {
		t.Fatalf("haasdemo: %v", err)
	}
	if got := sum(out); got != pinHaaSDemo {
		t.Errorf("haasdemo stdout sha256 %s, pinned %s:\n%s", got, pinHaaSDemo, out)
	}
}

// The experiments that carry fabric background noise are pinned the same
// way: the SHA-256 of the rendered fig10 (Fig. 10) table at Quick sizing,
// of the same table under the chaos, paper, lossy and flaky fault
// profiles, whose frame faults draw on every frame of a faulted link,
// and of the svclb (Sec. V-F) table.
const (
	pinFig10Table      = "48b75bebe874480f319a33a448b0c9ae2dce38ed04177ac2afd574047ab017ec"
	pinFig10ChaosTable = "368f9de26c4d4c9a748c80dc7f293bbac809ff1ea6e73307e8aaa7f9a637593a"
	pinFig10PaperTable = "48b75bebe874480f319a33a448b0c9ae2dce38ed04177ac2afd574047ab017ec"
	pinFig10LossyTable = "368f9de26c4d4c9a748c80dc7f293bbac809ff1ea6e73307e8aaa7f9a637593a"
	pinFig10FlakyTable = "69189b36c243339f8e14497fad18afa2fbc9e3313a686a03e205bfcf25c34d90"
	pinSvcLBTable      = "544afc62492518cedfeff328b9c7357a4858cc0b92b0539654db49980b7ec644"
)

func TestNoiseCarryingPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig10 five times and the svclb sweep")
	}
	defer SetDefaultFaultProfile("")
	for _, p := range []struct{ id, profile, want string }{
		{"fig10", "", pinFig10Table},
		{"fig10", "chaos", pinFig10ChaosTable},
		{"fig10", "paper", pinFig10PaperTable},
		{"fig10", "lossy", pinFig10LossyTable},
		{"fig10", "flaky", pinFig10FlakyTable},
		{"svclb", "", pinSvcLBTable},
	} {
		if err := SetDefaultFaultProfile(p.profile); err != nil {
			t.Fatal(err)
		}
		tabs, err := RunExperiment(p.id, Quick)
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		out := ""
		for _, tab := range tabs {
			out += tab.String()
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != p.want {
			t.Errorf("%s (faults %q) table sha256 %s, pinned %s:\n%s", p.id, p.profile, got, p.want, out)
		}
	}
}

// The remaining tables with no wall-clock column are pinned the same
// way, at Quick sizing, so a change that moves any of them shows it: the
// SHA-256 of each experiment's rendered tables.
var pinQuickTables = []struct{ id, want string }{
	{"fig5", "9e6aa29223907a05ed20c04ad2ff2332e8429bf54bbf8d4a67a323c8aaedc6f5"},
	{"power", "175ed2b4e6985c665f7b15eb50cfec182bc1489415f519e5616219ab0466bfde"},
	{"reliability", "219c03811a30b1784d36c892d22cfe9d028b0f049f762c57b045708fa7731df1"},
	{"fig6", "e973327623468f9aa04a81a44169d8fc2e861d804552c5ff0e4a0783ccfd47c8"},
	{"fig7", "ccbfc6aafad908af9bdba8b50f95b99464ec3e529cb7838358f396ed01ecbf52"},
	{"fig8", "4875c0a78fd8d1c6d525ba689eb3f02a894eefad1cedde49e9acfcc374e5517a"},
	{"crypto", "063f4031c917aba14125ea7bebf1b6d871996da5b6c97573cbb1be96dd066cdf"},
	{"fig11", "dc8f2f867f390587d4d19358b3fd9f071ce74d763718cf3afd2357f07fbf766e"},
	{"ltlloss", "8cc57f51d126671b1822238aee3c7f0a0110941c2ba05a54098d9dcad8c29be7"},
	{"faults", "e9b9fa5e65c84e461c63e3fbbb085b574da9da8764cb1b859b7b5d9b89319ef6"},
	{"ext-bioinfo", "0b6e4c5e500cbc64bebc675d1e21d5d548d0d0db13fdbf6d65411f96f22ed859"},
	{"ext-compression", "b6f017e7ea846410bfa6ab56950515d802dee21277c658473789e14568f78272"},
}

func TestQuickTablePins(t *testing.T) {
	for _, p := range pinQuickTables {
		tabs, err := RunExperiment(p.id, Quick)
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		out := ""
		for _, tab := range tabs {
			out += tab.String()
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != p.want {
			t.Errorf("%s table sha256 %s, pinned %s:\n%s", p.id, got, p.want, out)
		}
	}
}

// The service-layer experiments are pinned the same way. E18a, E18b and
// E18b's KV half build on kvcache.Run and rpcnic.Run and have no
// wall-clock column: each is pinned by the SHA-256 of its Quick table.
// E18d and E17 serve over a real socket, so their tables carry client
// wall latencies; their replay-mode request digests and OK counts are
// pinned instead, plus the SHA-256 of the E17 point's telemetry JSONL.
const (
	pinNetsvcKVTable      = "05e5d2ccaa742bfc7144dc9c79b0446e2e8e8b43adf500c92a3ca7b9b332b4f4"
	pinNetsvcRPCTable     = "f7c377b6c2453e4c6975164761c8f62f561d0b3319f191b446e989f82417c927"
	pinNetsvcKVBatchTable = "aa8c16faa918aa2231853207e1286eb9bfe71f9752e4386a9dcaf68676317a95"
	pinNetsvcHTTP         = "digest=950596555559ea4c ok=89"
	pinServeReplay        = "digest=ea19094a948fc180 ok=53"
	pinServeTelemetry     = "67cb8be1dd815d30a90dd5cbbfa8a97c83cb77db92b43e9ae00ad988755d1a8a"
)

func TestServiceLayerPins(t *testing.T) {
	for _, p := range []struct {
		name string
		exp  func(Scale) *Table
		want string
	}{
		{"E18a", expNetsvcKV, pinNetsvcKVTable},
		{"E18b", expNetsvcRPC, pinNetsvcRPCTable},
		{"E18b KV", expNetsvcKVBatch, pinNetsvcKVBatchTable},
	} {
		out := p.exp(Quick).String()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != p.want {
			t.Errorf("%s table sha256 %s, pinned %s:\n%s", p.name, got, p.want, out)
		}
	}

	res, _, err := RunNetsvcHTTPPoint(18, 3000, 30*Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("digest=%016x ok=%d", res.Digest, res.OK); got != pinNetsvcHTTP {
		t.Errorf("E18d replay: %s, pinned %s", got, pinNetsvcHTTP)
	}

	sr, err := RunServePoint(ServeConfig{
		Seed: 17, Mode: frontend.Replay,
		Rate: 3000, Duration: 20 * Millisecond, RankFraction: 0.6,
		Clients: 4, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("digest=%016x ok=%d", sr.Load.Digest, sr.Load.OK); got != pinServeReplay {
		t.Errorf("E17 replay: %s, pinned %s", got, pinServeReplay)
	}
	tel := encodeRecord(t, sr.Record)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tel))); got != pinServeTelemetry {
		t.Errorf("E17 replay telemetry sha256 %s, pinned %s", got, pinServeTelemetry)
	}
}
