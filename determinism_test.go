package configcloud

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

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
	// TestShardedScaleDeterminism) plus TestTenancyTableDeterminism for
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

// The sharded kernel's headline guarantee (conservative-lookahead
// PDES over a pod partition): a run is a pure function of its seed.
// Two same-seed runs agree bit for bit — same behaviour digest
// (per-pair ping counts and RTTs, event and crossing totals) and
// byte-identical telemetry JSONL.
//
// Comparing runs within one build cannot catch a drift both runs share,
// so the results are also pinned to literals: the digest, and the
// SHA-256 of the telemetry JSONL. A change to either is a behaviour
// change and must be deliberate.
const (
	pinScaleDigest      = "045264282139d999"
	pinScaleTelemetry   = "d64b5a50ea96b7a56bbe401ea87bf037d1272b78bdc4468d61472a73e5b34767"
	pinNetsvcDigest     = "427f71d71f34996c"
	pinNetsvcTelemetry  = "371cc6796fecfe3184caea5ccf215aada3f892e795535326f70e9d3750da3656"
	pinNetsvcMGet4      = "8375c29437f42720"
	pinTenancyDigest    = "e2d4ae3aa2cb7514"
	pinTenancyTelemetry = "f4703e11a25432bad3a141b9f413992199b5c510ca775cc9a618b360615218e9"
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

func TestShardedScaleDeterminism(t *testing.T) {
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
	if ref.Crossings == 0 {
		t.Fatal("workload never crossed a shard boundary")
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

// A sharded run advances every shard on the caller's goroutine: no event
// of a run may see a goroutine the run started, whatever worker count
// NewSharded is handed. RunScalePoint likewise ignores
// ScaleConfig.Workers, which cmd/ccperf still sets, so a 2-worker config
// folds the pinned digest.
func TestShardedRunStartsNoGoroutines(t *testing.T) {
	// Give the scheduler two Ps at least, so a run that did fan out
	// could not hide behind a single-P clamp.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	topo := netsim.DefaultConfig()
	topo.Pods, topo.HostsPerTOR, topo.TORsPerPod = 3, 4, 2
	c := NewSharded(Options{Seed: 5, Topology: topo}, 8)
	c.DC.StartBackgroundLoad(0.01, pkt.ClassBestEffort, 700)
	// One datagram from pod 0 to pod 1 crosses through the spine's shard.
	src, far := c.DC.Host(0), topo.HostsPerTOR*topo.TORsPerPod
	c.SimForHost(0).Schedule(0, func() {
		src.SendUDP(netsim.HostIP(far), 4000, 4000, pkt.ClassBestEffort, []byte("cross-pod"))
	})
	sims := c.Group.Sims()
	seen := make([]int, len(sims))
	for i, s := range sims {
		s.Schedule(Time(i+1)*10*Microsecond, func() { seen[i] = runtime.NumGoroutine() })
	}
	before := runtime.NumGoroutine()
	c.Run(200 * Microsecond)
	if c.Group.Crossings == 0 {
		t.Fatal("run never crossed a shard boundary; test is vacuous")
	}
	for i, n := range seen {
		if n != before {
			t.Errorf("shard %d: %d goroutines inside the run, %d before it", i, n, before)
		}
	}

	cfg := pinnedScaleConfig()
	cfg.Workers = 2
	checkPinned(t, "scale workers=2", RunScalePoint(cfg).Digest, "", pinScaleDigest, "")
}

// Property test: random small topologies — random pod
// counts, random L1<->L2 cable delays and per-pod spreads, random
// cross-traffic — each run twice. The rerun must produce the same
// digest and byte-identical telemetry JSONL.
func TestShardEngineRandomTopologyProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 sharded clouds per trial")
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
		if ref.Pings == 0 || ref.Crossings == 0 {
			t.Fatalf("%s: vacuous workload (pings=%d crossings=%d)", label, ref.Pings, ref.Crossings)
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

// The KV service inherits the sharded kernel's guarantee: the same KV
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
	if ref.Crossings == 0 {
		t.Fatal("workload never crossed a shard boundary")
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

// MeanGap 0 means back-to-back requests: every sharded point still
// draws its per-chain state and completes its whole workload.
func TestShardedPointsZeroMeanGap(t *testing.T) {
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
// on the sharded kernel with the same guarantee as every other workload.
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
	if ref.Crossings == 0 {
		t.Fatal("workload never crossed a shard boundary")
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
