package svclb

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Pinned outputs of the balancer's lease lifecycle: a whole-board run
// that fails over and scales both ways, and a slot-mode run that fails
// over. Each pin is the result line (RouteHash plus counts) and the
// SHA-256 of the run's telemetry JSONL. A change to either is a
// behaviour change and must be deliberate.
const (
	pinBoardResult    = "route=3f5c11fb1b0be727 offered=447 admitted=447 shed=0 completed=447 failovers=1 resent=1 grown=6 shrunk=5 final=2 p99=1835008"
	pinBoardTelemetry = "9d7582b7a89a987d0b4c2de485032011cf127d0162129ca038e69f4b95aa1638"
	pinSlotResult     = "route=657caa419345a80b offered=348 admitted=348 shed=0 completed=348 failovers=1 resent=1 grown=0 shrunk=0 final=2 p99=655360"
	pinSlotTelemetry  = "854a8ae31be3ca9ab45abdd702c33a8f6023b49e037adb7cc2a919a372564b14"
)

// pinResult renders the digest-bearing fields of one run.
func pinResult(r Result) string {
	return fmt.Sprintf("route=%016x offered=%d admitted=%d shed=%d completed=%d failovers=%d resent=%d grown=%d shrunk=%d final=%d p99=%d",
		r.RouteHash, r.Offered, r.Admitted, r.Shed, r.Completed,
		r.Failovers, r.Resent, r.Grown, r.Shrunk, r.FinalBackends, r.P99)
}

// telemetrySHA is the SHA-256 of a record's JSONL encoding.
func telemetrySHA(t *testing.T, rec *obs.Record) string {
	t.Helper()
	var b strings.Builder
	if err := obs.EncodeAll(&b, []*obs.Record{rec}); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

func checkPins(t *testing.T, r Result, wantResult, wantTel string) {
	t.Helper()
	if got := pinResult(r); got != wantResult {
		t.Errorf("result\n got %s\nwant %s", got, wantResult)
	}
	if got := telemetrySHA(t, r.Telemetry); got != wantTel {
		t.Errorf("telemetry sha256 %s, pinned %s", got, wantTel)
	}
}

// TestPinnedBoardLifecycle: whole-board backends under autoscale grow
// and shrink, with one board killed mid-run and replaced from a spare.
func TestPinnedBoardLifecycle(t *testing.T) {
	cfg := quickConfig()
	cfg.Clients = 20
	cfg.FPGAs = 1
	cfg.Spares = 2
	cfg.Admission = false
	cfg.Telemetry = true
	cfg.Autoscale = AutoscaleConfig{
		Interval: 10 * sim.Millisecond,
		HighP99:  4 * cfg.ServiceTime,
		LowP99:   3 * cfg.ServiceTime,
		Min:      1,
		Max:      3,
	}
	cfg.KillAt = cfg.Warmup + 30*sim.Millisecond
	r := Run(cfg)
	if r.Failovers == 0 || r.Grown == 0 || r.Shrunk == 0 {
		t.Fatalf("lifecycle not exercised: %s", pinResult(r))
	}
	checkPins(t, r, pinBoardResult, pinBoardTelemetry)
}

// slotFailoverConfig is slot-claim backends with one board killed
// mid-run and the claim re-leased on a spare board.
func slotFailoverConfig() Config {
	cfg := quickConfig()
	cfg.Clients = 16
	cfg.SlotALMs = 40000
	cfg.Telemetry = true
	cfg.KillAt = cfg.Warmup + 30*sim.Millisecond
	return cfg
}

// TestPinnedSlotFailover pins the slot-mode failover run.
func TestPinnedSlotFailover(t *testing.T) {
	r := Run(slotFailoverConfig())
	if r.Failovers == 0 {
		t.Fatalf("kill not detected: %s", pinResult(r))
	}
	checkPins(t, r, pinSlotResult, pinSlotTelemetry)
}

// TestPinnedSlotFailoverParanoid reruns the slot-mode failover with the
// fabric re-decoding every frame at every hop, the background noise
// frames included, and must land on the same pins: the cached frame
// views never diverge from the bytes, and checking them changes nothing.
func TestPinnedSlotFailoverParanoid(t *testing.T) {
	netsim.SetParanoid(true)
	defer netsim.SetParanoid(false)
	r := Run(slotFailoverConfig())
	checkPins(t, r, pinSlotResult, pinSlotTelemetry)
}
