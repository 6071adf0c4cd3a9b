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

// Pinned output of the balancer's lease lifecycle: a run that loses one
// backend's board mid-run. The pin is the result line (RouteHash plus
// counts) and the SHA-256 of the run's telemetry JSONL. A change to
// either is a behaviour change and must be deliberate.
const (
	pinBoardResult    = "route=334a58b901396cf4 offered=432 admitted=432 shed=0 completed=432 failovers=1 resent=1 final=1 p99=3145728"
	pinBoardTelemetry = "2a159c66ad36781a87ed9736e3a01a05c17321d84d08e94f69fdad49428101ee"
)

// pinResult renders the digest-bearing fields of one run.
func pinResult(r Result) string {
	return fmt.Sprintf("route=%016x offered=%d admitted=%d shed=%d completed=%d failovers=%d resent=%d final=%d p99=%d",
		r.RouteHash, r.Offered, r.Admitted, r.Shed, r.Completed,
		r.Failovers, r.Resent, r.FinalBackends, r.P99)
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

func checkPins(t *testing.T, r Result) {
	t.Helper()
	if got := pinResult(r); got != pinBoardResult {
		t.Errorf("result\n got %s\nwant %s", got, pinBoardResult)
	}
	if got := telemetrySHA(t, r.Telemetry); got != pinBoardTelemetry {
		t.Errorf("telemetry sha256 %s, pinned %s", got, pinBoardTelemetry)
	}
}

// boardFailoverConfig is one overloaded whole-board backend killed
// mid-run and replaced from a spare. The kill lands 100µs past a round
// 30ms so a request is in flight on the dead board and must be resent.
func boardFailoverConfig() Config {
	cfg := quickConfig()
	cfg.Clients = 20
	cfg.FPGAs = 1
	cfg.Spares = 2
	cfg.Admission = false
	cfg.Telemetry = true
	cfg.KillAt = cfg.Warmup + 30*sim.Millisecond + 100*sim.Microsecond
	return cfg
}

// TestPinnedBoardFailover pins the whole-board failover run.
func TestPinnedBoardFailover(t *testing.T) {
	r := Run(boardFailoverConfig())
	if r.Failovers == 0 || r.Resent == 0 {
		t.Fatalf("failover not exercised: %s", pinResult(r))
	}
	checkPins(t, r)
}

// TestPinnedBoardFailoverParanoid reruns the whole-board failover with
// the fabric re-decoding every frame at every hop, the background noise
// frames included, and must land on the same pins: the cached frame
// views never diverge from the bytes, and checking them changes nothing.
func TestPinnedBoardFailoverParanoid(t *testing.T) {
	netsim.SetParanoid(true)
	defer netsim.SetParanoid(false)
	r := Run(boardFailoverConfig())
	checkPins(t, r)
}
