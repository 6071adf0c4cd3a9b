package rpcnic

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Pinned outputs of the backend pool's lease lifecycle: the offload and
// the host-software dispatcher, each losing one backend's board mid-run.
// Each pin is the result line (Digest, RouteHash plus counts) and the
// SHA-256 of the run's telemetry JSONL. A change to either is a
// behaviour change and must be deliberate.
const (
	pinOffloadResult    = "digest=70cec56c890a1428 route=1fb2ba6d97137ff5 offered=316 completed=313 timeouts=3 p99=27648 live=3"
	pinOffloadTelemetry = "f38b9b14b892bec4954c3574029b46a09e5928f57801e78279c9e5af1ea4852b"
	pinHostResult       = "digest=f3c300f26652f0d0 route=b6ccd99c43b51db0 offered=316 completed=313 timeouts=3 p99=40960 live=3"
	pinHostTelemetry    = "9f41b9325de33c82e7fdabb962a04f772352bb45f5ddafd53c67312de42b31e5"
)

// runPinned drives every caller with one RPC per period for 8 ms, kills
// the first live backend at 2.5 ms, drains, and returns the result line
// and the telemetry SHA-256.
func runPinned(t *testing.T, offload bool) (string, string) {
	t.Helper()
	cfg := smallConfig(97, offload)
	cfg.RMPoll = sim.Millisecond
	cfg.Telemetry = true
	d := NewDispatcher(cfg)
	s := d.s
	s.Schedule(2500*sim.Microsecond-s.Now(), func() { d.In.KillNode(d.Router.Live()[0].Host) })
	methods := []byte{MethodEcho, MethodHash, MethodRank}
	args := []byte("pinned-args")
	n := 0
	var tick *sim.Ticker
	tick = s.Every(100*sim.Microsecond, 100*sim.Microsecond, func() {
		if s.Now() >= cfg.Duration {
			tick.Stop()
			return
		}
		for _, c := range d.callers {
			c.call(methods[n%len(methods)], args)
			n++
		}
	})
	s.RunUntil(cfg.Duration + cfg.Drain)
	d.Stop()
	r := d.Result()
	res := fmt.Sprintf("digest=%016x route=%016x offered=%d completed=%d timeouts=%d p99=%d live=%d",
		r.Digest, r.RouteHash, r.Offered, r.Completed, r.Timeouts, r.P99, len(d.Router.Live()))
	var b strings.Builder
	if err := obs.EncodeAll(&b, []*obs.Record{d.Telemetry("pin")}); err != nil {
		t.Fatal(err)
	}
	return res, fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

func checkPins(t *testing.T, offload bool, wantResult, wantTel string) {
	t.Helper()
	res, tel := runPinned(t, offload)
	if res != wantResult {
		t.Errorf("result\n got %s\nwant %s", res, wantResult)
	}
	if tel != wantTel {
		t.Errorf("telemetry sha256 %s, pinned %s", tel, wantTel)
	}
}

// TestPinnedOffloadFailover: the on-NIC dispatcher loses a backend.
func TestPinnedOffloadFailover(t *testing.T) {
	checkPins(t, true, pinOffloadResult, pinOffloadTelemetry)
}

// TestPinnedHostFailover: the host-software dispatcher loses a backend.
func TestPinnedHostFailover(t *testing.T) {
	checkPins(t, false, pinHostResult, pinHostTelemetry)
}
