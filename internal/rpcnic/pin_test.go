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
	pinOffloadResult    = "digest=040a68d4337bbe03 route=58c6d44e507827c0 offered=316 completed=313 timeouts=3 p99=34816 live=3"
	pinOffloadTelemetry = "975b179fe6ce99647c3e7941b6faf2ede1a83f6b40082bd9ecd4d91a8eefb2f4"
	pinHostResult       = "digest=abee431e0b8994ed route=16250bef1c1176c2 offered=316 completed=313 timeouts=3 p99=43008 live=3"
	pinHostTelemetry    = "d4330c06ee32cbb6b5eba9a4616140b99b12a69c711baaf08e75de2218925dc3"
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
	s.Schedule(2500*sim.Microsecond-s.Now(), func() { d.in.KillNode(d.router.Live()[0].Host) })
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
		r.Digest, r.RouteHash, r.Offered, r.Completed, r.Timeouts, r.P99, len(d.router.Live()))
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
