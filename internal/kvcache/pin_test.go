package kvcache

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/haas"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Pinned outputs of the shard pool's lease lifecycle: a whole-board
// service and a slot-mode service, each losing one shard's board mid-run
// (the slot-mode run also defragments). Each pin is the result line
// (Digest plus counts) and the SHA-256 of the run's telemetry JSONL. A
// change to either is a behaviour change and must be deliberate.
const (
	pinBoardResult    = "digest=ed0ce1e65e1f1bed offered=2396 completed=2380 hits=1055 misses=730 timeouts=16 failovers=1 replies=2297 p99=8192 hosts=[26 25]"
	pinBoardTelemetry = "26d5a542802c0a0f533f3ae61af6c3c7074b8780bb1088e197c5b436d81d9cc0"
	pinSlotResult     = "digest=62f7c49b66baf09f offered=2396 completed=1454 hits=504 misses=609 timeouts=942 failovers=1 replies=534 p99=8192 hosts=[26 27]"
	pinSlotTelemetry  = "290db1c76220fcd58515ae55e68a63062313a3ffcb1d3637c72dca1b214d657c"
)

// pinResult renders the digest-bearing fields of one run.
func pinResult(r Result, hosts []int) string {
	return fmt.Sprintf("digest=%016x offered=%d completed=%d hits=%d misses=%d timeouts=%d failovers=%d replies=%d p99=%d hosts=%v",
		r.Digest, r.Offered, r.Completed, r.Hits, r.Misses, r.Timeouts,
		r.Failovers, r.FabricReplies, r.P99, hosts)
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

// driveTraffic issues one request per client every period until end:
// uniform keys, one PUT in four.
func driveTraffic(sv *Service, period, end sim.Time) {
	s := sv.Sim()
	rng := s.NewRand()
	var tick *sim.Ticker
	tick = s.Every(period, period, func() {
		if s.Now() >= end {
			tick.Stop()
			return
		}
		for _, c := range sv.Clients() {
			idx := rng.Intn(sv.cfg.Keys)
			key := MakeKey(idx, sv.cfg.KeyBytes)
			if rng.Intn(4) == 0 {
				c.Put(key, MakeVal(idx, sv.cfg.ValBytes), nil)
			} else {
				c.Get(key, nil)
			}
		}
	})
}

// midRun is one action a pinned run takes at a fixed virtual time.
type midRun struct {
	at sim.Time
	fn func(sv *Service)
}

// runPinned drives cfg for 30 ms of traffic plus a drain, taking the
// mid-run actions, and returns the pinned rendering.
func runPinned(t *testing.T, cfg Config, actions ...midRun) (string, string) {
	t.Helper()
	cfg.Telemetry = true
	sv := NewService(cfg)
	s := sv.Sim()
	for _, a := range actions {
		a := a
		s.Schedule(a.at-s.Now(), func() { a.fn(sv) })
	}
	driveTraffic(sv, 50*sim.Microsecond, 30*sim.Millisecond)
	s.RunUntil(36 * sim.Millisecond)
	sv.Stop()
	r := sv.Result()
	return pinResult(r, sv.ShardHosts()), telemetrySHA(t, sv.Telemetry("pin"))
}

func killShard(i int) func(sv *Service) {
	return func(sv *Service) { sv.in.KillNode(sv.ShardHosts()[i]) }
}

// TestPinnedBoardFailover: whole-board shards, slice 0's board killed at
// 2.5 ms and replaced from the spare.
func TestPinnedBoardFailover(t *testing.T) {
	cfg := smallConfig(83)
	cfg.RMPoll = sim.Millisecond
	res, tel := runPinned(t, cfg, midRun{2500 * sim.Microsecond, killShard(0)})
	if res != pinBoardResult {
		t.Errorf("result\n got %s\nwant %s", res, pinBoardResult)
	}
	if tel != pinBoardTelemetry {
		t.Errorf("telemetry sha256 %s, pinned %s", tel, pinBoardTelemetry)
	}
}

// TestPinnedSlotFailoverDefrag: slot-claim shards, slice 0's board killed
// once serving and re-leased on a spare, then another tenant's claim
// makes a spare board fuller and one Defragment pass moves a shard onto
// it.
func TestPinnedSlotFailoverDefrag(t *testing.T) {
	cfg := slotConfig(89)
	cfg.RMPoll = sim.Millisecond
	cfg.Spares = 2
	cfg.SlotsPerBoard = 3
	moves := -1
	res, tel := runPinned(t, cfg,
		midRun{8500 * sim.Microsecond, killShard(0)},
		midRun{16 * sim.Millisecond, func(sv *Service) {
			var avoid []haas.NodeID
			for _, h := range sv.ShardHosts() {
				avoid = append(avoid, haas.NodeID(h))
			}
			if _, err := sv.RM().LeaseSlots(haas.SlotRequest{
				Tenant: "other", Image: "other-v1", ALMs: 24000, Count: 1, Avoid: avoid,
			}); err != nil {
				t.Errorf("foreign claim: %v", err)
			}
		}},
		midRun{24 * sim.Millisecond, func(sv *Service) { moves = sv.RM().Defragment() }},
	)
	if moves != 1 {
		t.Fatalf("defrag moves = %d, want 1", moves)
	}
	if res != pinSlotResult {
		t.Errorf("result\n got %s\nwant %s", res, pinSlotResult)
	}
	if tel != pinSlotTelemetry {
		t.Errorf("telemetry sha256 %s, pinned %s", tel, pinSlotTelemetry)
	}
}

// Pinned results of E18b's pressured directory: 32 buckets x 4 ways per
// shard (512 slots across 4 shards) under the 512-key uniform workload,
// at both the quick and the full sizing. The full-sizing run fills the
// buckets far enough to evict and to relocate residents along cuckoo
// chains, so this is the pin that moves if the directory's insert,
// relocation or eviction path changes.
const (
	pinPressuredQuick = "digest=5669bbed9c61f31f hits=312 misses=1104 evictions=0 kicks=12 used=189 slots=512"
	pinPressuredFull  = "digest=295f1fc5166484f9 hits=4081 misses=2729 evictions=62 kicks=98 used=423 slots=512"
)

// pressuredConfig is E18b's pressured-directory row: the root package's
// netsvcKVConfig(18, 25000, 0, scale) with each shard's directory cut
// to 32x4.
func pressuredConfig(full bool) Config {
	cfg := DefaultConfig()
	cfg.Seed = 18
	cfg.Keys = 512
	cfg.GetFraction = 0.85
	cfg.ClientRate = 25000
	cfg.Duration = 8 * sim.Millisecond
	cfg.Drain = 4 * sim.Millisecond
	if full {
		cfg.Duration = 40 * sim.Millisecond
		cfg.Drain = 8 * sim.Millisecond
	}
	cfg.Store.Sets, cfg.Store.Ways = 32, 4
	return cfg
}

// pinStore renders the directory-bearing fields of one run.
func pinStore(r Result) string {
	return fmt.Sprintf("digest=%016x hits=%d misses=%d evictions=%d kicks=%d used=%d slots=%d",
		r.Digest, r.Hits, r.Misses, r.Evictions, r.Kicks, r.Used, r.Slots)
}

// TestPinnedPressuredStore pins the pressured directory at both sizings.
func TestPinnedPressuredStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		full bool
		pin  string
	}{
		{"quick", false, pinPressuredQuick},
		{"full", true, pinPressuredFull},
	} {
		if got := pinStore(Run(pressuredConfig(tc.full))); got != tc.pin {
			t.Errorf("%s\n got %s\nwant %s", tc.name, got, tc.pin)
		}
	}
}

// SHA-256 of the pressured runs' telemetry JSONL.
const (
	pinPressuredQuickTelemetry = "cc468240c783c235a71eaedd47de0eabae122af1931cc5bc633a8361332a661b"
	pinPressuredFullTelemetry  = "73aa1178820cf38aac0c7d1de52120237b0f58bc0dc5d8d9fc4dbc44ae4c63c0"
)

// TestPinnedPressuredTelemetry: each relocation is registered and
// reported once, so telemetry's kvcache.cuckoo_kicks equals Result.Kicks;
// the whole telemetry record is pinned alongside.
func TestPinnedPressuredTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		full bool
		pin  string
	}{
		{"quick", false, pinPressuredQuickTelemetry},
		{"full", true, pinPressuredFullTelemetry},
	} {
		cfg := pressuredConfig(tc.full)
		cfg.Telemetry = true
		r := Run(cfg)
		var kicks, found uint64
		for _, m := range r.Record.Metrics {
			if m.Name == "kvcache.cuckoo_kicks" {
				kicks, found = m.N, found+1
			}
		}
		if found != 1 || r.Kicks == 0 || kicks != r.Kicks {
			t.Errorf("%s: telemetry kvcache.cuckoo_kicks = %d (%d samples), Result.Kicks = %d",
				tc.name, kicks, found, r.Kicks)
		}
		if sha := telemetrySHA(t, r.Record); sha != tc.pin {
			t.Errorf("%s: telemetry sha256 %s, pinned %s", tc.name, sha, tc.pin)
		}
	}
}
