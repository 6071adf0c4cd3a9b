package kvcache

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Pinned output of the shard pool's lease lifecycle: a service losing
// one shard's board mid-run. The pin is the result line (Digest plus
// counts) and the SHA-256 of the run's telemetry JSONL. A change to
// either is a behaviour change and must be deliberate.
const (
	pinBoardResult    = "digest=5c361cf1afc9151a offered=2396 completed=2380 hits=1055 misses=730 timeouts=16 failovers=1 replies=2297 p99=8192 hosts=[26 25]"
	pinBoardTelemetry = "afc361786b73d1d70e3c64bfb656d346099fc2304c8333fa5c8795fbb263fa94"
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
	return func(sv *Service) { sv.In.KillNode(sv.ShardHosts()[i]) }
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
	pinPressuredQuickTelemetry = "143b403cd9bddbb31f2587efab76f04c8523d496524763418eb524ea76624f4d"
	pinPressuredFullTelemetry  = "a794cc3cc6b79a99ff1de571b65613e8ee450cf706df3eaf44a35db223339f48"
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
