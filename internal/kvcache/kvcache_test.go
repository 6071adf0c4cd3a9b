package kvcache

import (
	"testing"

	"repro/internal/sim"
)

// smallConfig keeps service tests fast while exercising the full path.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Clients = 4
	cfg.Shards = 2
	cfg.Spares = 1
	cfg.Keys = 256
	cfg.ClientRate = 10000
	cfg.Duration = 8 * sim.Millisecond
	cfg.Drain = 4 * sim.Millisecond
	return cfg
}

// TestRunOnFabric is the §III witness: shard replies are generated on
// the fabric and the shard hosts' PCIe path stays silent.
func TestRunOnFabric(t *testing.T) {
	r := Run(smallConfig(11))
	if r.Offered == 0 || r.Completed == 0 {
		t.Fatalf("no traffic: %+v", r)
	}
	if r.FabricReplies == 0 {
		t.Fatalf("no fabric replies: %+v", r)
	}
	if r.HostRoundTrips != 0 {
		t.Fatalf("shard host PCIe path ran %d times, want 0: %+v", r.HostRoundTrips, r)
	}
	if !r.OnFabric {
		t.Fatalf("OnFabric = false: %+v", r)
	}
	if r.P99 < r.P50 || r.P50 <= 0 {
		t.Fatalf("implausible latency quantiles: %+v", r)
	}
}

// TestRunDeterminism: same seed, same config — identical digest and
// counters across runs.
func TestRunDeterminism(t *testing.T) {
	a := Run(smallConfig(23))
	b := Run(smallConfig(23))
	a.Record, b.Record = nil, nil
	if a != b {
		t.Fatalf("same-seed runs diverged:\n a=%+v\n b=%+v", a, b)
	}
	c := Run(smallConfig(24))
	if c.Digest == a.Digest {
		t.Fatalf("different seeds produced equal digests (%d)", a.Digest)
	}
}

// TestZipfSkewRaisesHitRate: a Zipf-skewed key draw concentrates GETs on
// hot keys, so the same cache geometry yields a higher hit rate than a
// uniform draw over the same keyspace.
func TestZipfSkewRaisesHitRate(t *testing.T) {
	cfg := smallConfig(31)
	cfg.GetFraction = 0.8 // enough PUTs to populate
	uni := Run(cfg)
	cfg.Zipf = 1.2
	skew := Run(cfg)
	if skew.HitRate <= uni.HitRate {
		t.Fatalf("zipf hit rate %.3f not above uniform %.3f", skew.HitRate, uni.HitRate)
	}
}

// TestSpanWitness: with telemetry on, the span log carries both the
// client request spans and the shard's on-fabric handling spans.
func TestSpanWitness(t *testing.T) {
	cfg := smallConfig(41)
	cfg.Telemetry = true
	r := Run(cfg)
	if r.Record == nil {
		t.Fatal("telemetry enabled but no record")
	}
	names := map[string]int{}
	for _, sp := range r.Record.Spans {
		names[sp.Name]++
	}
	if names["kvcache.request"] == 0 {
		t.Fatalf("no kvcache.request spans: %v", names)
	}
	if names["kvcache.shard"] == 0 {
		t.Fatalf("no kvcache.shard spans: %v", names)
	}
}

// TestShardFailover: killing a shard's FPGA swings its keyspace slice to
// a spare (cold), and requests to that slice complete again afterwards.
func TestShardFailover(t *testing.T) {
	cfg := smallConfig(53)
	cfg.RMPoll = 1 * sim.Millisecond
	sv := NewService(cfg)
	s := sv.Sim()
	victim := sv.ShardHosts()[0]
	s.Schedule(2*sim.Millisecond-s.Now(), func() { sv.in.KillNode(victim) })
	s.RunUntil(10 * sim.Millisecond)

	if got := sv.Failovers.Value(); got == 0 {
		t.Fatal("no failover recorded after shard kill")
	}
	hosts := sv.ShardHosts()
	if hosts[0] == victim {
		t.Fatalf("slice 0 still routed at dead host %d", victim)
	}

	// A request to the swung slice must complete on the replacement.
	var idx int
	for i := 0; ; i++ {
		if keyHash(MakeKey(i, cfg.KeyBytes))%uint64(len(hosts)) == 0 {
			idx = i
			break
		}
	}
	var out Outcome
	var called bool
	sv.Clients()[0].Get(MakeKey(idx, cfg.KeyBytes), func(o Outcome) { called, out = true, o })
	s.RunUntil(s.Now() + 4*sim.Millisecond)
	sv.Stop()
	if !called {
		t.Fatal("post-failover GET never completed")
	}
	if out.TimedOut {
		t.Fatalf("post-failover GET timed out: %+v", out)
	}
}

// TestFailoverReplacesLease: a dead shard's board is swapped inside its
// lease (HaaS ReplaceNode) instead of a fresh lease being taken while
// the dead one, and its failure callback, stay registered.
func TestFailoverReplacesLease(t *testing.T) {
	cfg := smallConfig(59)
	cfg.RMPoll = 1 * sim.Millisecond
	sv := NewService(cfg)
	victim := sv.ShardHosts()[0]
	sv.Sim().Schedule(2*sim.Millisecond-sv.Sim().Now(), func() { sv.in.KillNode(victim) })
	sv.Sim().RunUntil(6 * sim.Millisecond)
	sv.Stop()
	if g, r := sv.RM().Granted.Value(), sv.RM().Replaced.Value(); g != uint64(cfg.Shards) || r != 1 {
		t.Fatalf("haas granted=%d replaced=%d, want %d and 1", g, r, cfg.Shards)
	}
}
