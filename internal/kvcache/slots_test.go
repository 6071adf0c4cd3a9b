package kvcache

import (
	"testing"

	"repro/internal/sim"
)

// slotConfig leases each shard as a vFPGA slot claim; the default
// 2-slot partition leaves every board's second slot free.
func slotConfig(seed int64) Config {
	cfg := smallConfig(seed)
	cfg.SlotALMs = 17500
	return cfg
}

// warmupSlots runs construction-time partial reconfigurations to
// completion (a ~48k-ALM region programs in ~11ms of virtual time).
func warmupSlots(sv *Service) {
	sv.Sim().RunFor(15 * sim.Millisecond)
}

// TestSlotModeServes: shards leased as slot claims serve PUT/GET once
// their slots finish reconfiguring, replies still generated on-fabric.
func TestSlotModeServes(t *testing.T) {
	sv := NewService(slotConfig(61))
	s := sv.Sim()
	warmupSlots(sv)

	used, _, _, _ := sv.RM().SlotPoolStats()
	if used != sv.cfg.Shards {
		t.Fatalf("slots used = %d, want %d", used, sv.cfg.Shards)
	}
	hosts := sv.ShardHosts()
	if hosts[0] == hosts[1] {
		t.Fatalf("two shard slices share board %d (kind demux collision)", hosts[0])
	}

	key := MakeKey(7, sv.cfg.KeyBytes)
	var putOK, gotHit bool
	sv.Clients()[0].Put(key, []byte("slot-value"), func(o Outcome) { putOK = o.Ok })
	s.RunFor(2 * sim.Millisecond)
	if !putOK {
		t.Fatal("PUT through a slot-leased shard failed")
	}
	sv.Clients()[1].Get(key, func(o Outcome) { gotHit = o.Ok && o.Hit })
	s.RunFor(2 * sim.Millisecond)
	if !gotHit {
		t.Fatal("GET through a slot-leased shard missed a just-written key")
	}
	// The shard replied from the fabric via its slot's egress path.
	var replies uint64
	for _, d := range sv.shards {
		replies += d.Replies.Value()
	}
	if replies == 0 {
		t.Fatal("no on-fabric replies recorded")
	}
	sv.Stop()
}

// TestSlotModeFailover: killing a shard's board re-leases the slice onto
// a spare board's slot (avoiding boards other slices occupy), and the
// slice serves again after the replacement slot reprograms.
func TestSlotModeFailover(t *testing.T) {
	cfg := slotConfig(67)
	cfg.RMPoll = 1 * sim.Millisecond
	sv := NewService(cfg)
	s := sv.Sim()
	warmupSlots(sv)

	victim := sv.ShardHosts()[0]
	sv.in.KillNode(victim)
	s.RunFor(20 * sim.Millisecond) // detection + replacement reconfig

	if got := sv.Failovers.Value(); got == 0 {
		t.Fatal("no failover recorded after board kill")
	}
	hosts := sv.ShardHosts()
	if hosts[0] == victim {
		t.Fatalf("slice 0 still routed at dead board %d", victim)
	}
	if hosts[0] == hosts[1] {
		t.Fatalf("failover co-located two slices on board %d", hosts[0])
	}
	claims := sv.SlotClaims()
	if claims[0] == nil || !claims[0].Ready {
		t.Fatal("replacement slot claim not ready")
	}

	// A request hashed to the swung slice completes on the replacement.
	var idx int
	for i := 0; ; i++ {
		if keyHash(MakeKey(i, cfg.KeyBytes))%uint64(len(hosts)) == 0 {
			idx = i
			break
		}
	}
	var called bool
	var out Outcome
	sv.Clients()[0].Get(MakeKey(idx, cfg.KeyBytes), func(o Outcome) { called, out = true, o })
	s.RunFor(4 * sim.Millisecond)
	sv.Stop()
	if !called {
		t.Fatal("post-failover GET never completed")
	}
	if out.TimedOut {
		t.Fatalf("post-failover GET timed out: %+v", out)
	}
}

// TestSlotModeDefragKeepsServing: after churn strands shard slices on
// separate boards, a defrag pass consolidates them while every slice
// keeps completing requests (live partial reconfiguration: destination
// programs before the source clears).
func TestSlotModeDefragKeepsServing(t *testing.T) {
	cfg := slotConfig(71)
	cfg.Shards = 2
	cfg.Spares = 2
	sv := NewService(cfg)
	s := sv.Sim()
	warmupSlots(sv)

	before := sv.RM().SlotBoardsInUse()
	moves := sv.RM().Defragment()
	// With one claim per board and same-tenant anti-affinity, kvcache
	// slices can never co-locate: defrag must refuse to move them.
	if moves != 0 {
		t.Fatalf("defrag moved %d same-tenant claims onto shared boards", moves)
	}
	if got := sv.RM().SlotBoardsInUse(); got != before {
		t.Fatalf("boards in use changed %d -> %d without moves", before, got)
	}

	key := MakeKey(3, cfg.KeyBytes)
	var ok bool
	sv.Clients()[0].Put(key, []byte("v"), func(o Outcome) { ok = o.Ok })
	s.RunFor(2 * sim.Millisecond)
	if !ok {
		t.Fatal("PUT failed after defrag pass")
	}
	sv.Stop()
}

// TestSlotModeDeterminism: slot-mode service construction and traffic
// replay bit-identically for the same seed.
func TestSlotModeDeterminism(t *testing.T) {
	run := func() (uint64, []int) {
		sv := NewService(slotConfig(73))
		s := sv.Sim()
		warmupSlots(sv)
		for i := 0; i < 64; i++ {
			ci := i % len(sv.Clients())
			key := MakeKey(i, sv.cfg.KeyBytes)
			if i%4 == 0 {
				sv.Clients()[ci].Put(key, []byte("d"), nil)
			} else {
				sv.Clients()[ci].Get(key, nil)
			}
		}
		s.RunFor(8 * sim.Millisecond)
		var digest uint64
		for _, c := range sv.Clients() {
			digest = digest*1099511628211 + c.Digest()
		}
		hosts := sv.ShardHosts()
		sv.Stop()
		return digest, hosts
	}
	d1, h1 := run()
	d2, h2 := run()
	if d1 != d2 {
		t.Fatalf("slot-mode digests diverged: %x vs %x", d1, d2)
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("placement diverged: %v vs %v", h1, h2)
		}
	}
}
