package kvcache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

func newTestStore(t *testing.T, cfg StoreConfig) (*sim.Simulation, *Store) {
	t.Helper()
	s := sim.New(1)
	mem := dram.New(s, dram.DefaultConfig())
	return s, NewStore(s, mem, cfg)
}

// storeGet runs one Get to completion and returns (hit, copied value).
func storeGet(s *sim.Simulation, st *Store, key []byte) (bool, []byte) {
	var hit bool
	var got []byte
	op := &StoreOp{Done: func(_ *StoreOp, ok bool, val []byte) {
		hit = ok
		got = append([]byte(nil), val...)
	}}
	st.Get(key, op)
	s.RunUntil(s.Now() + sim.Millisecond)
	return hit, got
}

// storePut runs one Put to completion and returns (ok, evicted).
func storePut(s *sim.Simulation, st *Store, key, val []byte) (bool, bool) {
	var ok, evicted bool
	op := &StoreOp{Done: func(o *StoreOp, k bool, _ []byte) {
		ok, evicted = k, o.Evicted
	}}
	st.Put(key, val, op)
	s.RunUntil(s.Now() + sim.Millisecond)
	return ok, evicted
}

func TestStorePutGet(t *testing.T) {
	s, st := newTestStore(t, DefaultStoreConfig())
	key, val := []byte("hello"), []byte("world")

	if ok, _ := storePut(s, st, key, val); !ok {
		t.Fatal("Put failed")
	}
	hit, got := storeGet(s, st, key)
	if !hit || !bytes.Equal(got, val) {
		t.Fatalf("Get: hit=%v val=%q, want hit=true val=%q", hit, got, val)
	}
	if st.Stats().Hits.Value() != 1 || st.Stats().Puts.Value() != 1 {
		t.Fatalf("stats: hits=%d puts=%d", st.Stats().Hits.Value(), st.Stats().Puts.Value())
	}
}

func TestStoreMissAbsent(t *testing.T) {
	s, st := newTestStore(t, DefaultStoreConfig())
	hit, _ := storeGet(s, st, []byte("nope"))
	if hit {
		t.Fatal("absent key hit")
	}
	if st.Stats().Misses.Value() != 1 {
		t.Fatalf("misses = %d, want 1", st.Stats().Misses.Value())
	}
}

func TestStoreKeyAliasSafe(t *testing.T) {
	// The store must not retain the caller's key buffer across its async
	// DRAM transaction: mutate the buffer right after Get returns.
	s, st := newTestStore(t, DefaultStoreConfig())
	key := []byte("stable-key")
	if ok, _ := storePut(s, st, key, []byte("v")); !ok {
		t.Fatal("Put failed")
	}
	buf := append([]byte(nil), key...)
	var hit bool
	op := &StoreOp{Done: func(_ *StoreOp, ok bool, _ []byte) { hit = ok }}
	st.Get(buf, op)
	for i := range buf {
		buf[i] = 0xFF // simulate the datagram buffer being recycled
	}
	s.RunUntil(s.Now() + sim.Millisecond)
	if !hit {
		t.Fatal("Get must compare against its own key copy, not the mutated caller buffer")
	}
}

func TestStoreEvictsLRU(t *testing.T) {
	// One bucket of two ways: both of every key's candidate buckets are
	// that bucket, so no relocation path exists and the third distinct
	// key must displace the least recently used of the first two.
	cfg := StoreConfig{Sets: 1, Ways: 2, SlotBytes: 64}
	s, st := newTestStore(t, cfg)

	put := func(k, v string) {
		if ok, _ := storePut(s, st, []byte(k), []byte(v)); !ok {
			t.Fatalf("Put(%q) failed", k)
		}
	}
	get := func(k string) bool {
		hit, _ := storeGet(s, st, []byte(k))
		return hit
	}

	put("a", "1")
	put("b", "2")
	if !get("a") { // touch a so b is LRU
		t.Fatal("a should hit before eviction")
	}
	put("c", "3") // evicts b
	if st.Stats().Evictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", st.Stats().Evictions.Value())
	}
	if get("b") {
		t.Fatal("b should have been evicted")
	}
	if !get("a") || !get("c") {
		t.Fatal("a and c should both be resident")
	}
}

func TestStoreRejectsOversized(t *testing.T) {
	cfg := StoreConfig{Sets: 4, Ways: 2, SlotBytes: 16}
	s, st := newTestStore(t, cfg)
	var called, ok bool
	op := &StoreOp{Done: func(_ *StoreOp, o bool, _ []byte) { called, ok = true, o }}
	st.Put([]byte("key"), make([]byte, 32), op)
	s.RunUntil(sim.Millisecond)
	if !called || ok {
		t.Fatalf("oversized put: called=%v ok=%v, want called=true ok=false", called, ok)
	}
}

func TestStoreCollisionDisprovedByDRAM(t *testing.T) {
	// Force a tag alias: write entry, then corrupt its tag hash to match a
	// different key of the same length. The DRAM key compare must turn the
	// false tag hit into a miss and count the collision.
	cfg := StoreConfig{Sets: 1, Ways: 1, SlotBytes: 64}
	s, st := newTestStore(t, cfg)
	if ok, _ := storePut(s, st, []byte("aaaa"), []byte("v")); !ok {
		t.Fatal("Put failed")
	}

	alias := []byte("bbbb")
	st.tags[0].hash = keyHash(alias)

	hit, _ := storeGet(s, st, alias)
	if hit {
		t.Fatal("alias must not hit")
	}
	if st.Stats().Collisions.Value() != 1 {
		t.Fatalf("collisions = %d, want 1", st.Stats().Collisions.Value())
	}
}

func TestCuckooPutGet(t *testing.T) {
	s, st := newTestStore(t, DefaultStoreConfig())
	key, val := []byte("hello"), []byte("world")

	if ok, _ := storePut(s, st, key, val); !ok {
		t.Fatal("Put failed")
	}
	hit, got := storeGet(s, st, key)
	if !hit || !bytes.Equal(got, val) {
		t.Fatalf("Get: hit=%v val=%q, want hit=true val=%q", hit, got, val)
	}
	if used, _ := st.Occupancy(); used != 1 {
		t.Fatalf("occupancy = %d, want 1", used)
	}
}

func TestCuckooOverwriteInPlace(t *testing.T) {
	s, st := newTestStore(t, DefaultStoreConfig())
	key := []byte("k")
	storePut(s, st, key, []byte("v1"))
	storePut(s, st, key, []byte("v2"))
	hit, got := storeGet(s, st, key)
	if !hit || !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("overwrite: hit=%v val=%q", hit, got)
	}
	if used, _ := st.Occupancy(); used != 1 {
		t.Fatalf("occupancy = %d after overwrite, want 1", used)
	}
}

func TestCuckooRelocatesUnderPressure(t *testing.T) {
	// A small directory (8 buckets x 2 ways) fills fast; keep inserting
	// distinct keys until a relocation (kick) happens, and verify every
	// non-evicted key still reads back. (These key names reach a kick at
	// the 11th insert; sequential "key-NN" names happen to land in
	// distinct buckets and never need one.)
	s, st := newTestStore(t, StoreConfig{Sets: 8, Ways: 2, SlotBytes: 64})

	keys := make([][]byte, 0, 16)
	for i := 0; i < 16; i++ {
		k := []byte(fmt.Sprintf("relocate-%d", i))
		keys = append(keys, k)
		if ok, _ := storePut(s, st, k, []byte{byte(i)}); !ok {
			t.Fatalf("Put(%q) failed", k)
		}
		if st.stats.CuckooKicks.Value() > 0 {
			break
		}
	}
	if st.stats.CuckooKicks.Value() == 0 {
		t.Fatal("no relocation within 16 inserts into 16 slots")
	}
	// Every key still present must return its own value (relocation must
	// move payloads with tags, not just tags).
	found := 0
	for i, k := range keys {
		hit, got := storeGet(s, st, k)
		if hit {
			found++
			if !bytes.Equal(got, []byte{byte(i)}) {
				t.Fatalf("key %q returned %v, want %v", k, got, []byte{byte(i)})
			}
		}
	}
	used, _ := st.Occupancy()
	if found != used {
		t.Fatalf("found %d readable keys but occupancy says %d", found, used)
	}
}

func TestCuckooFullDirectoryEvicts(t *testing.T) {
	// Fill a 2-bucket x 1-way directory past capacity: inserts must keep
	// succeeding by evicting (cache semantics), never failing.
	s, st := newTestStore(t, StoreConfig{Sets: 2, Ways: 1, SlotBytes: 64})
	for i := 0; i < 8; i++ {
		k := []byte(fmt.Sprintf("key-%02d", i))
		if ok, _ := storePut(s, st, k, []byte{byte(i)}); !ok {
			t.Fatalf("Put(%q) failed on a full directory", k)
		}
	}
	used, total := st.Occupancy()
	if used > total {
		t.Fatalf("occupancy %d/%d", used, total)
	}
	if st.Stats().Puts.Value() != 8 {
		t.Fatalf("puts = %d, want 8", st.Stats().Puts.Value())
	}
}

func TestCuckooBucketsDiffer(t *testing.T) {
	_, st := newTestStore(t, StoreConfig{Sets: 8, Ways: 2, SlotBytes: 64})
	for i := 0; i < 256; i++ {
		h := keyHash([]byte(fmt.Sprintf("key-%d", i)))
		b1, b2 := st.buckets(h)
		if b1 == b2 {
			t.Fatalf("hash %x: candidate buckets collide (%d)", h, b1)
		}
		if st.altBucket(b1, h) != b2 || st.altBucket(b2, h) != b1 {
			t.Fatalf("hash %x: altBucket not an involution", h)
		}
	}
}

// TestCuckooFillsBeforeDisplacing bounds occupancy at the first
// displacement: inserting distinct keys into 16 buckets x 2 ways, the
// directory relocates residents until every one of its 32 slots is
// used before it evicts anything.
func TestCuckooFillsBeforeDisplacing(t *testing.T) {
	s, st := newTestStore(t, StoreConfig{Sets: 16, Ways: 2, SlotBytes: 64})
	fill := 0
	for st.Stats().Evictions.Value() == 0 && fill <= 4*32 {
		storePut(s, st, []byte(fmt.Sprintf("key-%04d", fill)), []byte("v"))
		fill++
	}
	// fill counts the insert that displaced; the ones before it fit.
	if fill-1 < 32 {
		t.Fatalf("first displacement after %d inserts, want all 32 slots used first", fill-1)
	}
	if used, _ := st.Occupancy(); used != 32 {
		t.Fatalf("occupancy %d/32 after the first displacement", used)
	}
}

// newPressuredStore builds a store over a DRAM controller that admits
// one transaction at a time, so a second concurrent access is rejected.
func newPressuredStore(t *testing.T, cfg StoreConfig) (*sim.Simulation, *Store) {
	t.Helper()
	s := sim.New(1)
	dc := dram.DefaultConfig()
	dc.QueueDepth = 1
	return s, NewStore(s, dram.New(s, dc), cfg)
}

// opResult records one op's completion.
type opResult struct {
	called, ok, evicted bool
}

func (r *opResult) op() *StoreOp {
	return &StoreOp{Done: func(o *StoreOp, ok bool, _ []byte) {
		r.called, r.ok, r.evicted = true, ok, o.Evicted
	}}
}

func TestStoreRejectedGetMisses(t *testing.T) {
	s, st := newPressuredStore(t, DefaultStoreConfig())
	key := []byte("key")
	if ok, _ := storePut(s, st, key, []byte("v")); !ok {
		t.Fatal("Put failed")
	}
	var first, second opResult
	st.Get(key, first.op()) // occupies the controller's only slot
	st.Get(key, second.op())
	if !second.called || second.ok {
		t.Fatalf("rejected Get: called=%v hit=%v, want an immediate miss", second.called, second.ok)
	}
	s.RunUntil(s.Now() + sim.Millisecond)
	if !first.ok {
		t.Fatal("admitted Get missed")
	}
	if got := st.Stats().Rejected.Value(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if got := st.Stats().Misses.Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}

func TestStoreRejectedPutInvalidates(t *testing.T) {
	s, st := newPressuredStore(t, DefaultStoreConfig())
	key := []byte("key")
	if ok, _ := storePut(s, st, key, []byte("v1")); !ok {
		t.Fatal("Put failed")
	}
	var get, put opResult
	st.Get(key, get.op()) // occupies the controller's only slot
	st.Put(key, []byte("v2"), put.op())
	if !put.called || put.ok {
		t.Fatalf("rejected Put: called=%v ok=%v, want an immediate !ok", put.called, put.ok)
	}
	s.RunUntil(s.Now() + sim.Millisecond)
	if hit, got := storeGet(s, st, key); hit {
		t.Fatalf("Get after a rejected overwrite hit %q; the tag must be invalidated", got)
	}
	if got := st.Stats().Rejected.Value(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// fillUntilChain fills an 8 x 1 directory until some fresh key's two
// buckets are both full but a relocation path exists for it. It returns
// the last key inserted and that fresh key.
func fillUntilChain(t *testing.T, s *sim.Simulation, st *Store) (resident, probe []byte) {
	t.Helper()
	for i := 0; probe == nil; i++ {
		if i == 8 {
			t.Fatal("no relocation candidate in an 8-slot directory")
		}
		resident = []byte(fmt.Sprintf("key-%02d", i))
		if ok, _ := storePut(s, st, resident, []byte("v")); !ok {
			t.Fatalf("Put(%q) failed", resident)
		}
		for j := 0; j < 64 && probe == nil; j++ {
			p := []byte(fmt.Sprintf("probe-%02d", j))
			b1, b2 := st.buckets(keyHash(p))
			if st.tags[b1].used && st.tags[b2].used && st.findPath(b1, b2) != nil {
				probe = p
			}
		}
	}
	return resident, probe
}

func TestStoreChainAbortsUnderPressure(t *testing.T) {
	s, st := newPressuredStore(t, StoreConfig{Sets: 8, Ways: 1, SlotBytes: 64})
	resident, probe := fillUntilChain(t, s, st)
	used, _ := st.Occupancy()

	var get, put opResult
	st.Get(resident, get.op()) // occupies the controller's only slot
	st.Put(probe, []byte("p"), put.op())
	s.RunUntil(s.Now() + sim.Millisecond)

	stats := st.Stats()
	if stats.CuckooAborts.Value() != 1 || stats.CuckooKicks.Value() != 0 {
		t.Fatalf("aborts=%d kicks=%d, want the chain aborted before its first move",
			stats.CuckooAborts.Value(), stats.CuckooKicks.Value())
	}
	if stats.Evictions.Value() != 1 || !put.evicted {
		t.Fatalf("evictions=%d put.Evicted=%v, want the abort counted as an eviction",
			stats.Evictions.Value(), put.evicted)
	}
	// The move read and the fallback write were both refused, so the Put
	// is refused and its landing slot left empty rather than stale.
	if !put.called || put.ok || stats.Rejected.Value() != 2 {
		t.Fatalf("put ok=%v rejected=%d, want !ok and 2 rejections", put.ok, stats.Rejected.Value())
	}
	if now, _ := st.Occupancy(); now != used-1 {
		t.Fatalf("occupancy %d, want %d", now, used-1)
	}
	if hit, _ := storeGet(s, st, probe); hit {
		t.Fatal("refused Put is readable")
	}
}

// TestCuckooMoveReservesDestination: while a relocation's copy is still
// landing, its destination is not free, so a Put that would otherwise
// claim that slot goes elsewhere instead of racing the copy. With one
// 8 KiB slot per DRAM row, the Put's write would be a row hit and land
// before the copy (a row miss), leaving the Put's tag over the moved
// entry's bytes.
func TestCuckooMoveReservesDestination(t *testing.T) {
	s, st := newTestStore(t, StoreConfig{Sets: 8, Ways: 1, SlotBytes: 8 << 10})
	_, probe := fillUntilChain(t, s, st)
	b1, b2 := st.buckets(keyHash(probe))
	path := st.findPath(b1, b2)
	dst := int(path[len(path)-1])

	var chained opResult
	writes := st.mem.Stats.Writes.Value()
	st.Put(probe, []byte("p"), chained.op())
	for st.mem.Stats.Writes.Value() == writes { // until the first copy is issued
		if !s.Step() {
			t.Fatal("the relocation never started its copy")
		}
	}
	// A fresh key whose primary bucket is the reserved destination.
	var fresh []byte
	for j := 0; fresh == nil; j++ {
		if j == 1024 {
			t.Fatal("no fresh key hashes to the destination bucket")
		}
		k := []byte(fmt.Sprintf("fresh-%03d", j))
		if b, _ := st.buckets(keyHash(k)); b == dst {
			fresh = k
		}
	}
	var put opResult
	st.Put(fresh, []byte("f"), put.op())
	s.RunUntil(s.Now() + sim.Millisecond)

	if !chained.ok || !put.ok {
		t.Fatalf("puts acked chained=%v fresh=%v", chained.ok, put.ok)
	}
	if hit, got := storeGet(s, st, fresh); !hit || string(got) != "f" {
		t.Fatalf("fresh key: hit=%v val=%q, want its acked value", hit, got)
	}
	if c := st.Stats().Collisions.Value(); c != 0 {
		t.Fatalf("collisions = %d: a tag points at another entry's bytes", c)
	}
}
