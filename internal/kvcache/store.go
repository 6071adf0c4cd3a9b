package kvcache

import (
	"bytes"
	"fmt"

	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// StoreConfig sizes one shard's cache: a tag directory held in role SRAM,
// with key+value payloads in the board's DRAM channel, whose controller
// the store calls directly. The directory is arrays, not Go maps —
// iteration order can never leak into the model, mirroring the fixed
// comparator tree a hardware lookup would be.
//
// The directory is a 2-hash cuckoo table: every key has two candidate
// buckets of Ways slots, and an insert that finds both full relocates
// residents along a bounded BFS path before giving up and evicting.
// Relocation trades insert-time DRAM moves for a flatter collision
// curve, i.e. higher usable occupancy at the same capacity.
type StoreConfig struct {
	// Sets x Ways is the directory geometry (buckets x slots per bucket).
	// Sets is rounded up to a power of two for the partner-bucket XOR.
	Sets, Ways int
	// SlotBytes is the DRAM arena reserved per directory slot (key
	// followed by value; an entry larger than this is rejected). The
	// arena starts at DRAM address 0.
	SlotBytes int
}

// cuckooKicks bounds the BFS relocation path length per insert.
const cuckooKicks = 8

// DefaultStoreConfig sizes a shard at 1024 sets x 4 ways x 1 KiB slots —
// a 4 MiB DRAM arena behind a 4K-entry SRAM directory.
func DefaultStoreConfig() StoreConfig {
	return StoreConfig{Sets: 1024, Ways: 4, SlotBytes: 1 << 10}
}

// StoreStats aggregates per-shard cache counters.
type StoreStats struct {
	Hits       metrics.Counter
	Misses     metrics.Counter
	Puts       metrics.Counter
	Evictions  metrics.Counter // valid entry displaced by a Put
	Collisions metrics.Counter // tag matched but DRAM key differed (hash alias)
	Rejected   metrics.Counter // DRAM queue full: served as miss / dropped put

	CuckooKicks  metrics.Counter // resident entries relocated by inserts
	CuckooAborts metrics.Counter // relocation chains invalidated mid-flight
}

// StoreOp is one pooled per-request completion context. Done fires
// exactly once with (op, ok, val): for Get, ok means hit and val aliases
// a reused DRAM buffer valid only for the duration of the call; for Put,
// ok means the entry was accepted (val is nil) and Evicted reports
// whether a resident entry was displaced. Ops are pooled by their owner
// (the Shard), which is why completion carries the op back: the Done
// callback is a static function, not a per-request closure.
type StoreOp struct {
	Done func(op *StoreOp, ok bool, val []byte)

	Evicted bool

	// Caller context, opaque to the store.
	Shard *Shard
	ID    uint64
	From  int
	Kind  byte
	Span  obs.SpanID

	// Multi-get accumulation state (shard-owned, see mgetStep).
	keys    []byte // concatenated key bytes, copied out of the request
	keyOffs []int  // len(keys) prefix offsets; keyOffs[i+1]-keyOffs[i] = len(key i)
	keyIdx  int
	reply   []byte // reply datagram under construction
}

// Store is one shard's DRAM-backed cache. Every key hashes to two
// buckets (b2 = b1 XOR a second hash of the key, the standard
// partner-bucket trick), so a lookup probes 2 x Ways slots. An insert
// that finds both buckets full relocates residents along a BFS-shortest
// path of at most cuckooKicks moves; each move is a real DRAM read+write
// of the resident's slot. When no path exists within the bound, the
// insert evicts the LRU way of the primary bucket (cache semantics:
// occupancy pressure costs hit rate, never correctness).
type Store struct {
	mem  *dram.Controller
	cfg  StoreConfig
	mask uint64 // Sets-1 (Sets is a power of two)
	tags []tagEntry
	tick uint64

	// opFree pools the per-request DRAM state; wbuf is the reused
	// key+value concatenation buffer for writes (the DRAM controller
	// copies it synchronously).
	opFree []*dramOp
	wbuf   []byte

	// BFS scratch, reused across inserts.
	bfsSlot []int32 // visited slot ids in visit order
	bfsPrev []int32 // parent index in bfsSlot (-1 = root)

	stats StoreStats
}

// tagEntry is one SRAM directory slot (fields ordered to pack into 32
// bytes). gen changes whenever an entry is written or moved into the
// slot, so a relocation chain can tell that the slot it is copying from
// changed under it. The DRAM controller completes accesses to one slot
// in issue order, so the tag may describe a write from the moment it is
// issued: any later read or write of the slot lands after it.
type tagEntry struct {
	hash   uint64
	last   uint64 // LRU clock at last touch
	gen    uint32
	keyLen uint16
	valLen uint16
	used   bool
}

// dramOp carries one in-flight store operation: a Get's DRAM confirm, a
// fast-path Put write, or a relocation chain (read resident, write it to
// its partner bucket, repeat up the path, finally write the new entry).
// The key is copied in (the request buffer is recycled long before the
// DRAM transaction completes).
type dramOp struct {
	st      *Store
	op      *StoreOp
	key     []byte
	val     []byte
	kl, vl  int
	evicted bool

	// Relocation chain state: path[0] is the slot the new entry lands
	// in; path[i+1] is where path[i]'s resident moves to. idx walks from
	// the end (the free slot) backwards. gen is the source's generation
	// when the current move's read was issued.
	path []int32
	idx  int
	gen  uint32
}

// NewStore builds a store over mem. Sets is rounded up to a power of two
// (the partner bucket is b XOR h2); the arena [0, Sets*Ways*SlotBytes)
// must fit the controller's capacity.
func NewStore(s *sim.Simulation, mem *dram.Controller, cfg StoreConfig) *Store {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.SlotBytes <= 0 {
		panic(fmt.Sprintf("kvcache: invalid store config %+v", cfg))
	}
	sets := 1
	for sets < cfg.Sets {
		sets <<= 1
	}
	cfg.Sets = sets
	st := &Store{
		mem: mem, cfg: cfg, mask: uint64(sets - 1),
		tags: make([]tagEntry, sets*cfg.Ways),
	}
	if reg := obs.RegistryOf(s); reg != nil {
		reg.Counter("kvcache.store_hits", "reqs", "kvcache", "GETs answered from the cache", &st.stats.Hits)
		reg.Counter("kvcache.store_misses", "reqs", "kvcache", "GETs not present", &st.stats.Misses)
		reg.Counter("kvcache.store_puts", "reqs", "kvcache", "PUTs applied", &st.stats.Puts)
		reg.Counter("kvcache.store_evictions", "entries", "kvcache", "valid entries displaced by PUTs", &st.stats.Evictions)
		reg.Counter("kvcache.store_collisions", "reqs", "kvcache", "tag hits disproved by the DRAM key", &st.stats.Collisions)
		reg.Counter("kvcache.store_rejected", "reqs", "kvcache", "DRAM queue-full rejections", &st.stats.Rejected)
		reg.Counter("kvcache.cuckoo_kicks", "entries", "kvcache", "resident entries relocated by inserts", &st.stats.CuckooKicks)
		reg.Counter("kvcache.cuckoo_aborts", "chains", "kvcache", "relocation chains invalidated mid-flight", &st.stats.CuckooAborts)
	}
	return st
}

// Stats exposes the counter block.
func (st *Store) Stats() *StoreStats { return &st.stats }

// Occupancy reports used and total directory slots.
func (st *Store) Occupancy() (used, total int) {
	for i := range st.tags {
		if st.tags[i].used {
			used++
		}
	}
	return used, len(st.tags)
}

// altHash mixes h into the partner-bucket offset. It must be nonzero so
// the two candidate buckets always differ (splitmix64 finalizer).
func (st *Store) altHash(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	o := h & st.mask
	if o == 0 {
		o = 1
	}
	return o
}

func (st *Store) buckets(h uint64) (int, int) {
	b1 := int(h & st.mask)
	return b1, st.altBucket(b1, h)
}

// altBucket returns the partner bucket of bucket b for hash h.
func (st *Store) altBucket(b int, h uint64) int {
	return int((uint64(b) ^ st.altHash(h)) & st.mask)
}

func (st *Store) slotAddr(slot int) int64 {
	return int64(slot * st.cfg.SlotBytes)
}

func (st *Store) allocOp() *dramOp {
	if n := len(st.opFree); n > 0 {
		o := st.opFree[n-1]
		st.opFree = st.opFree[:n-1]
		return o
	}
	return &dramOp{st: st}
}

func (st *Store) freeOp(o *dramOp) {
	o.op = nil
	o.evicted = false
	o.path = o.path[:0]
	st.opFree = append(st.opFree, o)
}

// getDone completes a Get's DRAM confirm read.
func getDone(arg any, data []byte) {
	o := arg.(*dramOp)
	st, op := o.st, o.op
	if !bytes.Equal(data[:o.kl], o.key) {
		st.stats.Collisions.Inc()
		st.stats.Misses.Inc()
		st.freeOp(o)
		op.Done(op, false, nil)
		return
	}
	st.stats.Hits.Inc()
	val := data[o.kl : o.kl+o.vl]
	st.freeOp(o)
	op.Done(op, true, val)
}

// Get looks key up: an SRAM probe of both candidate buckets, then (on a
// tag hit) a DRAM read of the slot to fetch the value and disprove hash
// aliases. op.Done fires exactly once; hit=false covers absent keys,
// aliases, and DRAM pressure rejections alike — a cache never owes an
// answer, only speed. The key is only read during the call, so callers
// may reuse its buffer immediately.
func (st *Store) Get(key []byte, op *StoreOp) {
	h := keyHash(key)
	b1, b2 := st.buckets(h)
	st.tick++
	for _, b := range [2]int{b1, b2} {
		for w := 0; w < st.cfg.Ways; w++ {
			slot := b*st.cfg.Ways + w
			e := &st.tags[slot]
			if !e.used || e.hash != h || int(e.keyLen) != len(key) {
				continue
			}
			e.last = st.tick
			o := st.allocOp()
			o.op = op
			o.key = append(o.key[:0], key...)
			o.kl, o.vl = int(e.keyLen), int(e.valLen)
			if err := st.mem.ReadCall(st.slotAddr(slot), o.kl+o.vl, getDone, o); err != nil {
				st.stats.Rejected.Inc()
				st.stats.Misses.Inc()
				st.freeOp(o)
				op.Done(op, false, nil)
			}
			return
		}
	}
	st.stats.Misses.Inc()
	op.Done(op, false, nil)
}

// putDone completes the final (new-entry) DRAM write of a Put.
func putDone(arg any, _ []byte) {
	o := arg.(*dramOp)
	st, op, evicted := o.st, o.op, o.evicted
	st.stats.Puts.Inc()
	st.freeOp(o)
	op.Evicted = evicted
	op.Done(op, true, nil)
}

// writeEntry writes key=val into slot: the tag updates at once, and the
// Put acks when the DRAM write lands. A valid entry of another key in the
// slot counts as evicted. When the controller rejects the write, the Put
// is refused (acked !ok, counted as Rejected) and the tag invalidated
// rather than left pointing at unwritten DRAM.
func (st *Store) writeEntry(o *dramOp, slot int, h uint64, key, val []byte) {
	e := &st.tags[slot]
	if e.used && (e.hash != h || int(e.keyLen) != len(key)) {
		st.stats.Evictions.Inc()
		o.evicted = true
	}
	e.gen++
	st.wbuf = append(append(st.wbuf[:0], key...), val...)
	if err := st.mem.WriteCall(st.slotAddr(slot), st.wbuf, putDone, o); err != nil {
		e.used = false
		st.refuse(o)
		return
	}
	e.used = true
	e.hash = h
	e.keyLen = uint16(len(key))
	e.valLen = uint16(len(val))
	e.last = st.tick
}

// refuse acks a Put the store could not write.
func (st *Store) refuse(o *dramOp) {
	st.stats.Rejected.Inc()
	op, evicted := o.op, o.evicted
	st.freeOp(o)
	op.Evicted = evicted
	op.Done(op, false, nil)
}

// Put inserts or overwrites key=val with Get's aliasing contract. An
// overwrite or a free way in either bucket costs one DRAM write; a full
// pair of buckets triggers the BFS relocation chain. op.Done fires
// exactly once with ok=false when the entry is too large for a slot or
// the DRAM controller rejected the write; Evicted reports whether a
// resident entry was displaced.
func (st *Store) Put(key, val []byte, op *StoreOp) {
	if len(key)+len(val) > st.cfg.SlotBytes {
		op.Evicted = false
		op.Done(op, false, nil)
		return
	}
	h := keyHash(key)
	b1, b2 := st.buckets(h)
	st.tick++

	// Overwrite an existing entry for the same hash/keyLen first.
	for _, b := range [2]int{b1, b2} {
		for w := 0; w < st.cfg.Ways; w++ {
			slot := b*st.cfg.Ways + w
			e := &st.tags[slot]
			if e.used && e.hash == h && int(e.keyLen) == len(key) {
				o := st.allocOp()
				o.op = op
				st.writeEntry(o, slot, h, key, val)
				return
			}
		}
	}
	// Then a free way in either bucket (primary first, like the paper's
	// d-ary cuckoo insert).
	for _, b := range [2]int{b1, b2} {
		for w := 0; w < st.cfg.Ways; w++ {
			slot := b*st.cfg.Ways + w
			if !st.tags[slot].used {
				o := st.allocOp()
				o.op = op
				st.writeEntry(o, slot, h, key, val)
				return
			}
		}
	}
	// Both buckets full: BFS for the shortest relocation chain.
	if path := st.findPath(b1, b2); path != nil {
		o := st.allocOp()
		o.op = op
		o.key = append(o.key[:0], key...)
		o.val = append(o.val[:0], val...)
		o.path = append(o.path[:0], path...)
		o.idx = len(o.path) - 1
		st.moveNext(o)
		return
	}
	// No path within the kick bound: evict the primary bucket's LRU way.
	way, lru := 0, uint64(1<<63-1)
	for w := 0; w < st.cfg.Ways; w++ {
		if e := &st.tags[b1*st.cfg.Ways+w]; e.last < lru {
			lru, way = e.last, w
		}
	}
	o := st.allocOp()
	o.op = op
	st.writeEntry(o, b1*st.cfg.Ways+way, h, key, val)
}

// findPath BFS-searches for a chain slot_0 <- slot_1 <- ... <- slot_k
// where slot_k's partner bucket has a free way, k < cuckooKicks, and
// slot_0 is in one of the insert's candidate buckets. It returns the
// slot ids, ending with the free slot the chain drains into.
func (st *Store) findPath(b1, b2 int) []int32 {
	st.bfsSlot = st.bfsSlot[:0]
	st.bfsPrev = st.bfsPrev[:0]
	for _, b := range [2]int{b1, b2} {
		for w := 0; w < st.cfg.Ways; w++ {
			st.bfsSlot = append(st.bfsSlot, int32(b*st.cfg.Ways+w))
			st.bfsPrev = append(st.bfsPrev, -1)
		}
	}
	// Depth-tracking: nodes [lo, hi) are the current BFS level.
	lo, hi := 0, len(st.bfsSlot)
	for depth := 0; depth < cuckooKicks && lo < hi; depth++ {
		for i := lo; i < hi; i++ {
			slot := int(st.bfsSlot[i])
			e := &st.tags[slot]
			alt := st.altBucket(slot/st.cfg.Ways, e.hash)
			// A free way in the resident's partner bucket ends the search.
			for w := 0; w < st.cfg.Ways; w++ {
				dst := alt*st.cfg.Ways + w
				if !st.tags[dst].used {
					path := []int32{int32(dst)}
					for j := i; j >= 0; j = int(st.bfsPrev[j]) {
						path = append(path, st.bfsSlot[j])
					}
					// Reverse into insert-order: path[0] = candidate
					// bucket slot, ..., path[len-1] = free slot.
					for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
						path[a], path[b] = path[b], path[a]
					}
					return path
				}
			}
			// Otherwise the partner bucket's residents are the next level.
			if len(st.bfsSlot) < 4*st.cfg.Sets { // frontier bound
				for w := 0; w < st.cfg.Ways; w++ {
					st.bfsSlot = append(st.bfsSlot, int32(alt*st.cfg.Ways+w))
					st.bfsPrev = append(st.bfsPrev, int32(i))
				}
			}
		}
		lo, hi = hi, len(st.bfsSlot)
	}
	return nil
}

// moveNext relocates the resident of path[idx-1] into path[idx] (a slot
// known free when the chain was planned), walking idx toward the head of
// the path; when idx reaches 0 the new entry is written into path[0].
// Chains interleave with other traffic at DRAM latency, so each step
// re-validates its source and destination and aborts the chain into a
// plain LRU eviction when the directory moved underneath it.
func (st *Store) moveNext(o *dramOp) {
	if o.idx == 0 {
		st.writeEntry(o, int(o.path[0]), keyHash(o.key), o.key, o.val)
		return
	}
	src, dst := int(o.path[o.idx-1]), int(o.path[o.idx])
	se, de := &st.tags[src], &st.tags[dst]
	if !se.used || de.used || st.altBucket(src/st.cfg.Ways, se.hash) != dst/st.cfg.Ways {
		st.abortChain(o)
		return
	}
	o.kl, o.vl, o.gen = int(se.keyLen), int(se.valLen), se.gen
	if err := st.mem.ReadCall(st.slotAddr(src), o.kl+o.vl, moveRead, o); err != nil {
		st.stats.Rejected.Inc()
		st.abortChain(o)
	}
}

// moveRead has the resident's bytes; copy them into the destination and
// move the tag with the copy's write, which lands before any later access
// to the destination. A source written since the read was issued (an
// overwrite of the same key, or another entry landing there) holds newer
// bytes than data, so the chain aborts rather than resurrect the old
// value; so does a destination claimed meanwhile.
func moveRead(arg any, data []byte) {
	o := arg.(*dramOp)
	st := o.st
	src, dst := int(o.path[o.idx-1]), int(o.path[o.idx])
	se, de := &st.tags[src], &st.tags[dst]
	if !se.used || se.gen != o.gen || de.used {
		st.abortChain(o)
		return
	}
	if err := st.mem.WriteCall(st.slotAddr(dst), data, moveWrite, o); err != nil {
		st.stats.Rejected.Inc()
		st.abortChain(o)
		return
	}
	gen := de.gen + 1
	*de = *se
	de.gen = gen
	se.used = false
}

// moveWrite continues up the chain once a relocation's copy has landed.
func moveWrite(arg any, _ []byte) {
	o := arg.(*dramOp)
	o.st.stats.CuckooKicks.Inc()
	o.idx--
	o.st.moveNext(o)
}

// abortChain gives up on a relocation chain (directory changed or DRAM
// pressure) and falls back to evicting the primary candidate slot.
func (st *Store) abortChain(o *dramOp) {
	st.stats.CuckooAborts.Inc()
	st.writeEntry(o, int(o.path[0]), keyHash(o.key), o.key, o.val)
}
