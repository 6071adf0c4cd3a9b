package kvcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

// FuzzDecodeReq asserts the shard-side decoder never panics and that
// every accepted request re-encodes to an equivalent message.
func FuzzDecodeReq(f *testing.F) {
	f.Add(AppendReq(nil, Req{Op: OpGet, ID: 1, Key: []byte("key")}))
	f.Add(AppendReq(nil, Req{Op: OpPut, ID: 2, Key: []byte("key"), Val: []byte("value")}))
	f.Add(AppendReq(nil, Req{Op: OpPut, ID: 3, Key: bytes.Repeat([]byte{1}, MaxKeyBytes), Val: bytes.Repeat([]byte{2}, MaxValBytes)}))
	f.Add([]byte{})
	f.Add([]byte{OpGet, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReq(data)
		if err != nil {
			return
		}
		if len(r.Key) == 0 || len(r.Key) > MaxKeyBytes || len(r.Val) > MaxValBytes {
			t.Fatalf("accepted out-of-bounds request: %d key, %d val", len(r.Key), len(r.Val))
		}
		r2, err := DecodeReq(AppendReq(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if r2.Op != r.Op || r2.ID != r.ID || !bytes.Equal(r2.Key, r.Key) || !bytes.Equal(r2.Val, r.Val) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
	})
}

// FuzzDecodeResp mirrors FuzzDecodeReq for the client-side decoder.
func FuzzDecodeResp(f *testing.F) {
	f.Add(AppendResp(nil, Resp{Op: RespHit, ID: 1, Val: []byte("value")}))
	f.Add(AppendResp(nil, Resp{Op: RespMiss, ID: 2}))
	f.Add(AppendResp(nil, Resp{Op: RespError, ID: 3}))
	f.Add([]byte{RespHit, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResp(data)
		if err != nil {
			return
		}
		if len(r.Val) > MaxValBytes {
			t.Fatalf("accepted oversized value: %d", len(r.Val))
		}
		r2, err := DecodeResp(AppendResp(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted response failed: %v", err)
		}
		if r2.Op != r.Op || r2.ID != r.ID || !bytes.Equal(r2.Val, r.Val) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
	})
}

// FuzzDecodeMReq covers the batched multi-get request decoder: bad
// counts, truncated key tables, and per-key length fields running past
// the buffer must all reject cleanly, and accepted batches must survive
// a re-encode round trip key for key.
func FuzzDecodeMReq(f *testing.F) {
	f.Add(AppendMReq(nil, MReq{ID: 1, Keys: [][]byte{[]byte("key")}}))
	f.Add(AppendMReq(nil, MReq{ID: 2, Keys: [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}}))
	f.Add(AppendMReq(nil, MReq{ID: 3, Keys: func() [][]byte {
		ks := make([][]byte, MaxMultiKeys)
		for i := range ks {
			ks[i] = bytes.Repeat([]byte{byte(i)}, MaxKeyBytes)
		}
		return ks
	}()}))
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 0})                      // count 0
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, MaxMultiKeys + 1})       // count too large
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 3, 'k', 'e', 'y'}) // second key missing
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0xFF, 0xFF})          // key length past end
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0})                // zero-length key
	f.Fuzz(func(t *testing.T, data []byte) {
		var r MReq
		if err := DecodeMReq(data, &r); err != nil {
			return
		}
		if len(r.Keys) < 1 || len(r.Keys) > MaxMultiKeys {
			t.Fatalf("accepted out-of-range batch: %d keys", len(r.Keys))
		}
		for _, k := range r.Keys {
			if len(k) == 0 || len(k) > MaxKeyBytes {
				t.Fatalf("accepted out-of-bounds key: %d bytes", len(k))
			}
		}
		var r2 MReq
		if err := DecodeMReq(AppendMReq(nil, r), &r2); err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if r2.ID != r.ID || len(r2.Keys) != len(r.Keys) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
		for i := range r.Keys {
			if !bytes.Equal(r2.Keys[i], r.Keys[i]) {
				t.Fatalf("key %d mismatch after re-encode", i)
			}
		}
	})
}

// FuzzDecodeMResp mirrors FuzzDecodeMReq for the batched reply decoder,
// including hit entries whose value length disagrees with the buffer.
func FuzzDecodeMResp(f *testing.F) {
	f.Add(AppendMResp(nil, MResp{ID: 1, Hits: []bool{true}, Vals: [][]byte{[]byte("val")}}))
	f.Add(AppendMResp(nil, MResp{ID: 2, Hits: []bool{true, false, true},
		Vals: [][]byte{[]byte("v0"), nil, []byte("v2")}}))
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 0})                // count 0
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0xFF, 0xFF}) // value length past end
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0})       // second entry missing
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 2, 'v'})  // value truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeMResp(data)
		if err != nil {
			return
		}
		if len(r.Hits) < 1 || len(r.Hits) > MaxMultiKeys || len(r.Vals) != len(r.Hits) {
			t.Fatalf("accepted malformed batch reply: %d hits, %d vals", len(r.Hits), len(r.Vals))
		}
		for i, v := range r.Vals {
			if len(v) > MaxValBytes {
				t.Fatalf("accepted oversized value: %d bytes", len(v))
			}
			if !r.Hits[i] && len(v) != 0 {
				t.Fatalf("miss entry %d carries a value", i)
			}
		}
		r2, err := DecodeMResp(AppendMResp(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted reply failed: %v", err)
		}
		if r2.ID != r.ID || len(r2.Hits) != len(r.Hits) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
		for i := range r.Vals {
			if r2.Hits[i] != r.Hits[i] || !bytes.Equal(r2.Vals[i], r.Vals[i]) {
				t.Fatalf("entry %d mismatch after re-encode", i)
			}
		}
	})
}

// FuzzStoreOps checks the store's cache contract under overlapping
// traffic: a Get that hits returns the value of the last Put acked for
// that key, and a miss is always allowed. Ops on one key are serialized
// (each waits for the previous one's ack), ops on different keys
// overlap, and the directory is small enough for relocation chains,
// evictions and (at shallow DRAM queues) rejections to interleave with
// them. An odd mode overlaps Puts of one key too: each Put is a longer
// value followed at once by a shorter one, and a hit must then return
// some value a Put of that key wrote, never the shorter length read over
// the longer bytes. The keys' hashes are distinct, so no tag hit may be
// disproved by the DRAM key either.
func FuzzStoreOps(f *testing.F) {
	seen := map[uint64]bool{}
	for k := 0; k < maxStoreOpsKeys; k++ {
		h := keyHash(storeOpsKey(k))
		if seen[h] {
			f.Fatalf("key %q shares its hash with another key", storeOpsKey(k))
		}
		seen[h] = true
	}
	// seed, sets, ways, keys, slot, depth, mode: see storeOps for the ranges.
	f.Add(int64(1), uint8(0), uint8(0), uint8(16), uint8(0), uint8(62), uint8(0)) // 8x2, 18 keys, 64 B slots
	f.Add(int64(2), uint8(0), uint8(0), uint8(16), uint8(7), uint8(0), uint8(0))  // 8 KiB slots, 2-deep queue
	f.Add(int64(16), uint8(191), uint8(177), uint8(159), uint8(54), uint8(62), uint8(0))
	f.Add(int64(29), uint8(96), uint8(196), uint8(219), uint8(83), uint8(137), uint8(0))
	f.Add(int64(240), uint8(110), uint8(193), uint8(124), uint8(201), uint8(62), uint8(0))
	f.Add(int64(340), uint8(167), uint8(249), uint8(30), uint8(22), uint8(62), uint8(0))
	f.Add(int64(2059), uint8(94), uint8(127), uint8(184), uint8(143), uint8(198), uint8(0))
	f.Add(int64(-82), uint8(152), uint8(159), uint8(157), uint8(7), uint8(7), uint8(0))
	f.Add(int64(3), uint8(0), uint8(0), uint8(16), uint8(7), uint8(62), uint8(1)) // overlapping Puts, 8 KiB slots
	f.Fuzz(func(t *testing.T, seed int64, sets, ways, keys, slot, depth, mode uint8) {
		bad, hits, first, collisions := storeOps(seed, sets, ways, keys, slot, depth, mode)
		if bad > 0 {
			t.Fatalf("%d of %d hits broke the contract; first: %s", bad, hits, first)
		}
		if collisions > 0 {
			t.Fatalf("%d tag hits were disproved by the DRAM key, though no two keys share a hash", collisions)
		}
	})
}

// maxStoreOpsKeys bounds the keys one storeOps workload uses.
const maxStoreOpsKeys = 33

// storeOpsKey is the key storeOps uses for key index k.
func storeOpsKey(k int) []byte { return []byte(fmt.Sprintf("k%03d", k)) }

// storeOps runs one randomized workload: 8 or 16 buckets of 2 to 4 ways,
// 2 to 33 keys, 64 B to 8 KiB slots, a DRAM queue 2 to 64 deep, and
// overlapping Puts of one key when mode is odd. At 64 B one DRAM row
// holds the whole directory and every access is a row hit; at 8 KiB each
// slot is its own row, so a row hit issued after a row miss to the same
// slot would, without the controller's per-bank order, complete first.
// It returns the hits that broke the contract (see FuzzStoreOps), all
// hits, a description of the first bad hit, and the store's collisions.
func storeOps(seed int64, sets, ways, keys, slot, depth, mode uint8) (bad, hits int, first string, collisions uint64) {
	const opsPerKey = 64
	s := sim.New(seed)
	dc := dram.DefaultConfig()
	dc.QueueDepth = 2 + int(depth)%63
	st := NewStore(s, dram.New(s, dc), StoreConfig{
		Sets: 8 << (sets % 2), Ways: 2 + int(ways)%3, SlotBytes: 64 << (slot % 8),
	})
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(keys)%(maxStoreOpsKeys-1)
	overlap := mode%2 == 1
	acked := make([][]byte, n) // last acked value per key (nil: none)
	wrote := map[string]int{}  // every value a Put issued -> its key
	puts := 0
	var issue func(k, left int)
	issue = func(k, left int) {
		if left == 0 {
			return
		}
		next := func() {
			s.Schedule(sim.Time(rng.Intn(120))*sim.Nanosecond, func() { issue(k, left-1) })
		}
		key := storeOpsKey(k)
		if rng.Intn(3) == 0 {
			vals := 1
			if overlap {
				vals = 2
			}
			pending := vals
			for i := 0; i < vals; i++ {
				puts++
				v := fmt.Sprintf("v%06d-%d", puts, k)
				if i+1 < vals {
					v += strings.Repeat("+", 1+rng.Intn(16))
				}
				wrote[v] = k
				val := []byte(v)
				st.Put(key, val, &StoreOp{Done: func(_ *StoreOp, ok bool, _ []byte) {
					if ok {
						acked[k] = val
					}
					if pending--; pending == 0 {
						next()
					}
				}})
			}
			return
		}
		st.Get(key, &StoreOp{Done: func(_ *StoreOp, hit bool, val []byte) {
			if hit {
				hits++
				ok := bytes.Equal(val, acked[k])
				if overlap {
					wk, found := wrote[string(val)]
					ok = found && wk == k
				}
				if !ok {
					if bad == 0 {
						first = fmt.Sprintf("t=%d %s got %q, last acked %q", s.Now(), key, val, acked[k])
					}
					bad++
				}
			}
			next()
		}})
	}
	for k := 0; k < n; k++ {
		k := k
		s.Schedule(sim.Time(rng.Intn(200))*sim.Nanosecond, func() { issue(k, opsPerKey) })
	}
	s.Run()
	return bad, hits, first, st.Stats().Collisions.Value()
}
