package kvcache

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

// BenchmarkWireDecode measures the request decode the shard pipeline
// runs per datagram.
func BenchmarkKVWireDecode(b *testing.B) {
	buf := AppendReq(nil, Req{Op: OpPut, ID: 42, Key: MakeKey(7, 16), Val: MakeVal(7, 128)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReq(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures the directory probe + DRAM fetch per hit.
func BenchmarkKVStoreGet(b *testing.B) {
	s := sim.New(1)
	st := NewStore(s, dram.New(s, dram.DefaultConfig()), DefaultStoreConfig())
	key, val := MakeKey(1, 16), MakeVal(1, 128)
	put := &StoreOp{Done: func(_ *StoreOp, ok bool, _ []byte) {
		if !ok {
			b.Fatal("seed put failed")
		}
	}}
	st.Put(key, val, put)
	s.RunUntil(sim.Millisecond)
	op := &StoreOp{Done: func(_ *StoreOp, hit bool, _ []byte) {
		if !hit {
			b.Fatal("seeded key missed")
		}
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Get(key, op)
		s.RunUntil(s.Now() + 10*sim.Microsecond)
	}
}

// BenchmarkServiceRun measures a full small deployment end to end:
// simulated requests per wall-clock second across clients, ER, LTL
// datagrams, shard stores, and DRAM. ns/req and allocs/req normalize the
// end-to-end cost per simulated request so regressions in the hot path
// are visible regardless of iteration count.
func BenchmarkKVServiceRun(b *testing.B) {
	var reqs uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Clients = 4
		cfg.Shards = 2
		cfg.Spares = 0
		cfg.Duration = 4 * sim.Millisecond
		cfg.Drain = 2 * sim.Millisecond
		r := Run(cfg)
		if r.Completed == 0 {
			b.Fatal("no completions")
		}
		reqs += r.Offered
	}
	if reqs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/req")
	}
}
