package rpcnic

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkWireDecode measures the serialized-RPC decode the dispatcher
// performs per ingress datagram — the work offload moves off the host.
func BenchmarkRPCWireDecode(b *testing.B) {
	buf := AppendReq(nil, Req{Method: MethodHash, ID: 42, Args: make([]byte, 256)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReq(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatcherRun measures a full small deployment end to end in
// offload mode: callers, dispatch, backend work queues, and replies.
// ns/req and B/req normalize by the offered RPC count, so the figure
// tracks the per-request hot path rather than deployment construction.
func BenchmarkRPCDispatcherRun(b *testing.B) {
	b.ReportAllocs()
	var offered uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.Seed = int64(i + 1)
		cfg.Callers = 4
		cfg.Rate = 10000
		cfg.Backends = 3
		cfg.Spares = 0
		cfg.Duration = 4 * sim.Millisecond
		cfg.Drain = 2 * sim.Millisecond
		r := Run(cfg)
		if r.Completed == 0 {
			b.Fatal("no completions")
		}
		offered += r.Offered
	}
	if offered > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(offered), "ns/req")
	}
}
