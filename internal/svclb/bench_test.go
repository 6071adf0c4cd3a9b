package svclb

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSvcLBRequest serves one request end to end per op on the
// default pool with no background traffic: admission, routing, the
// client's PCIe hop, LTL to the backend, its queue, and the response
// back. Requests run one at a time, so allocs/op is what one request
// costs, plus the health polls that tick while it is in flight.
// BENCH_10.json holds its allocs/op ceiling.
func BenchmarkSvcLBRequest(b *testing.B) {
	cfg := DefaultConfig()
	cfg.BackgroundLoad = 0
	sv := NewService(cfg)
	defer sv.Stop()
	s := sv.Sim()
	completed := 0
	req := Request{Done: func(sim.Time) { completed++ }}
	serve := func(i int) {
		if _, ok := sv.Submit(i%sv.Clients(), req); !ok {
			b.Fatalf("request %d shed on an idle pool", i)
		}
		for want := completed + 1; completed < want; {
			s.Step()
		}
	}
	for i := 0; i < 256; i++ { // warm every pool and freelist
		serve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i)
	}
}
