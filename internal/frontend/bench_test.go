package frontend_test

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/frontend"
	"repro/internal/loadgen"
	"repro/internal/sim"
)

// BenchmarkFrontendReplay plays one fixed replay script (rank, dnn and
// kv; no fabric noise) over httptest: per op, a fresh service, the whole
// script in flight at once, and the clean shutdown. It reports wall time
// and allocations per scripted request, server and client together.
func BenchmarkFrontendReplay(b *testing.B) {
	script := loadgen.ScriptMix(9, 4000, 25*sim.Millisecond, []loadgen.Mix{
		{Pipeline: "rank", Weight: 0.4}, {Pipeline: "dnn", Weight: 0.3}, {Pipeline: "kv", Weight: 0.3},
	})
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.Replay
	cfg.Expect = len(script)
	cfg.BackgroundLoad = 0
	cfg.KV.Enabled = true

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frontend.New(cfg)
		srv := httptest.NewServer(frontend.NewHandler(f))
		res := loadgen.Run(loadgen.Config{BaseURL: srv.URL, Clients: 4}, script)
		srv.Close()
		f.Close()
		if res.Lost != 0 || res.Dup != 0 || res.Errors != 0 || res.OK+res.Shed != res.Sent {
			b.Fatalf("conservation violated: %+v", res)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	reqs := float64(b.N * len(script))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reqs, "allocs/req")
}
