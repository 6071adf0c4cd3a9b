package netsim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// BenchmarkNetsimHotPath drives the serialization/propagation/forwarding
// hot path: a stream of UDP datagrams from one host to another across
// their shared TOR, measured per delivered frame. This is the per-hop
// cost every experiment pays for every frame.
//
// Recorded baseline before the decode-cache/pool/ScheduleCall overhaul:
// 1841 ns/op, 1847 B/op, 16 allocs/op.
func BenchmarkNetsimHotPath(b *testing.B) {
	s := sim.New(1)
	dc := NewDatacenter(s, DefaultConfig())
	a, c := dc.Host(0), dc.Host(1)
	got := 0
	c.RegisterUDP(9, func(f *pkt.Frame) { got++ })
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SendUDPRaw(c.IP(), 9, 9, pkt.ClassBestEffort, payload)
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
	if got != b.N {
		b.Fatalf("delivered %d/%d", got, b.N)
	}
}

// benchHotPath is the shared body for the observability on/off pair
// below; enable toggles obs before the datacenter is built.
func benchHotPath(b *testing.B, enable bool) {
	s := sim.New(1)
	if enable {
		obs.Enable(s)
	}
	dc := NewDatacenter(s, DefaultConfig())
	a, c := dc.Host(0), dc.Host(1)
	got := 0
	c.RegisterUDP(9, func(f *pkt.Frame) { got++ })
	payload := make([]byte, 1024)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SendUDPRaw(c.IP(), 9, 9, pkt.ClassBestEffort, payload)
		if i%64 == 63 {
			s.Run()
		}
	}
	s.Run()
	if got != b.N {
		b.Fatalf("delivered %d/%d", got, b.N)
	}
}

// BenchmarkNetsimHotPathObsOff is the disabled-observability guard: it is
// the same workload as BenchmarkNetsimHotPath with the obs instrumentation
// sites compiled in but the tracer nil, and must stay within 5% of the
// pre-obs baseline (837 ns/op). The per-frame cost of disabled tracing is
// a nil pointer compare at each site.
func BenchmarkNetsimHotPathObsOff(b *testing.B) { benchHotPath(b, false) }

// BenchmarkNetsimHotPathObsOn measures the same workload with tracing
// enabled (counters increment; the span buffer saturates at its limit and
// further spans are dropped-but-counted, which is the steady state of a
// long traced run).
func BenchmarkNetsimHotPathObsOn(b *testing.B) { benchHotPath(b, true) }

// BenchmarkNetsimNoise measures one background frame's whole life on
// the event-per-frame path that the eager reference keeps (eager_test.go):
// InjectNoise fills a pooled packet's view, the L1 port queues it and
// serializes it by an event, and it ends on the wire to the TOR, which
// counts it received and never sees it, and the packet is recycled.
// BenchmarkNoisePort measures the in-line path that replaced it.
func BenchmarkNetsimNoise(b *testing.B) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.HostsPerTOR, cfg.TORsPerPod, cfg.Pods = 1, 1, 1
	dc := NewDatacenter(s, cfg)
	dc.Host(0)
	l1 := dc.L1(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.InjectNoise(0, pkt.ClassRDMA, 1400)
		s.Run()
	}
	if got := l1.Port(0).Stats().TxFrames.Value(); got < uint64(b.N) {
		b.Fatalf("transmitted %d/%d noise frames", got, b.N)
	}
}

// BenchmarkNoisePort measures ns and allocs per background frame of a
// port's own noise process (noise.go) of 1400-byte frames: on a port that
// also carries real traffic (one LTL frame every 20 µs, each advancing
// the noise in line and waiting behind it), and on one that carries none,
// whose noise runs only when its counters are read. At 50% load most
// arrivals queue; at 5%, lb-noise's load, most find the port idle and run
// in a noise-only stretch.
func BenchmarkNoisePort(b *testing.B) {
	b.Run("real", func(b *testing.B) { benchNoiseReal(b, 0.5) })
	b.Run("idle", func(b *testing.B) { benchNoiseIdle(b, 0.5) })
	b.Run("real-5pct", func(b *testing.B) { benchNoiseReal(b, 0.05) })
	b.Run("idle-5pct", func(b *testing.B) { benchNoiseIdle(b, 0.05) })
}

// benchNoiseReal is BenchmarkNoisePort's port with real traffic at util.
func benchNoiseReal(b *testing.B, util float64) {
	s, port, k := noisyPort(util)
	real := realFrame(512)
	sent := 0
	b.ReportAllocs()
	b.ResetTimer()
	for port.stats.TxFrames.Value()-uint64(sent) < uint64(b.N) {
		if k.got == sent {
			port.Enqueue(real)
			sent++
		}
		s.RunFor(20 * sim.Microsecond)
	}
}

// benchNoiseIdle is BenchmarkNoisePort's port without real traffic at
// util.
func benchNoiseIdle(b *testing.B, util float64) {
	s, port, _ := noisyPort(util)
	b.ReportAllocs()
	b.ResetTimer()
	for port.Stats().TxFrames.Value() < uint64(b.N) {
		s.RunFor(sim.Millisecond)
	}
}
