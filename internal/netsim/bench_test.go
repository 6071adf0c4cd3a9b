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

// BenchmarkNetsimNoise measures one background frame's whole life, the
// fabric's per-hop cost for synthetic cross traffic: InjectNoise encodes
// it into a pooled packet, the L1 port queues and serializes it, and it
// propagates to the TOR, which drops it for want of a route and recycles
// the packet.
func BenchmarkNetsimNoise(b *testing.B) {
	s, l1 := noiseFabric()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.InjectNoise(0, pkt.ClassRDMA, 1400)
		s.Run()
	}
	if got := l1.Port(0).Stats.TxFrames.Value(); got < uint64(b.N) {
		b.Fatalf("transmitted %d/%d noise frames", got, b.N)
	}
}
