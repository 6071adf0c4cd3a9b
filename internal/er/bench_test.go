package er

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// BenchmarkERMessage measures one 256 B message (8 flits) from the Role
// port to the Remote port through an otherwise idle 4x2 router: the
// uncontended on-fabric datagram hop.
func BenchmarkERMessage(b *testing.B) {
	s := sim.New(1)
	cfg := DefaultConfig()
	r := New(s, cfg)
	terms := make([]*Terminal, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		terms[p] = NewTerminal(s, r, p, p, 4*cfg.VCs)
	}
	n := 0
	terms[PortRemote].OnMessage = func(*Message) { n++ }
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		terms[PortRole].Send(PortRemote, 0, payload)
		s.RunFor(sim.Microsecond)
	}
	if n == 0 {
		b.Fatal("no deliveries")
	}
}

// BenchmarkERAllPorts loads every port of a 4x2 router at once: each
// iteration i, all four ports send a 256 B message, port p to output
// (i + p/2) mod 4 on VC i mod 2, so pairs of inputs contend for one
// output VC while the targets rotate through every output (U-turns
// included) and the VC alternates. It reports the switch cost per flit (ns/flit,
// allocs/flit), covering the arbitration and stall paths the one-flow
// BenchmarkERMessage leaves idle.
func BenchmarkERAllPorts(b *testing.B) {
	s := sim.New(1)
	cfg := DefaultConfig()
	r := New(s, cfg)
	terms := make([]*Terminal, cfg.Ports)
	n := 0
	for p := 0; p < cfg.Ports; p++ {
		terms[p] = NewTerminal(s, r, p, p, 4*cfg.VCs)
		terms[p].OnMessage = func(m *Message) {
			n++
			FreeMessage(m)
		}
	}
	payload := make([]byte, 256)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	flits := r.Stats.FlitsSwitched.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, t := range terms {
			t.Send((i+p/2)%cfg.Ports, i%2, payload)
		}
		s.RunFor(sim.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	if n != cfg.Ports*b.N {
		b.Fatalf("delivered %d of %d messages", n, cfg.Ports*b.N)
	}
	if r.Stats.StallConflict.Value() == 0 {
		b.Fatal("no switch contention")
	}
	f := float64(r.Stats.FlitsSwitched.Value() - flits)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/f, "ns/flit")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/f, "allocs/flit")
}
