package sim

import "testing"

// BenchmarkSimKernelSchedule is the kernel microbenchmark the scheduler
// overhaul is judged by: a self-scheduling event population (the netsim
// steady-state shape — every fired event schedules its successor a short,
// varying delay ahead) measured in events/sec and allocs/event. It drives
// the ScheduleCall freelist path, which is what the netsim hot path uses.
//
// Recorded baseline on the old binary-heap kernel (closure Schedule, the
// only path it had): 144.0 ns/op, 64 B/op, 1 allocs/op.
func BenchmarkSimKernelSchedule(b *testing.B) {
	const width = 64 // concurrent event population
	s := New(1)
	type state struct {
		s *Simulation
		n int
		N int
	}
	st := &state{s: s, N: b.N}
	var tick func(any)
	tick = func(v any) {
		st := v.(*state)
		st.n++
		if st.n < st.N {
			st.s.ScheduleCall(Time(37+st.n%1000), tick, st)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width && i < b.N; i++ {
		st.n++
		s.ScheduleCall(Time(i%97), tick, st)
	}
	s.Run()
	if st.n < b.N {
		b.Fatalf("fired %d events, want >= %d", st.n, b.N)
	}
}

// BenchmarkSimKernelScheduleClosure is the same workload through the
// closure Schedule adapter; its events are pooled like ScheduleCall's.
func BenchmarkSimKernelScheduleClosure(b *testing.B) {
	const width = 64
	s := New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.Schedule(Time(37+n%1000), tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width && i < b.N; i++ {
		n++
		s.Schedule(Time(i%97), tick)
	}
	s.Run()
	if n < b.N {
		b.Fatalf("fired %d events, want >= %d", n, b.N)
	}
}

// BenchmarkSimKernelMixedHorizon stresses the queue with delays spanning
// nanoseconds to seconds (the shell scrub timers next to wire events),
// which on the wheel exercises multi-level cascades.
func BenchmarkSimKernelMixedHorizon(b *testing.B) {
	s := New(1)
	delays := []Time{3, 250, 7 * Microsecond, 300 * Microsecond, 40 * Millisecond, 2 * Second}
	type state struct {
		s *Simulation
		n int
		N int
	}
	st := &state{s: s, N: b.N}
	var tick func(any)
	tick = func(v any) {
		st := v.(*state)
		st.n++
		if st.n < st.N {
			st.s.ScheduleCall(delays[st.n%len(delays)], tick, st)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 16 && i < b.N; i++ {
		st.n++
		s.ScheduleCall(delays[i%len(delays)], tick, st)
	}
	s.Run()
}

// BenchmarkSimKernelCancel measures schedule+cancel churn (the LTL
// retransmit-timer pattern: almost every armed timer is cancelled).
// Cancel is a lazy tombstone; the periodic Run drains the corpses.
func BenchmarkSimKernelCancel(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(Time(50+i%128), fn)
		s.Cancel(e)
		if i%256 == 0 {
			s.Run()
		}
	}
	s.Run()
}
