package shard

import (
	"testing"

	"repro/internal/sim"
)

// benchGroup builds the standard coordination workload: four shards
// with dense local event chains plus a cross-shard token circling the
// ring. This prices the coordination + merge overhead a sharded run
// pays on top of raw event dispatch (BenchmarkSimKernelSchedule is the
// per-event floor).
func benchGroup() (*Group, sim.Time) {
	const look = sim.Time(500)
	g := NewGroup(1, 4)
	g.SetLookahead(look)
	for i := 0; i < g.N(); i++ {
		s := g.Sim(i)
		var tick func(any)
		tick = func(any) { s.ScheduleCall(100, tick, nil) }
		s.ScheduleCall(0, tick, nil)
	}
	// The token handler for shard i sends on shard i's own outbox: a
	// cross-shard event runs on the destination, so each hop's fn must
	// be the closure that owns the next leg's source-side state.
	outs := make([]*Outbox, g.N())
	for i := range outs {
		outs[i] = g.Outbox(i, (i+1)%g.N())
	}
	handlers := make([]func(any), g.N())
	for i := range handlers {
		i := i
		handlers[i] = func(any) { outs[i].Send(look, handlers[(i+1)%g.N()], nil) }
	}
	g.Sim(0).ScheduleCall(0, handlers[0], nil)
	return g, look
}

// BenchmarkShardGroupWindow prices one RunFor of ten lookahead windows
// over benchGroup.
func BenchmarkShardGroupWindow(b *testing.B) {
	g, look := benchGroup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RunFor(10 * look)
	}
	b.StopTimer()
	b.ReportMetric(float64(g.Rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(g.Fired())/float64(b.N), "events/op")
}
