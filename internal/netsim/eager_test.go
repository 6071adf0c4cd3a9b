package netsim

import (
	"repro/internal/pkt"
	"repro/internal/sim"
)

// This file keeps the event-per-frame background injector that the
// per-port noise process (noise.go) replaced, as the reference the lazy
// path is checked against: every arrival is a scheduled event that
// enqueues a frame through InjectNoise, and every noise frame is
// serialized by its own serializationDone event.

// InjectNoise enqueues one synthetic background frame (newNoisePacket)
// directly on egress port out, counting it as injected. On a port with no
// noise process of its own the frame is serialized by an event, like a
// real frame, and ends on the wire.
func (sw *Switch) InjectNoise(out int, class pkt.TrafficClass, size int) {
	sw.stats.Injected.Inc()
	sw.Port(out).Enqueue(newNoisePacket(class, size))
}

// scheduleEager draws every arrival of pr up to horizon and schedules
// each as an event that injects its frame on sw's port out. It draws
// exactly as the lazy process does (a size, then the next gap), so both
// see the same frames at the same instants.
//
// Scheduling every arrival before any other event is what makes the
// event order follow the tie rule (noise.go): at one instant, an
// arrival's event precedes any event scheduled later, and therefore every
// serialization end and every real operation the run schedules.
func scheduleEager(s *sim.Simulation, sw *Switch, out int, pr noiseProc, horizon sim.Time) {
	for pr.next <= horizon {
		at, size := pr.next, pr.drawSize()
		pr.next = at + pr.drawGap()
		class := pr.class
		s.Schedule(at-s.Now(), func() { sw.InjectNoise(out, class, size) })
	}
}
