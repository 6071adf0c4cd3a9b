package sim

import (
	"fmt"
	"strings"
)

// TraceEntry records one executed event.
type TraceEntry struct {
	At  Time
	Seq uint64
}

// String renders the entry.
func (t TraceEntry) String() string {
	return fmt.Sprintf("%12v #%d", t.At, t.Seq)
}

// EnableTrace starts recording the last n executed events in a ring
// buffer (n <= 0 disables). Tracing costs one append per event; leave it
// off in measurement runs and flip it on when debugging a model.
func (s *Simulation) EnableTrace(n int) {
	if n <= 0 {
		s.trace = nil
		s.traceCap = 0
		return
	}
	s.trace = make([]TraceEntry, 0, n)
	s.traceCap = n
	s.traceHead = 0
}

// Trace returns the recorded events, oldest first.
func (s *Simulation) Trace() []TraceEntry {
	if s.traceCap == 0 {
		return nil
	}
	if len(s.trace) < s.traceCap {
		return append([]TraceEntry(nil), s.trace...)
	}
	out := make([]TraceEntry, 0, s.traceCap)
	out = append(out, s.trace[s.traceHead:]...)
	out = append(out, s.trace[:s.traceHead]...)
	return out
}

// TraceString renders the trace for logs.
func (s *Simulation) TraceString() string {
	var b strings.Builder
	for _, e := range s.Trace() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// record appends an executed event to the ring.
func (s *Simulation) record(e *event) {
	if s.traceCap == 0 {
		return
	}
	entry := TraceEntry{At: e.at, Seq: e.tag >> tagShift}
	if len(s.trace) < s.traceCap {
		s.trace = append(s.trace, entry)
		return
	}
	s.trace[s.traceHead] = entry
	s.traceHead = (s.traceHead + 1) % s.traceCap
}
