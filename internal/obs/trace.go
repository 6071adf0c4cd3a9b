package obs

import "repro/internal/sim"

// SpanID indexes a span within one Tracer. Zero means "no span".
type SpanID uint32

// Span is one timed interval (or instantaneous event) on a flow.
// Start/End are virtual nanoseconds; End < 0 marks a span still open
// when the run finished (e.g. a request that never completed).
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Flow   FlowID `json:"flow"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Arg carries one span-specific integer: sequence number for
	// ltl.tx/rtx, queue depth for svclb.queue, node ID for haas spans,
	// port index for net.hop. Meaning is documented per span name in
	// OBSERVABILITY.md.
	Arg int64 `json:"arg,omitempty"`
}

// DefaultSpanLimit bounds spans captured per run. Telemetry keeps the
// first N spans (the window covers many complete early requests, which
// is what waterfall rendering wants) and counts the overflow in
// Dropped.
const DefaultSpanLimit = 8192

// Tracer records spans against a simulation's virtual clock. A nil
// *Tracer is the disabled tracer: every method no-ops, so instrumented
// code holds a possibly-nil pointer and calls it unconditionally.
//
// Span storage is an append-only slice; SpanID is index+1. There is no
// per-span allocation and no map: open spans are finished by ID.
type Tracer struct {
	sim     *sim.Simulation
	spans   []Span
	limit   int
	dropped uint64
}

// NewTracer returns a tracer with DefaultSpanLimit capacity bound.
func NewTracer(s *sim.Simulation) *Tracer {
	return &Tracer{sim: s, limit: DefaultSpanLimit}
}

// SetLimit overrides the span capture limit (spans beyond it are
// counted, not stored).
func (t *Tracer) SetLimit(n int) {
	if t != nil {
		t.limit = n
	}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a span on flow at the current virtual time and returns
// its ID (0 when the tracer is disabled or full).
func (t *Tracer) Start(flow FlowID, name string, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	return t.StartAt(flow, name, parent, int64(t.sim.Now()))
}

// StartAt is Start with an explicit start time (virtual ns), for spans
// whose beginning was noted before the tracer call (e.g. queue waits
// measured from an arrival timestamp).
func (t *Tracer) StartAt(flow FlowID, name string, parent SpanID, start int64) SpanID {
	if t == nil {
		return 0
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, Span{
		ID:     SpanID(len(t.spans) + 1),
		Parent: parent,
		Flow:   flow,
		Name:   name,
		Start:  start,
		End:    -1,
	})
	return SpanID(len(t.spans))
}

// End closes span id at the current virtual time. Ending span 0 or an
// already-ended span is a no-op.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	if sp.End < 0 {
		sp.End = int64(t.sim.Now())
	}
}

// EndArg closes span id and sets its Arg value.
func (t *Tracer) EndArg(id SpanID, arg int64) {
	if t == nil || id == 0 {
		return
	}
	sp := &t.spans[id-1]
	if sp.End < 0 {
		sp.End = int64(t.sim.Now())
		sp.Arg = arg
	}
}

// SetArg sets the Arg value of an open or closed span.
func (t *Tracer) SetArg(id SpanID, arg int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Arg = arg
}

// Event records an instantaneous span (Start == End) on flow.
func (t *Tracer) Event(flow FlowID, name string, parent SpanID, arg int64) {
	if t == nil {
		return
	}
	now := int64(t.sim.Now())
	id := t.StartAt(flow, name, parent, now)
	if id != 0 {
		sp := &t.spans[id-1]
		sp.End = now
		sp.Arg = arg
	}
}

// Range records a completed span covering [start, now].
func (t *Tracer) Range(flow FlowID, name string, parent SpanID, start int64, arg int64) {
	if t == nil {
		return
	}
	id := t.StartAt(flow, name, parent, start)
	if id != 0 {
		sp := &t.spans[id-1]
		sp.End = int64(t.sim.Now())
		sp.Arg = arg
	}
}

// Spans returns the captured spans in creation order. The slice is
// owned by the tracer; callers must not mutate it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Dropped returns how many spans were discarded after the capture limit
// was reached.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}
