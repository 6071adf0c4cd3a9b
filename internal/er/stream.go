package er

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// A stream carries one message through an otherwise idle router without
// an event per flit. It starts when a Terminal sends into a router that
// holds no flit, has no cycle pending and no flit on a link, routes to
// another Terminal, and has no tracer attached. Three facts make the
// per-flit schedule a closed form from the send instant t0:
//
//   - the router switches one flit per cycle, at t0+P, t0+2P, ... (P is
//     the clock period), because no other FIFO competes;
//   - a terminal returns each credit two cycles after its flit switched,
//     so an output with at least two credits on the VC never stalls
//     (three while the sender's queue still refills the FIFO, since that
//     credit lands after the cycle's tick instead of before it);
//   - each switch returns the sender a credit at once, and the sender
//     injects its next queued flit in the same cycle.
//
// Edge k (instant t0+kP) carries the tick that switches flit k-1, the
// delivery of flit k-2 and the credit of flit k-3. Tick n+1 finds the
// router empty and does not rearm; the last credit, at edge n+2, wakes
// one more idle tick at edge n+3. The stream schedules one event at edge
// n, which schedules the tail's delivery at edge n+1, so the delivery is
// queued at the instant the per-flit router would have queued it.
//
// Everything else is caught up arithmetically when something reaches
// the router (catchUp): a Send on any of its terminals, a credit return,
// a Stats read, a registry snapshot. A caller that fires on the exact
// instant of an edge comes after that edge's work only if it was
// scheduled after the edge's work was (one clock period earlier): see
// sim.ScheduledAt. A send that would contend with the stream turns it
// into flit-level state at that exact point (materialize), and the
// per-flit router carries on.
type stream struct {
	r        *Router
	t0       sim.Time
	n, k0    int // flits; flits injected at t0 (the rest wait for credits)
	src, dst *Terminal
	in, out  int
	vc       int
	dstNode  int
	msgID    uint64
	msg      *Message  // the payload, delivered whole at the tail
	ev       sim.Timer // the pending edge-n or tail-delivery event
	tailDone bool      // the tail's delivery event has fired

	// Progress applied to the router and terminals so far: passed edges,
	// flits switched, flits injected, credits returned, ticks.
	e, sw, inj, cr, ticks int
}

// lazyState is a router's stream machinery: the stream's storage, owed
// credits, and the late events materialize scheduled, in firing order,
// with a freelist for them.
type lazyState struct {
	buf    stream
	owed   []owedCredit
	late   []*lateEvent
	free   []*lateEvent
	inLate bool // a late event is running
}

// owedCredit is a credit a finished stream returns after the next stream
// started; it lands while that stream ticks, so it wakes nothing.
type owedCredit struct {
	at   sim.Time
	term *Terminal
	vc   int
}

// lateEvent is a flit-level event materialize scheduled after the instant
// the per-flit router would have scheduled it (one period before at).
type lateEvent struct {
	r    *Router
	tm   sim.Timer
	at   sim.Time
	call func(any)
	arg  any
}

func fireLateEvent(v any) {
	e := v.(*lateEvent)
	e.r.popLate()
	e.r.runLate(e)
}

// runLate runs a late event and recycles it. It fires in its place among
// the other late events, so none of them is overdue to it.
func (r *Router) runLate(e *lateEvent) {
	call, arg := e.call, e.arg
	*e = lateEvent{}
	r.lz.free = append(r.lz.free, e)
	r.lz.inLate = true
	call(arg)
	r.lz.inLate = false
}

// Counter is a router counter. Reading it first brings the router up to
// the current instant, so a stream's flits count once they have switched.
type Counter struct {
	metrics.Counter
	r *Router
}

// Value catches the router up and returns the count.
func (c *Counter) Value() uint64 {
	c.r.enter()
	return c.Counter.Value()
}

// Gauge is a router gauge that catches the router up when read.
type Gauge struct {
	metrics.Gauge
	r *Router
}

// Value catches the router up and returns the current value.
func (g *Gauge) Value() int64 {
	g.r.enter()
	return g.Gauge.Value()
}

// Watermark catches the router up and returns the maximum value.
func (g *Gauge) Watermark() int64 {
	g.r.enter()
	return g.Gauge.Watermark()
}

// enter brings the router up to the instant of the caller: a stream is
// caught up, and flit-level events materialize scheduled late that the
// per-flit router would already have fired run first.
func (r *Router) enter() {
	if r == nil {
		return
	}
	if r.str != nil {
		r.catchUp()
	} else if r.lz != nil && len(r.lz.late) > 0 {
		r.fireLate()
	}
}

// after reports whether the caller comes after work the per-flit router
// would have scheduled one period ago for this instant.
func (r *Router) after() bool {
	return r.sim.ScheduledAt() > r.sim.Now()-r.cfg.ClockPeriod
}

// fireLate runs, in order, each late event due now that the per-flit
// router would have fired before the caller.
func (r *Router) fireLate() {
	for len(r.lz.late) > 0 && !r.lz.inLate {
		e := r.lz.late[0]
		if e.at != r.sim.Now() || !r.after() {
			return
		}
		r.sim.Cancel(e.tm)
		r.popLate()
		r.runLate(e)
	}
}

// popLate drops the first late event, keeping the slice's capacity.
func (r *Router) popLate() {
	r.lz.late = r.lz.late[:copy(r.lz.late, r.lz.late[1:])]
}

// schedLate schedules a materialized event at instant at.
func (r *Router) schedLate(at sim.Time, call func(any), arg any) {
	var e *lateEvent
	if n := len(r.lz.free); n > 0 {
		e = r.lz.free[n-1]
		r.lz.free = r.lz.free[:n-1]
	} else {
		e = new(lateEvent)
	}
	*e = lateEvent{r: r, at: at, call: call, arg: arg}
	e.tm = r.sim.ScheduleCall(at-r.sim.Now(), fireLateEvent, e)
	r.lz.late = append(r.lz.late, e)
}

// edges counts the stream's edges passed at the caller's position.
func (st *stream) edges(now sim.Time, after bool) int {
	q := now - st.t0
	if q <= 0 {
		return 0
	}
	p := st.r.cfg.ClockPeriod
	e := int(q / p)
	if q%p == 0 && !after {
		e--
	}
	e = min(e, st.n+3)
	if st.tailDone {
		e = max(e, st.n)
	}
	return e
}

// refills reports whether tick k injects a queued flit: the sender's
// queue feeds the FIFO for the first n-k0 ticks.
func (st *stream) refills(k int) bool { return k >= 1 && k <= st.n-st.k0 }

// catchUp applies the stream's progress up to the caller's position, and
// any owed credit that has landed; a finished stream is dropped. Owed
// credits exist only while a stream does.
func (r *Router) catchUp() {
	now, after := r.sim.Now(), r.after()
	for len(r.lz.owed) > 0 && (r.lz.owed[0].at < now || r.lz.owed[0].at == now && after) {
		o := r.lz.owed[0]
		r.outputs[o.term.port].giveCredit(o.vc)
		r.lz.owed = r.lz.owed[:copy(r.lz.owed, r.lz.owed[1:])]
	}
	st := r.str
	st.advance(st.edges(now, after))
	if st.e == st.n+3 {
		r.str = nil
	}
}

// advance applies the stream's effects through edge e.
func (st *stream) advance(e int) {
	n := st.n
	sw := min(e, n)
	inj := min(n, st.k0+sw)
	cr := min(max(e-2, 0), n)
	if st.tailDone {
		cr = max(cr, n-1)
	}
	ticks := min(e, n+1)
	if e >= n+3 {
		ticks++
	}
	r := st.r
	if dsw := sw - st.sw; dsw > 0 {
		r.Stats.FlitsSwitched.Add(uint64(dsw))
		r.Stats.VCFlits[st.vc].Add(uint64(dsw))
		r.outputs[st.out].rr = (st.in + 1) % r.cfg.Ports
	}
	if dt := ticks - st.ticks; dt > 0 {
		r.Stats.Cycles.Add(uint64(dt))
	}
	r.Stats.BufOccupancy.Add(int64((inj - sw) - (st.inj - st.sw)))
	st.src.addCredits(st.vc, (sw-st.sw)-(inj-st.inj))
	r.outputs[st.out].credits[st.vc] += (cr - st.cr) - (sw - st.sw)
	st.e, st.sw, st.inj, st.cr, st.ticks = e, sw, inj, cr, ticks
}

// ticking reports whether the per-flit router would have a tick pending:
// until tick n+1 fires, and while the last credit's wake is pending.
func (st *stream) ticking() bool { return st.e <= st.n || st.e == st.n+2 }

// streamEdgeN fires at edge n, the tail's switch cycle, and queues the
// tail's delivery one cycle later, as that tick would.
func streamEdgeN(v any) {
	st := v.(*stream)
	st.ev = st.r.sim.ScheduleCall(st.r.cfg.ClockPeriod, streamTail, st)
}

// streamTail delivers the tail at edge n+1, after that edge's credit and
// before its tick.
func streamTail(v any) {
	st := v.(*stream)
	r := st.r
	r.catchUp()
	st.tailDone = true
	st.ev = sim.Timer{}
	st.advance(st.e)
	r.Stats.MsgsDelivered.Inc()
	m := st.msg
	st.msg = nil
	if d := st.dst; d.OnMessage != nil {
		m.term = d
		r.sim.ScheduleCall(0, deliverMsg, m)
	} else {
		FreeMessage(m)
	}
}

// tryStream starts a stream for a message t is sending, when the router
// is idle and the closed form holds; a stream between its tail's last
// tick and its last credit counts as idle, and owes that credit. It
// reports whether the message is streaming.
func (r *Router) tryStream(t *Terminal, dstNode, vc int, payload []byte) bool {
	if r.tracer != nil || r.flitOnly || r.ticking || r.lz != nil && len(r.lz.late) > 0 ||
		r.Stats.BufOccupancy.Gauge.Value() != 0 || t.PendingSend() != 0 {
		return false
	}
	if prev := r.str; prev != nil && prev.e != prev.n+1 {
		return false
	}
	out := dstNode
	if r.cfg.Route != nil {
		out = r.cfg.Route(out)
	}
	if out < 0 || out >= r.cfg.Ports {
		return false
	}
	dst, ok := r.outputs[out].peer.(*Terminal)
	if !ok || dst.partial[vc] != nil {
		return false
	}
	n := r.flitCount(len(payload))
	credits := t.sendShared
	if !t.sharedMode {
		credits = t.sendCredits[vc]
	}
	k0 := min(n, credits)
	need := 2
	if k0 < n {
		need = 3
	}
	if k0 < min(n, 2) || r.outputs[out].credits[vc] < need {
		return false
	}
	if prev := r.str; prev != nil {
		r.lz.owed = append(r.lz.owed, owedCredit{prev.t0 + sim.Time(prev.n+2)*r.cfg.ClockPeriod, prev.dst, prev.vc})
	}
	m := allocMessage()
	m.SrcNode, m.DstNode, m.VC = t.Node, dstNode, vc
	m.Payload = append(m.Payload, payload...)
	if r.lz == nil {
		r.lz = new(lazyState)
	}
	st := &r.lz.buf
	*st = stream{
		r: r, t0: r.sim.Now(), n: n, k0: k0,
		src: t, dst: dst, in: t.port, out: out, vc: vc,
		dstNode: dstNode, msgID: t.nextMsgID, msg: m,
		inj: k0,
	}
	t.addCredits(vc, -k0)
	r.Stats.BufOccupancy.Add(int64(k0))
	st.ev = r.sim.ScheduleCall(sim.Time(n)*r.cfg.ClockPeriod, streamEdgeN, st)
	r.str = st
	return true
}

// flit builds flit j of the stream's message.
func (st *stream) flit(j int) *Flit {
	return st.r.segment(st.src.Node, st.dstNode, st.vc, st.msgID, st.msg.Payload, j, st.n)
}

// materialize turns the caught-up stream, and any owed credit, into the
// flit-level state and pending events the per-flit router would hold at
// this point; the per-flit router takes over from here.
func (r *Router) materialize() {
	st := r.str
	p := r.cfg.ClockPeriod
	for _, o := range r.lz.owed {
		r.schedLate(o.at, returnCreditCall, &o.term.creditArgs[o.vc])
	}
	r.lz.owed = r.lz.owed[:0]
	r.str = nil
	r.sim.Cancel(st.ev)
	n, e := st.n, st.e
	delivered := min(max(e-1, 0), n-1)
	if st.tailDone {
		delivered = n
	}
	in := r.inputs[st.in]
	ivc := &in.vcs[st.vc]
	for j := st.sw; j < st.inj; j++ {
		ivc.fifo.push(st.flit(j))
	}
	if st.inj > st.sw {
		in.used += st.inj - st.sw
		idx := st.in*r.cfg.VCs + st.vc
		r.occ[idx>>6] |= 1 << (idx & 63)
	}
	for j := st.inj; j < n; j++ {
		st.src.sendq[st.vc].push(st.flit(j))
	}
	if st.sw > 0 && st.sw < n {
		ivc.boundOut = st.out
		r.outputs[st.out].owner[st.vc] = ownerRef{st.in, st.vc, true}
	}

	// The per-flit router holds exactly the events of the next edge m,
	// each queued one period before it.
	m := e + 1
	at := st.t0 + sim.Time(m)*p
	credit := func() {
		if j := m - 3; j >= st.cr && j >= 0 && j < n {
			r.schedLate(at, returnCreditCall, &st.dst.creditArgs[st.vc])
		}
	}
	deliver := func() {
		if j := m - 2; j >= delivered && j >= 0 && j < n {
			f := st.flit(j)
			f.deliverTo = st.dst
			r.schedLate(at, deliverFlit, f)
		}
	}
	tick := func() {
		if st.ticking() {
			r.ticking = true
			r.schedLate(at, tickCall, r)
		}
	}
	if !st.refills(m - 2) {
		credit()
	}
	if st.refills(m - 1) {
		tick()
		deliver()
	} else {
		deliver()
		tick()
	}
	if st.refills(m - 2) {
		credit()
	}

	if st.msg != nil {
		if delivered > 0 {
			st.msg.Payload = st.msg.Payload[:delivered*r.cfg.FlitBytes]
			st.dst.partial[st.vc] = st.msg
		} else {
			FreeMessage(st.msg)
		}
		st.msg = nil
	}
}
