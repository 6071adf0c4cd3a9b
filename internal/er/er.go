// Package er implements the Elastic Router (paper §V-B): an on-chip,
// input-buffered crossbar switch connecting endpoints on an FPGA (Roles,
// PCIe DMA, DRAM, and the LTL engine) across multiple virtual channels.
//
// The model is flit-level and event-driven: messages are segmented into
// flits, input ports buffer flits per VC, a switch allocator moves at most
// one flit per input and one flit per output per router clock cycle, and
// credit-based flow control (one credit per flit) governs every hop.
// A message that crosses an otherwise idle router streams: its flit-level
// schedule is a closed form, applied with two events instead of a tick, a
// delivery and a credit per flit (see stream). The signature "elastic"
// policy shares one pool of input-buffer credits among all VCs of a port
// instead of statically partitioning it, which the paper reports reduces
// aggregate buffering requirements — package benchmarks quantify that
// claim (BenchmarkAblationElasticCredits).
//
// Routers are fully parameterized in port count, VC count, flit size and
// buffer capacity, and can be composed into larger on-chip topologies
// (rings, meshes) with Connect. U-turns (input i -> output i) are
// supported.
package er

import (
	"fmt"
	"math/bits"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Flit is the unit of switching and flow control. Flits are pooled: they
// are allocated from a per-router freelist at segmentation time and
// recycled when a Terminal consumes them during reassembly, so the
// steady-state switching path performs no allocation.
type Flit struct {
	Head, Tail bool
	VC         int
	// DstNode is the global destination endpoint; each router's Route
	// function maps it to a local output port.
	DstNode int
	// SrcNode is the global source endpoint (for reassembly bookkeeping).
	SrcNode int
	// Data is this flit's copy of its slice of the message payload. The
	// bytes are copied in at segmentation time (into the flit's reused
	// buffer), so the sender's payload buffer is free for reuse as soon as
	// Send returns.
	Data []byte
	// MsgID disambiguates interleaved messages during reassembly.
	MsgID uint64

	// deliverTo carries the link-traversal target between the switch
	// cycle that wins arbitration and the delivery event one cycle later
	// (closure-free scheduling via deliverFlit).
	deliverTo Link
}

// deliverFlit is the static delivery callback: one cycle after a flit wins
// switch arbitration it crosses the link into the downstream attachment.
func deliverFlit(v any) {
	f := v.(*Flit)
	peer := f.deliverTo
	f.deliverTo = nil
	peer.AcceptFlit(f)
}

// Link is the receiving side of an attachment: something that can accept
// flits from a router output and that returns credits to the sender out of
// band.
type Link interface {
	// AcceptFlit delivers a flit into the attachment's input buffer. The
	// sender only calls it while holding a credit for f.VC.
	AcceptFlit(f *Flit)
	// InitialCredits reports the attachment's per-VC input buffering in
	// flits (the credits the sender starts with). Ignored when
	// SharedCredits returns nonzero.
	InitialCredits(vc int) int
	// SharedCredits, when nonzero, declares the attachment's input buffer
	// a single elastic pool of that many flits shared by all VCs.
	SharedCredits() int
}

// Config parameterizes a Router ("fully parameterized in the number of
// ports, virtual channels, flit and phit sizes, and buffer capacities").
type Config struct {
	Name  string
	Ports int
	VCs   int
	// FlitBytes is the flit payload capacity. 32 bytes at the default
	// clock gives a 40 Gb/s datapath (256 bit x 156.25 MHz).
	FlitBytes int
	// BufFlits is each input port's total buffering in flits.
	BufFlits int
	// Elastic selects the shared credit pool; false statically partitions
	// BufFlits/VCs per VC (the conventional policy the paper improves on).
	Elastic bool
	// ClockPeriod is one router cycle (default 6.4ns, 156.25 MHz per Fig. 5).
	ClockPeriod sim.Time
	// Route maps a destination node to a local output port. A head flit
	// routed outside [0, Ports), or to a port with nothing attached,
	// panics when the router first arbitrates it: the flit could never
	// leave, so nothing is silently dropped.
	Route func(dstNode int) int
}

// DefaultConfig returns the paper's example single-role instantiation:
// 4 ports (PCIe DMA, Role, DRAM, Remote/LTL), 2 VCs.
func DefaultConfig() Config {
	return Config{
		Name:        "er",
		Ports:       4,
		VCs:         2,
		FlitBytes:   32,
		BufFlits:    64,
		Elastic:     true,
		ClockPeriod: 6 * sim.Nanosecond, // ~156.25 MHz ER clock (Fig. 5)
	}
}

// Standard port assignments for the single-role deployment (§V-B).
const (
	PortPCIe   = 0
	PortRole   = 1
	PortDRAM   = 2
	PortRemote = 3
)

// Stats aggregates router counters.
// Every read catches the router up to the current instant (see stream).
type Stats struct {
	FlitsSwitched Counter
	MsgsDelivered Counter
	StallNoCredit Counter // output stalled awaiting downstream credit
	StallConflict Counter // lost switch arbitration this cycle
	BufOccupancy  Gauge   // flits buffered across all inputs
	Cycles        Counter // active arbitration cycles
	// VCFlits[v] counts flits switched on virtual channel v. Per-VC
	// accounting is what makes traffic-plane separation auditable: when
	// service datagrams ride VC 0 and the lease/connection plane rides
	// VC 1 (internal/shell), these counters witness that neither plane
	// leaked onto the other's channel.
	VCFlits []Counter
}

// flitFIFO is a head-indexed flit queue: pops advance a cursor instead of
// re-slicing, so the backing array's capacity is reused forever and the
// steady state never reallocates.
type flitFIFO struct {
	buf  []*Flit
	head int
}

func (q *flitFIFO) len() int     { return len(q.buf) - q.head }
func (q *flitFIFO) peek() *Flit  { return q.buf[q.head] }
func (q *flitFIFO) push(f *Flit) { q.buf = append(q.buf, f) }
func (q *flitFIFO) pop() *Flit {
	f := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return f
}

// inputVC is one VC's FIFO at one input port.
type inputVC struct {
	fifo flitFIFO
	// boundOut is the output port this VC's in-progress packet is routed
	// to, or -1 between packets (wormhole state).
	boundOut int
}

type inputPort struct {
	vcs []inputVC
	// used counts flits buffered across VCs (for the elastic pool).
	used int
	// creditReturn is invoked when a flit leaves this input.
	creditReturn func(vc int)
}

type outputPort struct {
	peer Link
	// credits available per downstream VC (static downstream buffers).
	credits []int
	// shared holds the elastic pool credit when the downstream buffer is
	// shared across VCs; sharedMode selects which accounting applies.
	shared     int
	sharedMode bool
	// owner[vc] is the (input, vc) pair whose packet currently owns this
	// output VC (valid=false between packets). Stored by value so VC
	// allocation never allocates.
	owner []ownerRef
	// rr is the round-robin arbitration pointer.
	rr int
}

// hasCredit reports whether a flit on vc may be sent downstream.
func (o *outputPort) hasCredit(vc int) bool {
	if o.sharedMode {
		return o.shared > 0
	}
	return o.credits[vc] > 0
}

// takeCredit consumes one downstream credit for vc.
func (o *outputPort) takeCredit(vc int) {
	if o.sharedMode {
		o.shared--
	} else {
		o.credits[vc]--
	}
}

// giveCredit returns one downstream credit for vc.
func (o *outputPort) giveCredit(vc int) {
	if o.sharedMode {
		o.shared++
	} else {
		o.credits[vc]++
	}
}

type ownerRef struct {
	in, vc int
	valid  bool
}

// Router is an Elastic Router instance.
type Router struct {
	cfg Config
	sim *sim.Simulation

	inputs  []*inputPort
	outputs []*outputPort

	// ObsID disambiguates this router in observability flow IDs (terminal
	// node numbers and message IDs restart at zero in every router).
	// Owners that instantiate multiple routers (the FPGA shell) set it to
	// something globally unique, e.g. the host ID.
	ObsID int

	// tracer is cached at construction (nil when observability is off);
	// msgSpans holds open "er.msg" spans keyed like reassembly state.
	tracer   *obs.Tracer
	msgSpans map[spanKey]obs.SpanID

	ticking bool
	Stats   Stats

	// occ is the occupancy bitmap of the (input, VC) FIFOs: bit i*VCs+v
	// is set while input i's VC v holds a flit. It spans several words
	// when Ports*VCs exceeds 64 (slotted shells raise VCs to 2+slots).
	occ []uint64
	// cand holds, within one tick, each output's candidate set: the
	// occupied FIFOs whose head targets that output (output o's bitmap is
	// cand[o*len(occ):(o+1)*len(occ)]). inTick marks that a cycle is in
	// progress, so a flit injected into an empty FIFO mid-cycle (by a
	// credit return that pumps a terminal) joins its output's set.
	cand   []uint64
	inTick bool

	// flitFree is the flit freelist (see Flit); scratchUsed is the
	// per-cycle one-flit-per-input scoreboard, reused across ticks.
	flitFree    []*Flit
	scratchUsed []bool

	// flitOnly marks a router with an attachment other than a
	// Terminal (a sink or another router), which never streams.
	flitOnly bool
	// str is the message streaming through the router, if any (see
	// stream); lz holds the rest of the stream machinery, allocated by
	// the first stream.
	str *stream
	lz  *lazyState
}

// allocFlit takes a flit from the freelist (or allocates a fresh one).
func (r *Router) allocFlit() *Flit {
	if n := len(r.flitFree); n > 0 {
		f := r.flitFree[n-1]
		r.flitFree = r.flitFree[:n-1]
		return f
	}
	return &Flit{}
}

// freeFlit recycles a consumed flit. The Data buffer's capacity is kept
// (flits own their payload copies), so steady-state segmentation reuses it.
func (r *Router) freeFlit(f *Flit) {
	d := f.Data[:0]
	*f = Flit{}
	f.Data = d
	r.flitFree = append(r.flitFree, f)
}

// flitCount reports how many flits carry a payload of size bytes; an
// empty payload still occupies one.
func (r *Router) flitCount(size int) int {
	fb := r.cfg.FlitBytes
	return max((size+fb-1)/fb, 1)
}

// segment builds flit j of the n flits of message msgID, copying its slice
// of payload.
func (r *Router) segment(src, dstNode, vc int, msgID uint64, payload []byte, j, n int) *Flit {
	lo := j * r.cfg.FlitBytes
	f := r.allocFlit()
	f.Head, f.Tail, f.VC = j == 0, j == n-1, vc
	f.SrcNode, f.DstNode = src, dstNode
	f.Data = append(f.Data[:0], payload[lo:min(lo+r.cfg.FlitBytes, len(payload))]...)
	f.MsgID = msgID
	return f
}

type spanKey struct {
	src, vc int
	msgID   uint64
}

// New constructs a router. Attach endpoints with Attach (or Connect for
// router-to-router links) before injecting traffic.
func New(s *sim.Simulation, cfg Config) *Router {
	if cfg.Ports <= 0 || cfg.VCs <= 0 || cfg.FlitBytes <= 0 || cfg.BufFlits < cfg.VCs {
		panic(fmt.Sprintf("er: invalid config %+v", cfg))
	}
	if cfg.ClockPeriod <= 0 {
		cfg.ClockPeriod = DefaultConfig().ClockPeriod
	}
	r := &Router{cfg: cfg, sim: s, tracer: obs.TracerOf(s)}
	if r.tracer != nil {
		r.msgSpans = make(map[spanKey]obs.SpanID)
	}
	st := &r.Stats
	st.VCFlits = make([]Counter, cfg.VCs)
	for _, c := range []*Counter{&st.FlitsSwitched, &st.MsgsDelivered, &st.StallNoCredit, &st.StallConflict, &st.Cycles} {
		c.r = r
	}
	for v := range st.VCFlits {
		st.VCFlits[v].r = r
	}
	st.BufOccupancy.r = r
	if reg := obs.RegistryOf(s); reg != nil {
		for v := 0; v < cfg.VCs; v++ {
			reg.Counter(fmt.Sprintf("er.flits_vc%d", v), "flits", "er",
				fmt.Sprintf("flits switched on virtual channel %d", v), &st.VCFlits[v].Counter)
		}
		reg.Counter("er.flits_switched", "flits", "er", "flits crossing the switch", &st.FlitsSwitched.Counter)
		reg.Counter("er.msgs_delivered", "msgs", "er", "messages fully reassembled", &st.MsgsDelivered.Counter)
		reg.Counter("er.stall_no_credit", "events", "er", "output stalls awaiting downstream credit", &st.StallNoCredit.Counter)
		reg.Counter("er.stall_conflict", "events", "er", "lost switch-arbitration attempts", &st.StallConflict.Counter)
		reg.Counter("er.cycles", "cycles", "er", "active arbitration cycles", &st.Cycles.Counter)
		reg.Gauge("er.buf_occupancy", "flits", "er", "flits buffered across inputs", &st.BufOccupancy.Gauge)
		reg.Refresh(r.enter)
	}
	for i := 0; i < cfg.Ports; i++ {
		in := &inputPort{vcs: make([]inputVC, cfg.VCs)}
		for v := range in.vcs {
			in.vcs[v].boundOut = -1
		}
		r.inputs = append(r.inputs, in)
		out := &outputPort{
			credits: make([]int, cfg.VCs),
			owner:   make([]ownerRef, cfg.VCs),
		}
		r.outputs = append(r.outputs, out)
	}
	r.scratchUsed = make([]bool, cfg.Ports)
	words := (cfg.Ports*cfg.VCs + 63) / 64
	r.occ = make([]uint64, words)
	r.cand = make([]uint64, cfg.Ports*words)
	return r
}

// Config returns the router's configuration.
func (r *Router) Config() Config { return r.cfg }

// Attach wires attachment peer to the output side of port, and registers
// creditReturn to be invoked when flits injected at that port's input are
// switched (freeing buffer space for the injector).
func (r *Router) Attach(port int, peer Link, creditReturn func(vc int)) {
	out := r.outputs[port]
	out.peer = peer
	if pool := peer.SharedCredits(); pool > 0 {
		out.sharedMode = true
		out.shared = pool
	} else {
		for v := 0; v < r.cfg.VCs; v++ {
			out.credits[v] = peer.InitialCredits(v)
		}
	}
	r.inputs[port].creditReturn = creditReturn
	if _, ok := peer.(*Terminal); !ok {
		r.flitOnly = true
	}
}

// InitialCredits implements Link for router-to-router composition: the
// per-VC credit a sender into this router starts with when buffers are
// statically partitioned.
func (r *Router) InitialCredits(vc int) int {
	return r.cfg.BufFlits / r.cfg.VCs
}

// SharedCredits implements Link: an elastic router advertises its whole
// input buffer as a shared pool.
func (r *Router) SharedCredits() int {
	if r.cfg.Elastic {
		return r.cfg.BufFlits
	}
	return 0
}

// vcCapacity returns how many flits VC v at an input may hold right now.
func (r *Router) vcCapacity(in *inputPort, vc int) int {
	if r.cfg.Elastic {
		return r.cfg.BufFlits - in.used + in.vcs[vc].fifo.len()
	}
	return r.cfg.BufFlits / r.cfg.VCs
}

// Inject places a flit into input port's VC buffer. Callers must respect
// credits (Terminal and Connect do); violations panic, because hardware
// credit underflow is a design bug, not load.
func (r *Router) Inject(port int, f *Flit) {
	if r.str != nil {
		r.catchUp()
		if r.str != nil {
			r.materialize()
		}
	}
	in := r.inputs[port]
	if f.VC < 0 || f.VC >= r.cfg.VCs {
		panic(fmt.Sprintf("er: flit VC %d out of range", f.VC))
	}
	if in.vcs[f.VC].fifo.len() >= r.vcCapacity(in, f.VC) {
		panic(fmt.Sprintf("er %s: input %d vc %d buffer overflow (credit protocol violated)",
			r.cfg.Name, port, f.VC))
	}
	ivc := &in.vcs[f.VC]
	ivc.fifo.push(f)
	in.used++
	if ivc.fifo.len() == 1 {
		idx := port*r.cfg.VCs + f.VC
		r.occ[idx>>6] |= 1 << (idx & 63)
		if r.inTick {
			r.resolve(idx)
		}
	}
	r.Stats.BufOccupancy.Add(1)
	r.wake()
}

// ReturnCredit gives an output-side credit back for (port, vc); called by
// downstream attachments as they drain.
func (r *Router) ReturnCredit(port, vc int) {
	r.enter()
	if st := r.str; st != nil {
		if st.ticking() {
			// The per-flit router's wake would find a tick pending.
			r.outputs[port].giveCredit(vc)
			return
		}
		r.materialize()
	}
	r.outputs[port].giveCredit(vc)
	r.wake()
}

// tickCall is the static cycle callback (closure-free wake).
func tickCall(v any) { v.(*Router).tick() }

// wake arms the cycle loop if idle.
func (r *Router) wake() {
	if r.ticking {
		return
	}
	r.ticking = true
	r.sim.ScheduleCall(r.cfg.ClockPeriod, tickCall, r)
}

// resolve enters FIFO idx's head flit in the candidate set of the one
// output it targets this cycle: its packet's bound output, or the route
// of a head flit. A head routed outside [0, Ports) or to a port with
// nothing attached could never leave, and would tick the router forever;
// that is a configuration bug, and it panics.
func (r *Router) resolve(idx int) {
	in := idx / r.cfg.VCs
	ivc := &r.inputs[in].vcs[idx%r.cfg.VCs]
	dst := ivc.boundOut
	if dst == -1 {
		head := ivc.fifo.peek()
		if !head.Head {
			panic("er: body flit with no route binding")
		}
		dst = head.DstNode
		if r.cfg.Route != nil {
			dst = r.cfg.Route(dst)
		}
		if dst < 0 || dst >= r.cfg.Ports || r.outputs[dst].peer == nil {
			panic(fmt.Sprintf("er %s: input %d: no attached output for node %d (routed to port %d)",
				r.cfg.Name, in, head.DstNode, dst))
		}
	}
	r.cand[dst*len(r.occ)+idx>>6] |= 1 << (idx & 63)
}

// tick performs one switch-allocation cycle: for every output port, pick
// at most one eligible (input, VC) head flit by round-robin; honor one
// flit per input per cycle; transmit winners and return input credits.
//
// Each occupied FIFO's head targets exactly one output, so the cycle
// resolves every head once into per-output candidate sets and each
// output visits only its own candidates, in ascending (input, VC) order.
// A pop re-resolves the FIFO's new head (and a flit injected mid-cycle
// into an empty FIFO resolves on arrival), so a later output in the
// same cycle still sees, and stall-counts, exactly what a full scan of
// every (input, VC) per output would.
func (r *Router) tick() {
	r.ticking = false
	r.Stats.Cycles.Inc()
	inputUsed := r.scratchUsed
	clear(inputUsed)
	clear(r.cand)
	// Keep ticking while any input holds flits.
	work := false
	for w, word := range r.occ {
		for ; word != 0; word &= word - 1 {
			work = true
			r.resolve(w<<6 | bits.TrailingZeros64(word))
		}
	}
	r.inTick = true
	words := len(r.occ)
	vcs := r.cfg.VCs

	for o, out := range r.outputs {
		if out.peer == nil {
			continue
		}
		// The first eligible (input, VC) and the first one at or past the
		// round-robin pointer stand in for a materialized candidate list.
		firstIn, firstVC := -1, -1
		pickIn, pickVC := -1, -1
		for w, word := range r.cand[o*words : (o+1)*words] {
			for ; word != 0; word &= word - 1 {
				idx := w<<6 | bits.TrailingZeros64(word)
				i, v := idx/vcs, idx%vcs
				head := r.inputs[i].vcs[v].fifo.peek()
				if inputUsed[i] {
					r.Stats.StallConflict.Inc()
					if r.tracer != nil {
						r.tracer.Event(obs.ERFlow(r.ObsID, head.SrcNode, head.MsgID), "er.stall_conflict", 0, int64(o))
					}
					continue
				}
				// VC allocation: a head flit needs the output VC free or
				// already owned by us; body flits require ownership.
				owner := &out.owner[head.VC]
				if head.Head {
					if owner.valid && !(owner.in == i && owner.vc == v) {
						r.Stats.StallConflict.Inc()
						if r.tracer != nil {
							r.tracer.Event(obs.ERFlow(r.ObsID, head.SrcNode, head.MsgID), "er.stall_conflict", 0, int64(o))
						}
						continue
					}
				} else if !owner.valid || owner.in != i || owner.vc != v {
					continue
				}
				if !out.hasCredit(head.VC) {
					r.Stats.StallNoCredit.Inc()
					if r.tracer != nil {
						r.tracer.Event(obs.ERFlow(r.ObsID, head.SrcNode, head.MsgID), "er.stall_credit", 0, int64(o))
					}
					continue
				}
				if firstIn == -1 {
					firstIn, firstVC = i, v
				}
				if pickIn == -1 && i >= out.rr {
					pickIn, pickVC = i, v
				}
			}
		}
		if firstIn == -1 {
			continue
		}
		// Round-robin among candidates.
		if pickIn == -1 {
			pickIn, pickVC = firstIn, firstVC
		}
		out.rr = (pickIn + 1) % r.cfg.Ports

		in := r.inputs[pickIn]
		ivc := &in.vcs[pickVC]
		head := ivc.fifo.pop()
		in.used--
		r.Stats.BufOccupancy.Add(-1)
		inputUsed[pickIn] = true

		if head.Head {
			ivc.boundOut = o
			out.owner[head.VC] = ownerRef{pickIn, pickVC, true}
		}
		if head.Tail {
			ivc.boundOut = -1
			out.owner[head.VC] = ownerRef{}
		}
		if idx := pickIn*vcs + pickVC; ivc.fifo.len() == 0 {
			r.occ[idx>>6] &^= 1 << (idx & 63)
		} else {
			r.resolve(idx)
		}

		out.takeCredit(head.VC)
		r.Stats.FlitsSwitched.Inc()
		r.Stats.VCFlits[head.VC].Inc()
		if in.creditReturn != nil {
			in.creditReturn(pickVC)
		}
		// One cycle of link traversal to the attachment (static callback;
		// the flit carries its destination).
		head.deliverTo = out.peer
		r.sim.ScheduleCall(r.cfg.ClockPeriod, deliverFlit, head)
	}
	r.inTick = false

	if work {
		r.wake()
	}
}

// Connect links router a's port pa to router b's port pb bidirectionally
// for composing on-chip topologies (e.g. rings, 2-D meshes).
func Connect(a *Router, pa int, b *Router, pb int) {
	a.Attach(pa, &routerLink{r: b, port: pb}, func(vc int) { b.ReturnCredit(pb, vc) })
	b.Attach(pb, &routerLink{r: a, port: pa}, func(vc int) { a.ReturnCredit(pa, vc) })
}

// routerLink adapts a Router input as a Link target.
type routerLink struct {
	r    *Router
	port int
}

func (l *routerLink) AcceptFlit(f *Flit)       { l.r.Inject(l.port, f) }
func (l *routerLink) InitialCredits(v int) int { return l.r.InitialCredits(v) }
func (l *routerLink) SharedCredits() int       { return l.r.SharedCredits() }
