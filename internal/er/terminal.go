package er

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Message is a reassembled Elastic Router message. Messages are pooled:
// a consumer that is done with one (and does not retain Payload) may hand
// it back with FreeMessage so the reassembly path stops allocating.
type Message struct {
	SrcNode, DstNode int
	VC               int
	Payload          []byte

	// term carries the delivery target between the tail flit's arrival
	// and the zero-delay OnMessage dispatch (closure-free scheduling).
	term *Terminal
}

// msgPool recycles Messages (and their Payload capacity) across the whole
// process; sync.Pool keeps concurrent simulations safe.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// allocMessage takes a pooled message with zero-length payload.
func allocMessage() *Message {
	m := msgPool.Get().(*Message)
	m.Payload = m.Payload[:0]
	return m
}

// FreeMessage recycles m. The caller asserts that no reference to m or its
// Payload outlives the call; handlers that retain the payload must simply
// not free the message (an unfreed message is garbage-collected as before).
func FreeMessage(m *Message) {
	p := m.Payload[:0]
	*m = Message{}
	m.Payload = p
	msgPool.Put(m)
}

// deliverMsg is the static OnMessage dispatch callback.
func deliverMsg(v any) {
	m := v.(*Message)
	t := m.term
	m.term = nil
	t.OnMessage(m)
}

// creditArg is a preallocated (terminal, vc) pair for the static
// credit-return callback, so per-flit credit returns never allocate.
type creditArg struct {
	t  *Terminal
	vc int
}

// returnCreditCall is the static credit-return callback.
func returnCreditCall(v any) {
	a := v.(*creditArg)
	a.t.router.ReturnCredit(a.t.port, a.vc)
}

// Terminal is an endpoint attached to one router port: it segments
// outgoing messages into flits (respecting the router's credits) and
// reassembles incoming flits back into messages, returning credits as it
// drains. It models a role, PCIe DMA engine, DRAM port, or the LTL
// engine's ER-facing side.
type Terminal struct {
	Node int // global endpoint id

	sim    *sim.Simulation
	router *Router
	port   int

	// RecvBufFlits is the terminal's advertised input buffering.
	RecvBufFlits int
	// OnMessage is invoked for each fully reassembled message.
	OnMessage func(m *Message)

	// sendCredits tracks per-VC credit toward the router input.
	sendCredits []int
	sendShared  int
	sharedMode  bool
	// sendq holds flits awaiting credits, per VC.
	sendq []flitFIFO

	// partial[vc] is the message being reassembled on vc, or nil. A
	// router output VC is owned from a packet's head flit to its tail, so
	// flits of different messages never interleave on one VC here.
	partial []*Message

	// creditArgs[vc] is the preallocated argument for returnCreditCall.
	creditArgs []creditArg

	nextMsgID uint64
}

// NewTerminal creates a terminal and attaches it to router port. node is
// the terminal's global endpoint id (what other endpoints address).
func NewTerminal(s *sim.Simulation, router *Router, port, node, recvBufFlits int) *Terminal {
	t := &Terminal{
		Node: node, sim: s, router: router, port: port,
		RecvBufFlits: recvBufFlits,
		partial:      make([]*Message, router.cfg.VCs),
		sendq:        make([]flitFIFO, router.cfg.VCs),
	}
	t.creditArgs = make([]creditArg, router.cfg.VCs)
	for v := range t.creditArgs {
		t.creditArgs[v] = creditArg{t: t, vc: v}
	}
	if router.cfg.Elastic {
		t.sharedMode = true
		t.sendShared = router.SharedCredits()
	} else {
		t.sendCredits = make([]int, router.cfg.VCs)
		for v := range t.sendCredits {
			t.sendCredits[v] = router.InitialCredits(v)
		}
	}
	router.Attach(port, t, t.onCredit)
	return t
}

// InitialCredits implements Link.
func (t *Terminal) InitialCredits(vc int) int { return t.RecvBufFlits / t.router.cfg.VCs }

// SharedCredits implements Link: terminals use static receive buffers (the
// interesting elasticity is inside the router).
func (t *Terminal) SharedCredits() int { return 0 }

// onCredit is called as the router drains flits we injected.
func (t *Terminal) onCredit(vc int) {
	t.addCredits(vc, 1)
	t.pump()
}

// addCredits adjusts the send credit for vc by d.
func (t *Terminal) addCredits(vc, d int) {
	if t.sharedMode {
		t.sendShared += d
	} else {
		t.sendCredits[vc] += d
	}
}

// Send segments payload into flits on vc addressed to dstNode and injects
// them as credits permit. Zero-length payloads occupy a single flit.
func (t *Terminal) Send(dstNode, vc int, payload []byte) {
	if vc < 0 || vc >= t.router.cfg.VCs {
		panic(fmt.Sprintf("er: send on invalid vc %d", vc))
	}
	r := t.router
	r.enter()
	t.nextMsgID++
	if r.tryStream(t, dstNode, vc, payload) {
		return
	}
	if r.str != nil {
		r.materialize()
	}
	if r.tracer != nil {
		flow := obs.ERFlow(t.router.ObsID, t.Node, t.nextMsgID)
		id := t.router.tracer.Start(flow, "er.msg", 0)
		t.router.tracer.SetArg(id, int64(len(payload)))
		t.router.msgSpans[spanKey{t.Node, vc, t.nextMsgID}] = id
	}
	for i, n := 0, r.flitCount(len(payload)); i < n; i++ {
		t.sendq[vc].push(r.segment(t.Node, dstNode, vc, t.nextMsgID, payload, i, n))
	}
	t.pump()
}

// pump injects queued flits while credits last.
func (t *Terminal) pump() {
	for vc := range t.sendq {
		for t.sendq[vc].len() > 0 {
			if t.sharedMode {
				if t.sendShared <= 0 {
					break
				}
				t.sendShared--
			} else {
				if t.sendCredits[vc] <= 0 {
					break
				}
				t.sendCredits[vc]--
			}
			t.router.Inject(t.port, t.sendq[vc].pop())
		}
	}
}

// AcceptFlit implements Link: reassemble and return the credit after one
// cycle of drain latency.
func (t *Terminal) AcceptFlit(f *Flit) {
	vc := f.VC
	m := t.partial[vc]
	if f.Head {
		if m != nil {
			panic(fmt.Sprintf("er: terminal %d received a head flit on vc %d over an unfinished message", t.Node, vc))
		}
		m = allocMessage()
		m.SrcNode, m.DstNode, m.VC = f.SrcNode, f.DstNode, f.VC
		t.partial[vc] = m
	} else if m == nil {
		panic("er: terminal received body flit with no head")
	}
	m.Payload = append(m.Payload, f.Data...)
	if f.Tail {
		t.partial[vc] = nil
		t.router.Stats.MsgsDelivered.Inc()
		if t.router.msgSpans != nil {
			sk := spanKey{f.SrcNode, f.VC, f.MsgID}
			if id, ok := t.router.msgSpans[sk]; ok {
				delete(t.router.msgSpans, sk)
				t.router.tracer.End(id)
			}
		}
		if t.OnMessage != nil {
			m.term = t
			t.sim.ScheduleCall(0, deliverMsg, m)
		} else {
			FreeMessage(m)
		}
	}
	// The flit dies here: its payload slice has been copied into the
	// message, so it can return to the router's freelist.
	t.router.freeFlit(f)
	// Model an always-draining endpoint: the credit returns after one
	// router cycle.
	t.sim.ScheduleCall(t.router.cfg.ClockPeriod, returnCreditCall, &t.creditArgs[vc])
}

// PendingSend reports flits queued awaiting credits (for tests).
func (t *Terminal) PendingSend() int {
	t.router.enter()
	n := 0
	if st := t.router.str; st != nil && st.src == t {
		n += st.n - st.inj
	}
	for i := range t.sendq {
		n += t.sendq[i].len()
	}
	return n
}
