package er

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// buildRouter wires a router with one terminal per port; terminal node ids
// equal port numbers.
func buildRouter(s *sim.Simulation, cfg Config) (*Router, []*Terminal) {
	r := New(s, cfg)
	terms := make([]*Terminal, cfg.Ports)
	for p := 0; p < cfg.Ports; p++ {
		terms[p] = NewTerminal(s, r, p, p, 4*cfg.VCs)
	}
	return r, terms
}

func collect(t *Terminal) *[]*Message {
	var got []*Message
	t.OnMessage = func(m *Message) { got = append(got, m) }
	return &got
}

func TestSingleFlitMessage(t *testing.T) {
	s := sim.New(1)
	_, terms := buildRouter(s, DefaultConfig())
	got := collect(terms[PortRemote])
	terms[PortRole].Send(PortRemote, 0, []byte("hi"))
	s.RunFor(sim.Microsecond)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
	m := (*got)[0]
	if m.SrcNode != PortRole || m.DstNode != PortRemote || string(m.Payload) != "hi" {
		t.Errorf("message %+v", m)
	}
}

func TestMultiFlitReassembly(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	_, terms := buildRouter(s, cfg)
	got := collect(terms[PortDRAM])
	payload := make([]byte, 7*cfg.FlitBytes+5) // 8 flits, last partial
	for i := range payload {
		payload[i] = byte(i)
	}
	terms[PortPCIe].Send(PortDRAM, 1, payload)
	s.RunFor(10 * sim.Microsecond)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
	if !bytes.Equal((*got)[0].Payload, payload) {
		t.Error("payload corrupted in flight")
	}
	if (*got)[0].VC != 1 {
		t.Errorf("VC = %d, want 1", (*got)[0].VC)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := sim.New(1)
	_, terms := buildRouter(s, DefaultConfig())
	got := collect(terms[PortRole])
	terms[PortDRAM].Send(PortRole, 0, nil)
	s.RunFor(sim.Microsecond)
	if len(*got) != 1 || len((*got)[0].Payload) != 0 {
		t.Fatalf("empty message not delivered intact: %v", *got)
	}
}

func TestUTurn(t *testing.T) {
	// "Any endpoint can send a message through the ER to any other port
	// including itself as U-turns are supported."
	s := sim.New(1)
	_, terms := buildRouter(s, DefaultConfig())
	got := collect(terms[PortRole])
	terms[PortRole].Send(PortRole, 0, []byte("loopback"))
	s.RunFor(sim.Microsecond)
	if len(*got) != 1 || string((*got)[0].Payload) != "loopback" {
		t.Fatalf("U-turn failed: %v", *got)
	}
}

func TestAllPairs(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	_, terms := buildRouter(s, cfg)
	type rx struct{ src, dst int }
	seen := map[rx]bool{}
	for p := 0; p < cfg.Ports; p++ {
		p := p
		terms[p].OnMessage = func(m *Message) { seen[rx{m.SrcNode, p}] = true }
	}
	for src := 0; src < cfg.Ports; src++ {
		for dst := 0; dst < cfg.Ports; dst++ {
			terms[src].Send(dst, (src+dst)%cfg.VCs, []byte(fmt.Sprintf("%d->%d", src, dst)))
		}
	}
	s.RunFor(100 * sim.Microsecond)
	for src := 0; src < cfg.Ports; src++ {
		for dst := 0; dst < cfg.Ports; dst++ {
			if !seen[rx{src, dst}] {
				t.Errorf("pair %d->%d never delivered", src, dst)
			}
		}
	}
}

func TestMessagesOnSameVCStayOrdered(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	_, terms := buildRouter(s, cfg)
	var order []int
	terms[PortRemote].OnMessage = func(m *Message) {
		order = append(order, int(m.Payload[0]))
	}
	for i := 0; i < 20; i++ {
		terms[PortRole].Send(PortRemote, 0, []byte{byte(i), 1, 2, 3})
	}
	s.RunFor(100 * sim.Microsecond)
	if len(order) != 20 {
		t.Fatalf("delivered %d, want 20", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order violated at %d: %v", i, order)
		}
	}
}

func TestVCsInterleaveWithoutCorruption(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.VCs = 4
	_, terms := buildRouter(s, cfg)
	gotByVC := map[int][]byte{}
	terms[PortDRAM].OnMessage = func(m *Message) {
		gotByVC[m.VC] = append([]byte(nil), m.Payload...)
	}
	for vc := 0; vc < 4; vc++ {
		payload := bytes.Repeat([]byte{byte('a' + vc)}, 5*cfg.FlitBytes)
		terms[PortRole].Send(PortDRAM, vc, payload)
	}
	s.RunFor(100 * sim.Microsecond)
	for vc := 0; vc < 4; vc++ {
		want := bytes.Repeat([]byte{byte('a' + vc)}, 5*cfg.FlitBytes)
		if !bytes.Equal(gotByVC[vc], want) {
			t.Errorf("vc %d corrupted: got %d bytes", vc, len(gotByVC[vc]))
		}
	}
}

func TestCreditBackpressureNoOverflow(t *testing.T) {
	// A slow receiver must never overflow buffers (credit protocol), and
	// all traffic must still eventually arrive.
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.BufFlits = 8
	r, terms := buildRouter(s, cfg)
	n := 0
	terms[PortRemote].OnMessage = func(m *Message) { n++ }
	payload := make([]byte, 64*cfg.FlitBytes)
	for i := 0; i < 10; i++ {
		terms[PortRole].Send(PortRemote, 0, payload)
	}
	// The send queue must exceed credits at first.
	if terms[PortRole].PendingSend() == 0 {
		t.Error("expected flits queued awaiting credits")
	}
	s.RunFor(sim.Millisecond)
	if n != 10 {
		t.Fatalf("delivered %d messages, want 10", n)
	}
	if r.Stats.BufOccupancy.Value() != 0 {
		t.Errorf("buffers not drained: %d flits", r.Stats.BufOccupancy.Value())
	}
	if r.Stats.BufOccupancy.Watermark() > int64(cfg.BufFlits*cfg.Ports) {
		t.Errorf("buffer watermark %d exceeds capacity", r.Stats.BufOccupancy.Watermark())
	}
}

func TestElasticPoolOutperformsStaticUnderAsymmetry(t *testing.T) {
	// One hot VC, others idle: the elastic policy lets the hot VC use the
	// whole pool, finishing no later than (and typically before) the
	// statically partitioned router with the same total buffering.
	run := func(elastic bool) sim.Time {
		s := sim.New(1)
		cfg := DefaultConfig()
		cfg.VCs = 4
		cfg.BufFlits = 16
		cfg.Elastic = elastic
		_, terms := buildRouter(s, cfg)
		var done sim.Time
		remaining := 8
		terms[PortRemote].OnMessage = func(m *Message) {
			remaining--
			if remaining == 0 {
				done = s.Now()
			}
		}
		payload := make([]byte, 32*cfg.FlitBytes)
		for i := 0; i < 8; i++ {
			terms[PortRole].Send(PortRemote, 0, payload) // all on VC 0
		}
		s.RunFor(10 * sim.Millisecond)
		if remaining != 0 {
			t.Fatalf("elastic=%v: %d messages missing", elastic, remaining)
		}
		return done
	}
	el, st := run(true), run(false)
	if el > st {
		t.Errorf("elastic (%v) slower than static (%v) on asymmetric load", el, st)
	}
}

func TestRingComposition(t *testing.T) {
	// Three routers in a ring; node ids: router i's terminal is node i at
	// port 0; ports 1 (cw) and 2 (ccw) link the ring.
	s := sim.New(1)
	const n = 3
	routers := make([]*Router, n)
	terms := make([]*Terminal, n)
	for i := 0; i < n; i++ {
		i := i
		cfg := DefaultConfig()
		cfg.Ports = 3
		cfg.Name = fmt.Sprintf("ring%d", i)
		cfg.Route = func(dst int) int {
			if dst == i {
				return 0
			}
			return 1 // always clockwise
		}
		routers[i] = New(s, cfg)
	}
	for i := 0; i < n; i++ {
		Connect(routers[i], 1, routers[(i+1)%n], 2)
	}
	for i := 0; i < n; i++ {
		terms[i] = NewTerminal(s, routers[i], 0, i, 16)
	}
	got := map[int]string{}
	for i := 0; i < n; i++ {
		i := i
		terms[i].OnMessage = func(m *Message) { got[m.SrcNode] = string(m.Payload) }
	}
	terms[0].Send(2, 0, []byte("two hops"))
	terms[1].Send(0, 1, []byte("wrap around"))
	s.RunFor(sim.Millisecond)
	if got[0] != "two hops" {
		t.Errorf("0->2 across ring: %q", got[0])
	}
	if got[1] != "wrap around" {
		t.Errorf("1->0 across ring: %q", got[1])
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	s := sim.New(1)
	for _, cfg := range []Config{
		{Ports: 0, VCs: 1, FlitBytes: 32, BufFlits: 8},
		{Ports: 4, VCs: 0, FlitBytes: 32, BufFlits: 8},
		{Ports: 4, VCs: 2, FlitBytes: 0, BufFlits: 8},
		{Ports: 4, VCs: 8, FlitBytes: 32, BufFlits: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(s, cfg)
		}()
	}
}

func TestInjectInvalidVCPanics(t *testing.T) {
	s := sim.New(1)
	r, _ := buildRouter(s, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Inject(0, &Flit{Head: true, Tail: true, VC: 99})
}

// expectPanic runs fn and returns the panic message it raised, failing
// the test when fn returns normally.
func expectPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// A head flit whose route names no attached output can never leave its
// FIFO. Arbitration panics on it (naming the router, the node and the
// port) instead of ticking the router every cycle forever, which kept
// sim.Run from returning.
func TestUnroutableHeadPanics(t *testing.T) {
	for _, c := range []struct {
		name      string
		route     func(int) int
		attach    int // terminals on ports [0, attach)
		dst, port int
	}{
		{"route-drop", func(int) int { return -1 }, 4, 2, -1},
		{"node-out-of-range", nil, 4, 9, 9},
		{"unattached-output", nil, 3, 3, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(1)
			cfg := DefaultConfig()
			cfg.Name = "er-" + c.name
			cfg.Route = c.route
			r := New(s, cfg)
			src := NewTerminal(s, r, 0, 0, 8)
			for p := 1; p < c.attach; p++ {
				NewTerminal(s, r, p, p, 8)
			}
			src.Send(c.dst, 0, []byte("x"))
			msg := expectPanic(t, func() { s.RunFor(sim.Millisecond) })
			for _, want := range []string{cfg.Name, fmt.Sprintf("node %d", c.dst), fmt.Sprintf("port %d", c.port)} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not name %q", msg, want)
				}
			}
			if s.Fired() > 4 {
				t.Errorf("panicked only after %d events; the first arbitration cycle should catch it", s.Fired())
			}
		})
	}
}

// Reassembly keeps one in-progress message per VC, which is sound only
// because a router output VC is owned from head to tail: a head flit over
// an unfinished message, or a body flit with none, is a protocol bug.
func TestTerminalReassemblyProtocolPanics(t *testing.T) {
	s := sim.New(1)
	_, terms := buildRouter(s, DefaultConfig())
	term := terms[1]
	msg := expectPanic(t, func() { term.AcceptFlit(&Flit{VC: 1, SrcNode: 0, MsgID: 1}) })
	if !strings.Contains(msg, "body flit with no head") {
		t.Errorf("body flit with no head: panic %q", msg)
	}
	term.AcceptFlit(&Flit{Head: true, VC: 0, SrcNode: 0, MsgID: 1})
	msg = expectPanic(t, func() { term.AcceptFlit(&Flit{Head: true, Tail: true, VC: 0, SrcNode: 2, MsgID: 1}) })
	if !strings.Contains(msg, "unfinished message") {
		t.Errorf("head over unfinished message: panic %q", msg)
	}
	// The other VC reassembles independently.
	got := collect(term)
	term.AcceptFlit(&Flit{Head: true, Tail: true, VC: 1, SrcNode: 2, MsgID: 1, Data: []byte("ok")})
	s.RunFor(sim.Microsecond)
	if len(*got) != 1 || string((*got)[0].Payload) != "ok" {
		t.Fatalf("VC 1 delivery alongside an unfinished VC 0 message: %v", *got)
	}
}

func TestSendInvalidVCPanics(t *testing.T) {
	s := sim.New(1)
	_, terms := buildRouter(s, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	terms[0].Send(1, 7, []byte("x"))
}

// Property: any batch of messages across random ports/VCs is delivered
// exactly once, uncorrupted, for both elastic and static credit policies.
func TestPropertyDelivery(t *testing.T) {
	type msg struct {
		Src, Dst uint8
		VC       uint8
		Len      uint16
	}
	f := func(msgs []msg, elastic bool) bool {
		s := sim.New(11)
		cfg := DefaultConfig()
		cfg.Elastic = elastic
		cfg.VCs = 2
		_, terms := buildRouter(s, cfg)
		if len(msgs) > 40 {
			msgs = msgs[:40]
		}
		type key struct {
			src, dst int
			body     string
		}
		want := map[key]int{}
		gotCount := map[key]int{}
		for p := 0; p < cfg.Ports; p++ {
			p := p
			terms[p].OnMessage = func(m *Message) {
				gotCount[key{m.SrcNode, p, string(m.Payload)}]++
			}
		}
		for i, m := range msgs {
			src := int(m.Src) % cfg.Ports
			dst := int(m.Dst) % cfg.Ports
			vc := int(m.VC) % cfg.VCs
			l := int(m.Len) % 200
			body := bytes.Repeat([]byte{byte(i)}, l)
			want[key{src, dst, string(body)}]++
			terms[src].Send(dst, vc, body)
		}
		s.RunFor(10 * sim.Millisecond)
		if len(want) != len(gotCount) {
			return false
		}
		for k, n := range want {
			if gotCount[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	r, terms := buildRouter(s, cfg)
	terms[0].Send(1, 0, make([]byte, 4*cfg.FlitBytes))
	s.RunFor(sim.Millisecond)
	if r.Stats.FlitsSwitched.Value() != 4 {
		t.Errorf("FlitsSwitched = %d, want 4", r.Stats.FlitsSwitched.Value())
	}
	if r.Stats.MsgsDelivered.Value() != 1 {
		t.Errorf("MsgsDelivered = %d, want 1", r.Stats.MsgsDelivered.Value())
	}
}
