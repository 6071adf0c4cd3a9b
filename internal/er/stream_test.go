package er

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The per-flit router is the reference a stream is checked against. A
// router with a tracer attached never streams (every stalled cycle is a
// span event), so the reference is the same router run traced: it gives
// every flit its tick, delivery and credit events, exactly as before
// streams existed, and TestRouterSchedulePin pins that path.

// streamRig is one router shape and a script of timed operations on it.
type streamRig struct {
	cfg     Config
	recvBuf []int // per-terminal receive buffering; a terminal per port
	ops     []streamOp
}

// streamOp is one scripted operation at instant at. Kinds: send, a send
// scheduled with zero delay by an event at at, a send an event at at
// schedules delay later, a Stats snapshot, a read of every terminal's
// credits and queue.
type streamOp struct {
	kind         int
	at, delay    sim.Time
	src, dst, vc int
	size         int
}

const (
	opKindSend = iota
	opKindSendLater
	opKindSendDelayed
	opKindSnapshot
	opKindCredits
	opKinds
)

// runStreamRig runs rig with the router traced (the per-flit reference)
// or untraced (streams on) and returns every observation in order.
func runStreamRig(rig streamRig, traced bool) []string {
	s := sim.New(3)
	if traced {
		obs.Enable(s).Tracer.SetLimit(1 << 20)
	}
	r := New(s, rig.cfg)
	terms := make([]*Terminal, rig.cfg.Ports)
	for p := range terms {
		terms[p] = NewTerminal(s, r, p, p, rig.recvBuf[p])
	}
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
	}
	var seq uint64
	send := func(src, dst, vc, size int) {
		payload := make([]byte, max(size, 8))
		binary.LittleEndian.PutUint64(payload, seq)
		for i := 8; i < len(payload); i++ {
			payload[i] = byte(int(seq) * i)
		}
		seq++
		terms[src].Send(dst, vc, payload)
	}
	replies := 0
	for p, term := range terms {
		p := p
		term.OnMessage = func(m *Message) {
			note("msg to %d from %d vc %d id %d len %d", p, m.SrcNode, m.VC,
				binary.LittleEndian.Uint64(m.Payload), len(m.Payload))
			replies++
			if replies%4 == 0 && seq < 1000 {
				// Reply at once: the handler runs after the tail edge's
				// work, so this send reaches the router after it.
				send(p, (p+1)%len(terms), int(seq)%rig.cfg.VCs, 8+int(seq%100))
			}
			FreeMessage(m)
		}
	}
	snapshot := func() {
		st := &r.Stats
		line := fmt.Sprintf("stats sw %d msgs %d nocredit %d conflict %d occ %d/%d cycles %d vc",
			st.FlitsSwitched.Value(), st.MsgsDelivered.Value(), st.StallNoCredit.Value(),
			st.StallConflict.Value(), st.BufOccupancy.Value(), st.BufOccupancy.Watermark(),
			st.Cycles.Value())
		for v := range st.VCFlits {
			line += fmt.Sprintf(" %d", st.VCFlits[v].Value())
		}
		note("%s", line)
	}
	credits := func() {
		line := "credits"
		for _, term := range terms {
			line += fmt.Sprintf(" | pend %d", term.PendingSend())
			if term.sharedMode {
				line += fmt.Sprintf(" shared %d", term.sendShared)
			} else {
				line += fmt.Sprintf(" %v", term.sendCredits)
			}
		}
		for _, out := range r.outputs {
			line += fmt.Sprintf(" | out %v rr %d", out.credits, out.rr)
		}
		note("%s", line)
	}
	for _, op := range rig.ops {
		op := op
		switch op.kind {
		case opKindSend:
			s.Schedule(op.at, func() { send(op.src, op.dst, op.vc, op.size) })
		case opKindSendLater:
			s.Schedule(op.at, func() {
				s.Schedule(0, func() { send(op.src, op.dst, op.vc, op.size) })
			})
		case opKindSendDelayed:
			s.Schedule(op.at, func() {
				s.Schedule(op.delay, func() { send(op.src, op.dst, op.vc, op.size) })
			})
		case opKindSnapshot:
			s.Schedule(op.at, snapshot)
		case opKindCredits:
			s.Schedule(op.at, credits)
		}
	}
	s.RunFor(50 * sim.Millisecond)
	snapshot()
	credits()
	note("pending %d", s.Pending())
	return log
}

// genStreamRig draws a rig from seed: a terminal-only router with 2-6
// ports and 1-6 VCs, and a script whose sends cluster in bursts. After a
// burst's first send, the others land on that message's cycle edges (or
// one nanosecond off), reaching the router before or after the edge's
// work; snapshots and credit reads fall on edges too.
func genStreamRig(seed int64) streamRig {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Ports = 2 + rng.Intn(5)
	cfg.VCs = 1 + rng.Intn(6)
	cfg.Elastic = rng.Intn(3) != 0
	cfg.BufFlits = cfg.VCs * (1 + rng.Intn(16))
	if rng.Intn(2) == 0 {
		cfg.BufFlits = 64
	}
	cfg.ClockPeriod = sim.Time(4 + rng.Intn(5))
	rig := streamRig{cfg: cfg}
	for p := 0; p < cfg.Ports; p++ {
		rig.recvBuf = append(rig.recvBuf, cfg.VCs*(1+rng.Intn(6)))
	}
	p := cfg.ClockPeriod
	at := sim.Time(0)
	for b := 0; b < 40; b++ {
		at += sim.Time(rng.Intn(3000))
		op := func(kind int, at sim.Time) streamOp {
			size := rng.Intn(200)
			if rng.Intn(10) == 0 {
				size = rng.Intn(3000)
			}
			o := streamOp{kind: kind, at: at, src: rng.Intn(cfg.Ports), dst: rng.Intn(cfg.Ports),
				vc: rng.Intn(cfg.VCs), size: size}
			if kind == opKindSendDelayed {
				// Whole cycles, two or more: one period exactly is the
				// tie the router cannot order (see ROADMAP, Decided).
				o.delay = sim.Time(2+rng.Intn(6)) * p
				if rng.Intn(3) == 0 {
					o.delay += sim.Time(1 + rng.Intn(int(p)-1))
				}
			}
			return o
		}
		first := op(opKindSend, at)
		rig.ops = append(rig.ops, first)
		span := (first.size+cfg.FlitBytes-1)/cfg.FlitBytes + 4
		for k := rng.Intn(4); k > 0; k-- {
			edge := at + sim.Time(1+rng.Intn(span))*p
			if rng.Intn(6) == 0 {
				edge++
			}
			kind := rng.Intn(opKinds)
			rig.ops = append(rig.ops, op(kind, edge))
		}
	}
	return rig
}

// compareStream runs rig both ways and fails on the first difference.
func compareStream(t *testing.T, rig streamRig) {
	t.Helper()
	got, want := runStreamRig(rig, false), runStreamRig(rig, true)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("config %+v\nobservation %d differs:\nstream    %s\nper-flit  %s", rig.cfg, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("stream made %d observations, per-flit %d", len(got), len(want))
	}
}

// TestStreamMatchesFlits checks streams against the per-flit router on
// seeded rigs: every delivery instant and order, every Stats counter
// (both stall counters too) at snapshots taken mid-stream and after the
// drain, and every terminal's credits and queue.
func TestStreamMatchesFlits(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < int64(n); seed++ {
		compareStream(t, genStreamRig(seed))
	}
}

// TestStreamsRun checks that the rigs exercise streams at all: an
// untraced lone message fires three events (two for the stream and one
// for OnMessage), not one per flit.
func TestStreamsRun(t *testing.T) {
	s := sim.New(1)
	_, terms := buildRouter(s, DefaultConfig())
	got := collect(terms[PortRemote])
	terms[PortRole].Send(PortRemote, 0, make([]byte, 20*32))
	s.RunFor(sim.Microsecond)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(*got))
	}
	if f := s.Fired(); f != 3 {
		t.Errorf("a 20-flit message fired %d events, want 3", f)
	}
}

// FuzzStreamMatchesFlits is TestStreamMatchesFlits over fuzzer-chosen
// seeds.
func FuzzStreamMatchesFlits(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compareStream(t, genStreamRig(seed))
	})
}
