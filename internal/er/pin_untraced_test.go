package er

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRouterDeliveryPin is the untraced twin of TestRouterSchedulePin.
// With no tracer attached, terminal-only routers carry the traffic the
// shells do: short messages on an idle router, some longer than the
// sender's 64-flit credit pool, and sends that land on the exact
// nanosecond of a cycle edge of a message still in flight — some
// scheduled long before (they reach the router ahead of that edge's
// tick), some scheduled at the edge itself or by a delivery handler
// (they reach it after). The digest folds every OnMessage instant and
// order, and every Stats counter read through a metrics registry at
// mid-run snapshots and after the drain.
func TestRouterDeliveryPin(t *testing.T) {
	three := DefaultConfig()
	three.Ports = 3
	slotted := DefaultConfig()
	slotted.VCs = 6
	cases := []struct {
		name  string
		cfg   Config
		ports []int // ports with a terminal; node id = port
		msgs  int
		want  uint64
	}{
		{"three-2vc", three, []int{0, 1, 2}, 500, 0xaa326c7b4a47fb19},
		{"slotted-4x6", slotted, []int{PortPCIe, PortRole, PortRemote}, 500, 0x3a825929187a07a},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(11)
			reg := obs.NewRegistry()
			s.SetObsData(&obs.Context{Sim: s, Registry: reg})
			r := New(s, c.cfg)
			clock := c.cfg.ClockPeriod
			d := &scheduleDigest{h: fnv.New64a()}
			rng := rand.New(rand.NewSource(int64(len(c.name))))

			terms := make([]*Terminal, 0, len(c.ports))
			for _, p := range c.ports {
				terms = append(terms, NewTerminal(s, r, p, p, c.cfg.BufFlits))
			}

			// inFlight maps a message's sequence number to its send
			// instant and flit count until it is delivered.
			type sent struct {
				at    sim.Time
				flits int
			}
			inFlight := map[uint64]sent{}
			var sends, onEdge int
			var seq uint64
			send := func(src *Terminal, dst, vc, size int) {
				for _, m := range inFlight {
					now := s.Now()
					if now > m.at && (now-m.at)%clock == 0 && now <= m.at+sim.Time(m.flits+3)*clock {
						onEdge++
						break
					}
				}
				sends++
				payload := make([]byte, max(size, 8))
				binary.LittleEndian.PutUint64(payload, seq)
				for i := 8; i < len(payload); i++ {
					payload[i] = byte(int(seq) + i)
				}
				inFlight[seq] = sent{s.Now(), (max(size, 8) + c.cfg.FlitBytes - 1) / c.cfg.FlitBytes}
				seq++
				src.Send(dst, vc, payload[:max(size, 8)])
			}
			// pick draws a message: source, destination node, VC and
			// size. One in twelve is longer than the 64-flit pool.
			pick := func() (*Terminal, int, int, int) {
				src := terms[rng.Intn(len(terms))]
				dst := c.ports[rng.Intn(len(c.ports))]
				size := rng.Intn(301)
				if rng.Intn(12) == 0 {
					size = 64*c.cfg.FlitBytes + 1 + rng.Intn(600)
				}
				return src, dst, rng.Intn(c.cfg.VCs), size
			}
			for _, term := range terms {
				term := term
				term.OnMessage = func(m *Message) {
					id := binary.LittleEndian.Uint64(m.Payload)
					delete(inFlight, id)
					d.add(int64(s.Now()), int64(term.Node), int64(m.SrcNode), int64(m.VC),
						int64(id), int64(len(m.Payload)))
					FreeMessage(m)
					if seq >= uint64(c.msgs) {
						return
					}
					// Reply in the handler (after the delivery edge's
					// events), or a whole number of cycles later.
					switch rng.Intn(4) {
					case 0:
						_, dst, vc, size := pick()
						send(term, dst, vc, size)
					case 1:
						src, dst, vc, size := pick()
						s.Schedule(sim.Time(2+rng.Intn(6))*clock, func() { send(src, dst, vc, size) })
					}
				}
			}

			snapshot := func() {
				for _, smp := range reg.Snapshot() {
					if !strings.HasPrefix(smp.Name, "er.") {
						continue
					}
					d.h.Write([]byte(smp.Name))
					d.add(int64(smp.N), smp.V, smp.Peak)
				}
			}
			// Bursts: a send at a random instant, then up to two
			// followups on exact cycle edges of its flight. Half the followups are
			// scheduled now, from time zero; the other half by an event
			// on the edge itself.
			at := sim.Time(0)
			for b := 0; b < c.msgs/3; b++ {
				at += sim.Time(1 + rng.Intn(1500))
				base := at
				src, dst, vc, size := pick()
				s.Schedule(base, func() { send(src, dst, vc, size) })
				span := (max(size, 8)+c.cfg.FlitBytes-1)/c.cfg.FlitBytes + 3
				for k := rng.Intn(3); k > 0; k-- {
					edge := base + sim.Time(1+rng.Intn(span))*clock
					src, dst, vc, size := pick()
					if rng.Intn(2) == 0 {
						s.Schedule(edge, func() { send(src, dst, vc, size) })
					} else {
						s.Schedule(edge, func() {
							s.Schedule(0, func() { send(src, dst, vc, size) })
						})
					}
				}
				if rng.Intn(3) == 0 {
					s.Schedule(base+sim.Time(rng.Intn(20))*clock+sim.Time(rng.Intn(2)), snapshot)
				}
			}
			s.RunFor(10 * sim.Millisecond)
			if s.Pending() != 0 {
				t.Fatalf("%d events still pending after the drain", s.Pending())
			}
			if len(inFlight) != 0 {
				t.Fatalf("%d messages never arrived", len(inFlight))
			}
			snapshot()
			if onEdge*5 < sends {
				t.Fatalf("only %d of %d sends landed on a cycle edge of a message in flight", onEdge, sends)
			}
			if got := d.h.Sum64(); got != c.want {
				t.Errorf("delivery digest = %#x, want %#x (%d sends, %d on an edge)", got, c.want, sends, onEdge)
			}
		})
	}
}
