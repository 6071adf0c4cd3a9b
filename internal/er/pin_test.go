package er

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// tapSink is a stalledSink that also reports every flit it accepts, so
// the schedule pin and the fuzz ledgers see deliveries into a
// credit-withholding port.
type tapSink struct {
	stalledSink
	onFlit func(f *Flit)
}

func (k *tapSink) AcceptFlit(f *Flit) {
	k.onFlit(f)
	k.stalledSink.AcceptFlit(f)
}

// scheduleDigest folds a router run's observable schedule into one
// FNV-1a hash.
type scheduleDigest struct{ h hash.Hash64 }

func (d *scheduleDigest) add(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

// pinTraffic drives seeded random traffic from terms (each to a random
// node in dsts, on a random VC) over the first 20us, then drains.
// Payload byte 0..7 carry the send sequence number, so each delivery
// names its message.
func pinTraffic(s *sim.Simulation, rng *rand.Rand, terms []*Terminal, dsts []int, vcs, msgs int) {
	for n := 0; n < msgs; n++ {
		src := terms[rng.Intn(len(terms))]
		dst := dsts[rng.Intn(len(dsts))]
		vc := rng.Intn(vcs)
		payload := make([]byte, 8+rng.Intn(200))
		binary.LittleEndian.PutUint64(payload, uint64(n))
		for i := 8; i < len(payload); i++ {
			payload[i] = byte(n + i)
		}
		at := sim.Time(rng.Int63n(int64(20 * sim.Microsecond)))
		s.Schedule(at, func() { src.Send(dst, vc, payload) })
	}
}

// TestRouterSchedulePin pins the Elastic Router's switch-allocation
// schedule bit for bit: every delivery (virtual time, port, source,
// message), every Stats counter, and the tracer's span sequence (which
// carries every er.stall_* event in order), over seeded random traffic
// on five router shapes. Any change to arbitration order, stall
// accounting or delivery timing moves the digest. The fired-event count
// is run cost and stays out: a change that drops idle events without
// moving a delivery leaves the digest alone.
func TestRouterSchedulePin(t *testing.T) {
	type build func(s *sim.Simulation, d *scheduleDigest) (routers []*Router, terms []*Terminal, dsts []int)
	// single wires one router with terminals on every port except those
	// in sinkPorts, which get credit-withholding sinks that stall from
	// 5us to 25us of the run.
	single := func(cfg Config, sinkPorts ...int) build {
		return func(s *sim.Simulation, d *scheduleDigest) ([]*Router, []*Terminal, []int) {
			r := New(s, cfg)
			var terms []*Terminal
			var sinks []*tapSink
			var dsts []int
			for p := 0; p < cfg.Ports; p++ {
				dsts = append(dsts, p)
				isSink := false
				for _, sp := range sinkPorts {
					isSink = isSink || sp == p
				}
				if !isSink {
					terms = append(terms, NewTerminal(s, r, p, p, 4*cfg.VCs))
					continue
				}
				p := p
				k := &tapSink{stalledSink: stalledSink{s: s, r: r, port: p}}
				k.onFlit = func(f *Flit) {
					d.add(int64(s.Now()), int64(p), int64(f.SrcNode), int64(f.MsgID), int64(f.VC), int64(len(f.Data)))
				}
				r.Attach(p, k, nil)
				sinks = append(sinks, k)
			}
			s.Schedule(5*sim.Microsecond, func() {
				for _, k := range sinks {
					k.stalled = true
				}
			})
			s.Schedule(25*sim.Microsecond, func() {
				for _, k := range sinks {
					k.release()
				}
			})
			return []*Router{r}, terms, dsts
		}
	}
	slotted := DefaultConfig()
	slotted.VCs = 6
	wide := DefaultConfig()
	wide.Name = "wide"
	wide.Ports = 12
	wide.VCs = 6
	wide.BufFlits = 48
	static := DefaultConfig()
	static.Elastic = false
	cases := []struct {
		name  string
		build build
		vcs   int
		msgs  int
		want  uint64
	}{
		{"elastic-4x2-sink", single(DefaultConfig(), PortRemote), 2, 400, 0x6c257839b6179f17},
		{"static-4x2", single(static), 2, 400, 0x2fc1e664c674515a},
		{"mesh-2x2", func(s *sim.Simulation, d *scheduleDigest) ([]*Router, []*Terminal, []int) {
			routers, terms := buildMesh(t, s, 2, 2)
			return routers, terms, []int{0, 1, 2, 3}
		}, 2, 300, 0x94c10c09a208b66b},
		{"slotted-4x6", single(slotted), 6, 400, 0x3e6ce55a86177b6d},
		{"wide-12x6-sink", single(wide, 5, 11), 6, 600, 0x218ecfacb0b83f4c},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(7)
			obs.Enable(s)
			obs.TracerOf(s).SetLimit(1 << 20)
			d := &scheduleDigest{h: fnv.New64a()}
			routers, terms, dsts := c.build(s, d)
			for _, term := range terms {
				node := term.Node
				term.OnMessage = func(m *Message) {
					d.add(int64(s.Now()), int64(node), int64(m.SrcNode), int64(m.VC),
						int64(binary.LittleEndian.Uint64(m.Payload)), int64(len(m.Payload)))
					FreeMessage(m)
				}
			}
			pinTraffic(s, rand.New(rand.NewSource(int64(len(c.name)))), terms, dsts, c.vcs, c.msgs)
			s.RunFor(10 * sim.Millisecond)
			if s.Pending() != 0 {
				t.Fatalf("%d events still pending after the drain", s.Pending())
			}
			var noCredit, conflict int64
			for _, r := range routers {
				st := &r.Stats
				if st.BufOccupancy.Value() != 0 {
					t.Fatalf("router %s still buffers %d flits", r.cfg.Name, st.BufOccupancy.Value())
				}
				d.add(int64(st.FlitsSwitched.Value()), int64(st.MsgsDelivered.Value()),
					int64(st.StallNoCredit.Value()), int64(st.StallConflict.Value()),
					int64(st.BufOccupancy.Value()), int64(st.Cycles.Value()))
				for v := range st.VCFlits {
					d.add(int64(st.VCFlits[v].Value()))
				}
				noCredit += int64(st.StallNoCredit.Value())
				conflict += int64(st.StallConflict.Value())
			}
			tr := obs.TracerOf(s)
			stalls := 0
			for _, sp := range tr.Spans() {
				d.h.Write([]byte(sp.Name))
				d.add(int64(sp.Flow), int64(sp.Start), int64(sp.End), sp.Arg)
				if strings.HasPrefix(sp.Name, "er.stall_") {
					stalls++
				}
			}
			if tr.Dropped() != 0 {
				t.Fatalf("tracer dropped %d spans", tr.Dropped())
			}
			if conflict == 0 {
				t.Fatal("traffic never lost switch arbitration; the pin would not cover StallConflict")
			}
			if strings.HasSuffix(c.name, "-sink") && noCredit == 0 {
				t.Fatal("the stalled sink never withheld a credit; the pin would not cover StallNoCredit")
			}
			if got := d.h.Sum64(); got != c.want {
				t.Errorf("schedule digest = %#x, want %#x (%d stall events, %d no-credit, %d conflict)",
					got, c.want, stalls, noCredit, conflict)
			}
		})
	}
}
