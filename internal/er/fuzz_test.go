package er

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Fuzz input layout. The five header bytes pick the router; every
// following 4-byte group is one script op.
const (
	fuzzPorts = iota // 2 + b%11 ports
	fuzzVCs          // 1 + b%6 VCs
	fuzzFlags        // bit 0 elastic, bit 1 rotated Route, bit 2 2x2 mesh
	fuzzBuf          // input buffer VCs + b%64 flits
	fuzzSinks        // bit p: port p is a stalled sink (port 0 never is)
	fuzzHeader
)

// Script ops (first byte of a group, mod 4).
const (
	opSend    = iota // src term b1, dst node b2, vc b3, 8+4*(b0>>2) bytes
	opAdvance        // run (b1+1) router cycles
	opStall          // toggle sink b1's stall
	opBurst          // term b1 sends 4 messages to node b2 on vc b3
)

// fuzzSeed encodes a router header followed by a pseudo-random script.
func fuzzSeed(header [fuzzHeader]byte, ops int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := append([]byte(nil), header[:]...)
	for i := 0; i < ops; i++ {
		b = append(b, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return b
}

// FuzzRouter drives a fuzzer-chosen router (ports, VCs, credit policy,
// routing, stalled sinks) with a fuzzer-chosen send script, drains it,
// and checks the conservation ledgers: every message arrives exactly once
// and intact; per (source, destination, VC) messages arrive in send
// order; every output's credits are back at their initial value; and no
// input buffers a flit or marks a FIFO occupied.
func FuzzRouter(f *testing.F) {
	f.Add(fuzzSeed([fuzzHeader]byte{2, 1, 1, 62, 1 << PortRemote}, 64, 1)) // 4x2 elastic, stalled sink
	f.Add(fuzzSeed([fuzzHeader]byte{2, 1, 0, 62, 0}, 64, 2))               // 4x2 static
	f.Add(fuzzSeed([fuzzHeader]byte{2, 1, 4, 62, 0}, 64, 3))               // 2x2 routed mesh
	f.Add(fuzzSeed([fuzzHeader]byte{2, 5, 1, 58, 0}, 64, 4))               // 4x6 slotted size
	f.Add(fuzzSeed([fuzzHeader]byte{10, 5, 3, 42, 1<<5 | 1<<7}, 96, 5))    // 12x6 routed, two sinks
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzHeader {
			return
		}
		if len(data) > fuzzHeader+4*128 {
			data = data[:fuzzHeader+4*128]
		}
		s := sim.New(1)
		flags := data[fuzzFlags]
		var routers []*Router
		var terms []*Terminal
		var sinks []*tapSink
		var nodes []int // every addressable node
		vcs := 1 + int(data[fuzzVCs])%6

		type flow struct{ src, dst, vc int }
		sent := map[flow][]uint64{}
		got := map[flow][]uint64{}
		want := map[uint64][]byte{}
		deliver := func(dst, src, vc int, payload []byte) {
			if len(payload) < 8 {
				t.Fatalf("node %d got a %d-byte message from %d", dst, len(payload), src)
			}
			id := binary.LittleEndian.Uint64(payload)
			w, ok := want[id]
			if !ok {
				t.Fatalf("node %d got message %d twice or never sent", dst, id)
			}
			if !bytes.Equal(w, payload) {
				t.Fatalf("message %d corrupted", id)
			}
			delete(want, id)
			got[flow{src, dst, vc}] = append(got[flow{src, dst, vc}], id)
		}

		if flags&4 != 0 {
			vcs = 2
			routers, terms = buildMesh(t, s, 2, 2)
			nodes = []int{0, 1, 2, 3}
		} else {
			cfg := DefaultConfig()
			cfg.Ports = 2 + int(data[fuzzPorts])%11
			cfg.VCs = vcs
			cfg.BufFlits = vcs + int(data[fuzzBuf])%64
			cfg.Elastic = flags&1 != 0
			// Rotated routing: the node at port p is (p+rot) mod Ports.
			rot := 0
			if flags&2 != 0 {
				rot = 1 + int(data[fuzzBuf])%(cfg.Ports-1)
				ports := cfg.Ports
				cfg.Route = func(dst int) int { return (dst - rot + ports) % ports }
			}
			r := New(s, cfg)
			routers = append(routers, r)
			for p := 0; p < cfg.Ports; p++ {
				node := (p + rot) % cfg.Ports
				nodes = append(nodes, node)
				if p == 0 || p >= 8 || data[fuzzSinks]&(1<<p) == 0 {
					terms = append(terms, NewTerminal(s, r, p, node, vcs*(1+p%3)))
					continue
				}
				// Reassemble as a Terminal does: one message at a time per VC.
				partial := make([][]byte, vcs)
				k := &tapSink{stalledSink: stalledSink{s: s, r: r, port: p}}
				k.onFlit = func(f *Flit) {
					partial[f.VC] = append(partial[f.VC], f.Data...)
					if f.Tail {
						deliver(node, f.SrcNode, f.VC, partial[f.VC])
						partial[f.VC] = nil
					}
				}
				r.Attach(p, k, nil)
				sinks = append(sinks, k)
			}
		}
		for _, term := range terms {
			node := term.Node
			term.OnMessage = func(m *Message) {
				deliver(node, m.SrcNode, m.VC, m.Payload)
				FreeMessage(m)
			}
		}

		var seq uint64
		send := func(src *Terminal, dst, vc, n int) {
			payload := make([]byte, n)
			binary.LittleEndian.PutUint64(payload, seq)
			for i := 8; i < n; i++ {
				payload[i] = byte(seq) ^ byte(i)
			}
			want[seq] = payload
			fl := flow{src.Node, dst, vc}
			sent[fl] = append(sent[fl], seq)
			seq++
			src.Send(dst, vc, payload)
		}
		clock := routers[0].cfg.ClockPeriod
		for op := data[fuzzHeader:]; len(op) >= 4; op = op[4:] {
			src := terms[int(op[1])%len(terms)]
			dst := nodes[int(op[2])%len(nodes)]
			vc := int(op[3]) % vcs
			switch op[0] % 4 {
			case opSend:
				send(src, dst, vc, 8+4*int(op[0]>>2))
			case opAdvance:
				s.RunFor(sim.Time(int(op[1])+1) * clock)
			case opStall:
				if len(sinks) > 0 {
					k := sinks[int(op[1])%len(sinks)]
					if k.stalled {
						k.release()
					} else {
						k.stalled = true
					}
				}
			case opBurst:
				for i := 0; i < 4; i++ {
					send(src, dst, vc, 8+int(op[0]>>2))
				}
			}
		}
		for _, k := range sinks {
			k.release()
		}
		s.RunFor(100 * sim.Millisecond)
		if s.Pending() != 0 {
			t.Fatalf("%d events still pending after the drain", s.Pending())
		}

		if len(want) != 0 {
			t.Fatalf("%d of %d messages never arrived", len(want), seq)
		}
		for fl, ids := range sent {
			g := got[fl]
			for i := range ids {
				if i >= len(g) || g[i] != ids[i] {
					t.Fatalf("flow %+v arrived as %v, sent as %v", fl, g, ids)
				}
			}
		}
		for _, r := range routers {
			if n := r.Stats.BufOccupancy.Value(); n != 0 {
				t.Fatalf("router %s still buffers %d flits", r.cfg.Name, n)
			}
			for w, word := range r.occ {
				if word != 0 {
					t.Fatalf("router %s occupancy word %d = %#x after drain", r.cfg.Name, w, word)
				}
			}
			for i, in := range r.inputs {
				if in.used != 0 {
					t.Fatalf("router %s input %d counts %d buffered flits", r.cfg.Name, i, in.used)
				}
			}
			for o, out := range r.outputs {
				if out.peer == nil {
					continue
				}
				if pool := out.peer.SharedCredits(); pool > 0 {
					if out.shared != pool {
						t.Fatalf("router %s output %d holds %d of %d shared credits", r.cfg.Name, o, out.shared, pool)
					}
					continue
				}
				for v, c := range out.credits {
					if init := out.peer.InitialCredits(v); c != init {
						t.Fatalf("router %s output %d vc %d holds %d of %d credits", r.cfg.Name, o, v, c, init)
					}
				}
			}
		}
		for _, term := range terms {
			if n := term.PendingSend(); n != 0 {
				t.Fatalf("terminal %d still queues %d flits", term.Node, n)
			}
			for v, m := range term.partial {
				if m != nil {
					t.Fatalf("terminal %d holds a partial message on vc %d", term.Node, v)
				}
			}
		}
	})
}
