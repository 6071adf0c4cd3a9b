package shell

import (
	"encoding/binary"
	"testing"

	"repro/internal/sim"
)

// FuzzSlotIsolation drives two slotted shells with random steps: host 0
// (A) sends tenant egress from its slots and plain datagrams to host 1
// (B), whose slots bind datagram kinds. Steps reconfigure and clear
// slots, bind kinds, send, reshape a slot's egress, inject SEUs, fail a
// board and run the clock. A model of the slots checks four things:
//   - a datagram reaches only the slot its kind is bound to, and an
//     unbound kind only the board's own handler;
//   - a slot's ER virtual channel carries exactly that slot's flits;
//   - a reprogramming or empty slot, a hung board role or a dead board
//     swallows exactly the datagrams that were its own;
//   - each slot's egress stays within rate × time + burst since its
//     shaper was last set.
func FuzzSlotIsolation(f *testing.F) {
	// bed picks the slot count and ALM split. Each op byte's low three
	// bits pick the step; its high bits (arg) pick the board, slot, kind,
	// size or duration.
	// Load every slot, bind a kind per B slot, then send, shape and
	// reprogram; later steps hang B's role, clear a slot and fail a board.
	f.Add(uint8(0), []byte{0, 16, 8, 24, 31, 2, 42, 3, 11, 43, 4, 4, 4, 7, 165, 228, 228, 228, 228, 228,
		15, 8, 3, 11, 7, 30, 43, 11, 23, 25, 11, 7, 14, 3, 7})
	f.Add(uint8(5), []byte{0, 16, 32, 48, 8, 24, 40, 56, 31, 2, 42, 82, 122, 10, 3, 11, 19, 27, 35, 43,
		4, 12, 20, 28, 77, 245, 236, 236, 236, 7, 40, 19, 27, 15, 6, 4, 3, 23})
	f.Add(uint8(1), []byte{8, 24, 40, 248, 31, 2, 42, 82, 3, 11, 19, 9, 3, 7, 10, 3, 11, 7, 24, 15, 25, 11, 31, 26, 11, 7})
	f.Add(uint8(14), []byte{0, 8, 16, 1, 9, 17, 31, 31, 2, 10, 18, 3, 19, 35, 8, 3, 19, 6, 3, 11, 15, 9, 3, 7})
	f.Fuzz(func(t *testing.T, bed uint8, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96] // bounds virtual time well below the 30 s scrub
		}
		checkSlotIsolation(t, bed, ops)
	})
}

// isoKinds are the datagram kinds B's slots may bind; the last is never
// bound. egressKind carries A's slot egress to B's board handler.
var isoKinds = []uint8{10, 11, 12, 13, 14, 15}

const (
	egressKind = 99
	// flightMax bounds one unshaped datagram's flight from A's send to
	// B's handler; every clock step runs longer.
	flightMax = 200 * sim.Microsecond
)

// isoSlot models one slot: down, reprogramming until doneAt, or up.
type isoSlot struct {
	cap     int
	reconf  bool
	up      bool
	doneAt  sim.Time
	flitsVC uint64 // flits the slot's VC must have carried
}

// isoBoard models one shell.
type isoBoard struct {
	sh     *Shell
	slots  []isoSlot
	failed bool
	hung   bool
}

// settle turns reconfigurations that finished by now into up slots.
func (b *isoBoard) settle(now sim.Time) {
	for i := range b.slots {
		if s := &b.slots[i]; s.reconf && s.doneAt <= now {
			s.reconf, s.up = false, true
		}
	}
}

// isoEpoch is one setting of an A slot's egress shaper.
type isoEpoch struct {
	rate, burst int64 // bps, bits
	at          sim.Time
	bytes       int64 // payload bytes of this epoch seen at B
}

// isoDgram is one A→B datagram: a plain send to B's kinds, or slot
// egress.
type isoDgram struct {
	kind uint8
	size int
	// want is the handler that must see it: a B slot, -1 for B's board
	// handler, -2 for none, -3 when a reconfiguration ends within its
	// flight (either is allowed).
	want int
	got  int // -2 until delivered
}

func checkSlotIsolation(t *testing.T, bed uint8, ops []byte) {
	n := 2 + int(bed)%3
	// Split the role region by weights 1-4 drawn from bed's high bits.
	weights, sum := make([]int, n), 0
	for i := range weights {
		weights[i] = 1 + int(bed>>(2+i))%4
		sum += weights[i]
	}
	sc := DefaultSlotConfig(n)
	sc.ALMs = make([]int, n)
	for i, w := range weights {
		sc.ALMs[i] = RoleRegionALMs() * w / sum
	}
	s := sim.New(int64(bed) + 1)
	dc, shells := slotBed(s, sc)
	dc.Host(0)
	dc.Host(1)
	boards := [2]*isoBoard{{sh: shells[0]}, {sh: shells[1]}}
	for _, b := range boards {
		for _, c := range sc.ALMs {
			b.slots = append(b.slots, isoSlot{cap: c})
		}
	}
	A, B := boards[0], boards[1]
	B.sh.LoadRole(nil) // a board role for SEUs to hang
	flitBytes := DefaultConfig().ER.FlitBytes
	flits := func(size int) uint64 {
		return uint64(max((size+dgramHeaderLen+flitBytes-1)/flitBytes, 1))
	}

	owner := map[uint8]int{} // B's kind -> slot bindings
	var sent []isoDgram      // by seq
	var pending []int        // seqs sent since the last clock step
	epochs := make([][]isoEpoch, n)
	for i := range epochs {
		epochs[i] = []isoEpoch{{burst: slotBurstBits}}
	}
	var egressRejected, egressBytes uint64
	step := 0

	deliver := func(to int, kind uint8, p []byte) {
		if len(p) < 8 {
			t.Fatalf("step %d: %d-byte datagram of kind %d", step, len(p), kind)
		}
		seq := binary.BigEndian.Uint64(p)
		if seq >= uint64(len(sent)) || sent[seq].kind != kind || sent[seq].size != len(p) {
			t.Fatalf("step %d: handler %d got an unknown datagram (seq %d, kind %d)", step, to, seq, kind)
		}
		d := &sent[seq]
		if d.got != -2 {
			t.Fatalf("step %d: datagram %d delivered twice (handlers %d and %d)", step, seq, d.got, to)
		}
		d.got = to
		if kind == egressKind {
			if to != -1 {
				t.Fatalf("step %d: egress datagram %d reached slot %d", step, seq, to)
			}
			slot, e := int(p[8]), int(binary.BigEndian.Uint16(p[9:]))
			ep := &epochs[slot][e]
			ep.bytes += int64(len(p))
			elapsed := int64(s.Now() - ep.at)
			if ep.rate > 0 && ep.bytes*8*int64(sim.Second) > ep.burst*int64(sim.Second)+elapsed*ep.rate {
				t.Fatalf("step %d: slot %d egress epoch %d delivered %d bytes in %v at %d bps with a %d-bit burst",
					step, slot, e, ep.bytes, sim.Time(elapsed), ep.rate, ep.burst)
			}
			return
		}
		if o, ok := owner[kind]; (ok && o != to) || (!ok && to != -1) {
			t.Fatalf("step %d: kind %d (bound to slot %d: %v) reached handler %d", step, kind, o, ok, to)
		}
	}
	B.sh.SetServiceHandler(func(_ int, kind uint8, p []byte) { deliver(-1, kind, p) })
	slotHandler := make([]func(int, uint8, []byte), n)
	for i := range slotHandler {
		slotHandler[i] = func(_ int, kind uint8, p []byte) { deliver(i, kind, p) }
	}

	// check compares the counters with the model once every pending
	// plain datagram has landed. drained also requires every shaped
	// egress to have left A.
	check := func(drained bool) {
		for i := range n {
			vc := slotVCBase + i
			if got, want := B.sh.Router.Stats.VCFlits[vc].Value(), B.slots[i].flitsVC; got != want {
				t.Fatalf("step %d: B slot %d VC carried %d flits, want %d", step, i, got, want)
			}
			got, want := A.sh.Router.Stats.VCFlits[vc].Value(), A.slots[i].flitsVC
			if got > want || (drained && got != want) {
				t.Fatalf("step %d: A slot %d VC carried %d flits, sent %d", step, i, got, want)
			}
		}
		if got := A.sh.Tenant.DgramsDropped.Value(); got != egressRejected {
			t.Fatalf("step %d: A dropped %d slot sends, want %d", step, got, egressRejected)
		}
		if got := A.sh.Tenant.EgressBytes.Value(); got != egressBytes {
			t.Fatalf("step %d: A egress bytes %d, want %d", step, got, egressBytes)
		}
	}
	// run advances the clock by d after settling the pending plain
	// datagrams' outcomes against the model, then checks them.
	run := func(d sim.Time) {
		now := s.Now()
		A.settle(now)
		B.settle(now)
		var swallowMin, swallowMax uint64
		for _, seq := range pending {
			dg := &sent[seq]
			switch o, bound := owner[dg.kind]; {
			case A.failed || B.failed:
				dg.want = -2
			case !bound:
				dg.want = -1
				if B.hung {
					dg.want = -2
				}
			default:
				sl := &B.slots[o]
				sl.flitsVC += flits(dg.size)
				switch {
				case sl.up:
					dg.want = o
				case sl.reconf && sl.doneAt <= now+flightMax:
					dg.want = -3
					swallowMax++
				default:
					dg.want = -2
					swallowMin++
					swallowMax++
				}
			}
		}
		dropped := B.sh.Tenant.DgramsDropped.Value()
		s.RunFor(d)
		for _, seq := range pending {
			if dg := sent[seq]; dg.want != -3 && dg.got != dg.want {
				t.Fatalf("step %d: datagram %d of kind %d reached handler %d, want %d (-2 = swallowed)",
					step, seq, dg.kind, dg.got, dg.want)
			}
		}
		pending = pending[:0]
		if got := B.sh.Tenant.DgramsDropped.Value() - dropped; got < swallowMin || got > swallowMax {
			t.Fatalf("step %d: B swallowed %d slot datagrams, want %d to %d", step, got, swallowMin, swallowMax)
		}
		A.settle(s.Now())
		B.settle(s.Now())
		check(false)
	}
	newDgram := func(kind uint8, size int) (int, []byte) {
		seq := len(sent)
		sent = append(sent, isoDgram{kind: kind, size: size, got: -2})
		p := make([]byte, size)
		binary.BigEndian.PutUint64(p, uint64(seq))
		return seq, p
	}

	for i, op := range ops {
		step = i
		arg := int(op >> 3)
		now := s.Now()
		A.settle(now)
		B.settle(now)
		switch op % 8 {
		case 0: // reconfigure a slot
			b, si := boards[arg&1], (arg>>1)%n
			sl := &b.slots[si]
			alms := []int{sl.cap / 4, sl.cap / 2, sl.cap, sl.cap + 1}[arg>>3]
			dur, err := b.sh.ReconfigureSlot(si, "t", alms, nil)
			if wantErr := alms > sl.cap || sl.reconf || b.failed; (err != nil) != wantErr {
				t.Fatalf("step %d: reconfigure slot %d (%d of %d ALMs, reconf %v, failed %v): %v",
					i, si, alms, sl.cap, sl.reconf, b.failed, err)
			}
			if err == nil {
				if want := reconfigBase + sim.Time(sl.cap)*reconfigPerALM; dur != want {
					t.Fatalf("step %d: reconfiguration takes %v, want %v", i, dur, want)
				}
				sl.up, sl.reconf, sl.doneAt = false, true, now+dur
			}
		case 1: // clear a slot
			b, si := boards[arg&1], (arg>>1)%n
			if err := b.sh.ClearSlot(si); err != nil {
				t.Fatal(err)
			}
			b.slots[si].up, b.slots[si].reconf = false, false
			if b == B {
				for k, o := range owner {
					if o == si {
						delete(owner, k)
					}
				}
			}
		case 2: // bind one kind to one of B's slots
			si, k := arg%n, isoKinds[(arg>>2)%(len(isoKinds)-1)]
			err := B.sh.SetServiceHandlerSlot(si, []uint8{k}, slotHandler[si])
			if o, ok := owner[k]; (err != nil) != (ok && o != si) {
				t.Fatalf("step %d: binding kind %d to slot %d (owner %d, %v): %v", i, k, si, o, ok, err)
			}
			if err == nil {
				owner[k] = si
			}
		case 3: // plain datagram from A to B
			k := isoKinds[arg%len(isoKinds)]
			seq, p := newDgram(k, 8+(arg>>2)*37)
			A.sh.SendDatagram(1, k, p)
			pending = append(pending, seq)
		case 4: // tenant egress from one of A's slots
			si := arg % n
			size := 16 + (arg>>2)*100
			_, p := newDgram(egressKind, size)
			p[8] = byte(si)
			binary.BigEndian.PutUint16(p[9:], uint16(len(epochs[si])-1))
			err := A.sh.SendDatagramSlot(si, 1, egressKind, p)
			if up := A.slots[si].up && !A.failed; (err == nil) != up {
				t.Fatalf("step %d: egress from slot %d (up %v): %v", i, si, up, err)
			}
			if err != nil {
				egressRejected++
				break
			}
			egressBytes += uint64(size)
			A.slots[si].flitsVC += flits(size)
		case 5: // reshape one of A's slots
			si := arg % n
			rate := []int64{0, 8e6, 64e6, 1e9}[(arg>>2)&3]
			burstBytes := []int{0, 1500}[arg>>4]
			if err := A.sh.SetSlotEgressRate(si, rate, burstBytes); err != nil {
				t.Fatal(err)
			}
			burst := epochs[si][len(epochs[si])-1].burst
			if burstBytes > 0 {
				burst = int64(burstBytes) * 8
			}
			epochs[si] = append(epochs[si], isoEpoch{rate: rate, burst: burst, at: now})
		case 6: // SEU on, or hard failure of, one board
			b := boards[arg&1]
			if (arg>>1)&3 == 0 {
				b.sh.Fail()
				b.failed, b.hung = true, false
				for j := range b.slots {
					b.slots[j].up, b.slots[j].reconf = false, false
				}
				if b == B {
					clear(owner)
				}
				break
			}
			b.sh.InjectSEU(true)
			if b == B && !b.failed {
				b.hung = true
			}
		default: // run the clock
			run([]sim.Time{sim.Millisecond, 3 * sim.Millisecond, 12 * sim.Millisecond, 30 * sim.Millisecond}[arg&3])
		}
	}
	// Drain: the slowest shaper (8 Mbps) needs under 100 ms for every
	// byte this op budget can queue.
	step = len(ops)
	run(100 * sim.Millisecond)
	check(true)
}
