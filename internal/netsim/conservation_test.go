package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ltl"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Frame conservation: every lossless frame injected into the fabric is
// either delivered or still attributable to an explicit drop/dead-port
// counter — the fabric never silently loses traffic.
func TestPropertyFrameConservation(t *testing.T) {
	f := func(seed int64, nMsgs uint8, sizes []uint16) bool {
		s := sim.New(seed)
		cfg := DefaultConfig()
		cfg.HostsPerTOR = 4
		cfg.TORsPerPod = 2
		cfg.Pods = 2
		dc := NewDatacenter(s, cfg)
		hosts := []*Host{dc.Host(0), dc.Host(1), dc.Host(4), dc.Host(8)}
		delivered := 0
		for _, h := range hosts {
			h.RegisterUDP(5, func(*pkt.Frame) { delivered++ })
		}
		rng := rand.New(rand.NewSource(seed))
		sent := 0
		n := int(nMsgs)%60 + 1
		for i := 0; i < n; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			size := 64
			if len(sizes) > 0 {
				size += int(sizes[i%len(sizes)]) % 1300
			}
			src.SendUDPRaw(dst.IP(), 5, 5, pkt.ClassLTL, make([]byte, size))
			sent++
		}
		s.RunFor(100 * sim.Millisecond)
		// Lossless class with PFC: all frames between instantiated hosts
		// must arrive.
		return delivered == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(101))}); err != nil {
		t.Fatal(err)
	}
}

// §II-B: "A third failure of the 40 Gb link to the TOR was found not to
// be an FPGA failure, and was resolved by replacing a network cable."
func TestCableFailureAndReplacement(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 2
	cfg.Pods = 1
	dc := NewDatacenter(s, cfg)
	h0, h1 := dc.Host(0), dc.Host(1)
	got := 0
	h1.RegisterUDP(5, func(*pkt.Frame) { got++ })

	h0.SendUDP(h1.IP(), 5, 5, pkt.ClassBestEffort, []byte("before"))
	s.RunFor(sim.Millisecond)
	if got != 1 {
		t.Fatal("baseline delivery failed")
	}

	// The cable between host 1 and its TOR port fails.
	tor := dc.TOR(0, 0)
	torPort := tor.Port(1)
	peer := torPort.Peer()
	Unwire(torPort)
	h0.SendUDP(h1.IP(), 5, 5, pkt.ClassBestEffort, []byte("lost"))
	s.RunFor(sim.Millisecond)
	if got != 1 {
		t.Fatal("frame delivered over a dead cable")
	}
	if tor.Stats().DeadPort.Value() == 0 {
		t.Error("dead-port drop not counted")
	}

	// Replace the cable: connectivity returns with no other repair.
	Wire(torPort, peer)
	h0.SendUDP(h1.IP(), 5, 5, pkt.ClassBestEffort, []byte("after"))
	s.RunFor(sim.Millisecond)
	if got != 2 {
		t.Fatal("replacement cable did not restore connectivity")
	}
}

// Injected faults keep the books balanced: frames eaten, duplicated, or
// mangled by a fault hook are counted separately from congestion drops,
// and the delivery identity
//
//	delivered == sent - DropsInjected + DupsInjected
//
// reconciles exactly (a corrupted frame that no longer parses counts as
// both CorruptInjected and DropsInjected; one that still parses is
// delivered carrying garbage).
func TestInjectedDropAccountingReconciles(t *testing.T) {
	s := sim.New(3)
	cfg := DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 2
	cfg.Pods = 1
	dc := NewDatacenter(s, cfg)
	h0, h1 := dc.Host(0), dc.Host(1)
	delivered := 0
	h1.RegisterUDP(5, func(*pkt.Frame) { delivered++ })

	// Hook the TOR's egress port toward h1 with a deterministic fault mix.
	port := dc.TOR(0, 0).Port(1)
	seen := 0
	port.SetFaultHook(func(_ *Port, packet *Packet) FaultDecision {
		seen++
		switch {
		case seen%5 == 0:
			return FaultDecision{Op: FaultDrop}
		case seen%7 == 0:
			return FaultDecision{Op: FaultDuplicate, Delay: sim.Microsecond}
		case seen%11 == 0:
			// Mangle the IPv4 total length (byte 20 with the VLAN tag):
			// the header checksum fails, the peer MAC rejects the frame,
			// and it becomes an injected drop.
			return FaultDecision{Op: FaultCorrupt, Corrupt: func(buf []byte) { buf[20] ^= 0xff }}
		case seen%13 == 0:
			// Mangle a UDP payload byte (offset 46+ with the VLAN tag):
			// still parses, delivered as garbage.
			return FaultDecision{Op: FaultCorrupt, Corrupt: func(buf []byte) { buf[50] ^= 0xff }}
		}
		return FaultDecision{}
	})

	const sent = 200
	for i := 0; i < sent; i++ {
		d := sim.Time(i) * 10 * sim.Microsecond
		s.Schedule(d, func() {
			h0.SendUDPRaw(h1.IP(), 5, 5, pkt.ClassLTL, make([]byte, 128))
		})
	}
	s.RunFor(100 * sim.Millisecond)

	st := port.Stats()
	if st.DropsInjected.Value() == 0 || st.DupsInjected.Value() == 0 || st.CorruptInjected.Value() == 0 {
		t.Fatalf("fault mix did not exercise all classes: drops=%d dups=%d corrupt=%d",
			st.DropsInjected.Value(), st.DupsInjected.Value(), st.CorruptInjected.Value())
	}
	if st.DropsRED.Value() != 0 || st.DropsTail.Value() != 0 {
		t.Fatalf("injected faults leaked into congestion counters: red=%d tail=%d",
			st.DropsRED.Value(), st.DropsTail.Value())
	}
	want := sent - int(st.DropsInjected.Value()) + int(st.DupsInjected.Value())
	if delivered != want {
		t.Fatalf("delivered %d, want %d (= %d sent - %d injected drops + %d injected dups)",
			delivered, want, sent, st.DropsInjected.Value(), st.DupsInjected.Value())
	}
	// The undecodable-corruption path fired: more injected drops than the
	// every-5th rule alone accounts for.
	if st.DropsInjected.Value() <= uint64(sent/5) {
		t.Fatalf("corrupt-to-drop path did not fire: drops=%d", st.DropsInjected.Value())
	}
}

// hostWire adapts a netsim Host into an ltl.Wire so an engine can ride a
// plain host NIC in tests.
type hostWire struct{ h *Host }

func (w hostWire) Output(buf []byte) { w.h.NIC().Enqueue(NewPacket(buf)) }
func (w hostWire) LocalIP() pkt.IP   { return w.h.IP() }
func (w hostWire) LocalMAC() pkt.MAC { return w.h.MAC() }

// The DisableNACK ablation under injected loss: with fast retransmit off,
// recovery must come from the 50 µs go-back-N timeout path alone — and
// every payload byte still arrives exactly once, in order.
func TestDisableNACKRecoversViaTimeoutUnderLoss(t *testing.T) {
	s := sim.New(9)
	cfg := DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 2
	cfg.Pods = 1
	dc := NewDatacenter(s, cfg)
	h0, h1 := dc.Host(0), dc.Host(1)

	lcfg := ltl.DefaultConfig()
	lcfg.DisableNACK = true
	sender := ltl.New(s, hostWire{h0}, lcfg)
	receiver := ltl.New(s, hostWire{h1}, lcfg)
	h0.RegisterUDP(pkt.LTLPort, func(f *pkt.Frame) { sender.HandleFrame(f) })
	h1.RegisterUDP(pkt.LTLPort, func(f *pkt.Frame) { receiver.HandleFrame(f) })

	// Drop every 6th LTL frame toward the receiver.
	port := dc.TOR(0, 0).Port(1)
	seen := 0
	port.SetFaultHook(func(_ *Port, packet *Packet) FaultDecision {
		if packet.Class() != pkt.ClassLTL {
			return FaultDecision{}
		}
		seen++
		if seen%6 == 0 {
			return FaultDecision{Op: FaultDrop}
		}
		return FaultDecision{}
	})

	const (
		msgs    = 50
		msgSize = 256
	)
	deliveredMsgs, deliveredBytes := 0, 0
	if err := receiver.OpenRecv(3, h0.IP(), func(p []byte) {
		deliveredMsgs++
		deliveredBytes += len(p)
	}); err != nil {
		t.Fatal(err)
	}
	if err := sender.OpenSend(3, h1.IP(), h1.MAC(), 3, 0, nil); err != nil {
		t.Fatal(err)
	}
	completed := 0
	for i := 0; i < msgs; i++ {
		d := sim.Time(i) * 20 * sim.Microsecond
		s.Schedule(d, func() {
			if err := sender.SendMessage(3, make([]byte, msgSize), func() { completed++ }); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	s.RunFor(200 * sim.Millisecond)

	if port.Stats().DropsInjected.Value() == 0 {
		t.Fatal("no frames were dropped; test exercises nothing")
	}
	if completed != msgs {
		t.Fatalf("completed %d/%d messages under loss with NACK disabled", completed, msgs)
	}
	if deliveredMsgs != msgs || deliveredBytes != msgs*msgSize {
		t.Fatalf("delivered %d msgs / %d bytes, want %d / %d (payload conservation)",
			deliveredMsgs, deliveredBytes, msgs, msgs*msgSize)
	}
	if sender.Stats.Timeouts.Value() == 0 {
		t.Fatal("timeout path never fired despite injected loss")
	}
	if sender.Stats.NacksRecv.Value() != 0 || receiver.Stats.NacksSent.Value() != 0 {
		t.Fatalf("NACKs used despite DisableNACK: recv=%d sent=%d",
			sender.Stats.NacksRecv.Value(), receiver.Stats.NacksSent.Value())
	}
}
