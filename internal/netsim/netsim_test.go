package netsim

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// sink is a Device recording every frame it receives.
type sink struct {
	name   string
	got    []*Packet
	times  []sim.Time
	s      *sim.Simulation
	onRecv func(*Port, *Packet)
}

func (k *sink) DeviceName() string { return k.name }
func (k *sink) HandleFrame(p *Port, packet *Packet) {
	k.got = append(k.got, packet)
	k.times = append(k.times, k.s.Now())
	if k.onRecv != nil {
		k.onRecv(p, packet)
	}
}

func testFrame(class pkt.TrafficClass, size int) *Packet {
	overhead := pkt.EthHeaderLen + pkt.IPv4HeaderLen + pkt.UDPHeaderLen + pkt.EthFCSLen
	if class != pkt.ClassBestEffort {
		overhead += pkt.VLANTagLen
	}
	payload := make([]byte, size-overhead)
	buf := pkt.EncodeUDP(HostMAC(1), HostMAC(2), HostIP(1), HostIP(2), 7, 8, class, 64, 0, payload)
	return NewPacket(buf)
}

func wirePair(s *sim.Simulation, cfg PortConfig) (*Port, *sink) {
	src := &sink{name: "src", s: s}
	dst := &sink{name: "dst", s: s}
	a := NewPort(s, src, 0, cfg)
	b := NewPort(s, dst, 0, cfg)
	Wire(a, b)
	return a, dst
}

func TestLinkDelivery(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	cfg.Link = LinkParams{RateBps: Rate40G, Prop: 100 * sim.Nanosecond}
	a, dst := wirePair(s, cfg)

	f := testFrame(pkt.ClassLTL, 1000)
	if !a.Enqueue(f) {
		t.Fatal("enqueue rejected")
	}
	s.Run()
	if len(dst.got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(dst.got))
	}
	// 1000B at 40 Gb/s = 200ns serialization + 100ns propagation.
	want := cfg.Link.SerializationTime(1000) + 100*sim.Nanosecond
	if dst.times[0] != want {
		t.Errorf("delivery at %v, want %v", dst.times[0], want)
	}
}

func TestSerializationBackToBack(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	cfg.Link = LinkParams{RateBps: Rate40G, Prop: 0}
	a, dst := wirePair(s, cfg)
	for i := 0; i < 3; i++ {
		a.Enqueue(testFrame(pkt.ClassLTL, 1000))
	}
	s.Run()
	if len(dst.got) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.got))
	}
	ser := cfg.Link.SerializationTime(1000)
	for i, at := range dst.times {
		want := ser * sim.Time(i+1)
		if at != want {
			t.Errorf("frame %d at %v, want %v (back-to-back serialization)", i, at, want)
		}
	}
}

func TestStrictPriority(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	a, dst := wirePair(s, cfg)
	// Fill with best-effort, then a high-priority frame; the high-priority
	// frame must overtake all queued best-effort except the one in flight.
	for i := 0; i < 5; i++ {
		a.Enqueue(testFrame(pkt.ClassBestEffort, 1500))
	}
	a.Enqueue(testFrame(pkt.ClassLTL, 100))
	s.Run()
	if len(dst.got) != 6 {
		t.Fatalf("delivered %d, want 6", len(dst.got))
	}
	if dst.got[1].Class() != pkt.ClassLTL {
		order := make([]pkt.TrafficClass, len(dst.got))
		for i, g := range dst.got {
			order[i] = g.Class()
		}
		t.Errorf("LTL frame did not overtake: order %v", order)
	}
}

func TestTailDrop(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	cfg.QueueBytes = 3000
	cfg.RED.PMax = 0 // isolate tail-drop
	a, _ := wirePair(s, cfg)
	accepted := 0
	for i := 0; i < 10; i++ {
		if a.Enqueue(testFrame(pkt.ClassBestEffort, 1500)) {
			accepted++
		}
	}
	// First frame transmits immediately (leaves the queue), so 1 in
	// flight + 2 queued = 3 accepted.
	if accepted != 3 {
		t.Errorf("accepted %d frames, want 3", accepted)
	}
	if a.Stats().DropsTail.Value() != 7 {
		t.Errorf("tail drops = %d, want 7", a.Stats().DropsTail.Value())
	}
}

func TestREDDropsUnderPressure(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	cfg.QueueBytes = 1 << 20
	cfg.RED = REDConfig{MinBytes: 10 << 10, MaxBytes: 50 << 10, PMax: 1.0}
	a, _ := wirePair(s, cfg)
	for i := 0; i < 100; i++ {
		a.Enqueue(testFrame(pkt.ClassBestEffort, 1500))
	}
	if a.Stats().DropsRED.Value() == 0 {
		t.Error("RED never dropped despite deep queue")
	}
	// Lossless class must never RED-drop.
	b, _ := wirePair(s, cfg)
	for i := 0; i < 100; i++ {
		b.Enqueue(testFrame(pkt.ClassLTL, 1500))
	}
	if b.Stats().DropsRED.Value() != 0 {
		t.Errorf("lossless class RED-dropped %d frames", b.Stats().DropsRED.Value())
	}
}

func TestECNMarking(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	cfg.ECN = ECNConfig{KMinBytes: 2 << 10, KMaxBytes: 8 << 10, PMax: 1.0}
	a, dst := wirePair(s, cfg)
	for i := 0; i < 20; i++ {
		a.Enqueue(testFrame(pkt.ClassLTL, 1500))
	}
	s.Run()
	marked := 0
	for _, g := range dst.got {
		if g.F.ECN == pkt.ECNCE {
			marked++
		}
		// Re-decode bytes to prove the checksum was fixed up.
		if _, err := pkt.Decode(g.Buf); err != nil {
			t.Fatalf("marked frame no longer decodes: %v", err)
		}
	}
	if marked == 0 {
		t.Error("no frames ECN-marked despite deep queue")
	}
	if a.Stats().ECNMarks.Value() != uint64(marked) {
		t.Errorf("mark counter %d != observed %d", a.Stats().ECNMarks.Value(), marked)
	}
}

func TestPFCPauseStopsClassOnly(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	cfg.Link.RateBps = Rate40G
	a, dst := wirePair(s, cfg)

	a.Pause(pkt.ClassLTL, 10*sim.Microsecond)
	a.Enqueue(testFrame(pkt.ClassLTL, 500))
	a.Enqueue(testFrame(pkt.ClassBestEffort, 500))
	s.RunUntil(5 * sim.Microsecond)
	if len(dst.got) != 1 || dst.got[0].Class() != pkt.ClassBestEffort {
		t.Fatalf("during pause: got %d frames (want only the best-effort one)", len(dst.got))
	}
	s.Run()
	if len(dst.got) != 2 {
		t.Fatalf("after pause expiry: %d frames, want 2", len(dst.got))
	}
	if dst.times[1] < 10*sim.Microsecond {
		t.Errorf("paused frame sent at %v, before pause expiry", dst.times[1])
	}
}

func TestPFCResume(t *testing.T) {
	s := sim.New(1)
	a, dst := wirePair(s, DefaultPortConfig())
	a.Pause(pkt.ClassLTL, 100*sim.Microsecond)
	a.Enqueue(testFrame(pkt.ClassLTL, 500))
	s.Schedule(5*sim.Microsecond, func() { a.Pause(pkt.ClassLTL, 0) }) // X-ON
	s.Run()
	if len(dst.got) != 1 {
		t.Fatalf("got %d frames", len(dst.got))
	}
	if dst.times[0] > 10*sim.Microsecond {
		t.Errorf("resume ignored: delivery at %v", dst.times[0])
	}
}

func TestControlFramesBypassPause(t *testing.T) {
	s := sim.New(1)
	a, dst := wirePair(s, DefaultPortConfig())
	a.Pause(pkt.ClassLTL, 100*sim.Microsecond)
	a.Enqueue(testFrame(pkt.ClassLTL, 500))
	a.EnqueueControl(NewPacket(pkt.EncodePFC(HostMAC(1), pkt.PFCFrame{})))
	s.RunUntil(50 * sim.Microsecond)
	// The PFC frame ends at the peer port; no device sees it.
	if rx := a.Peer().Stats().RxFrames.Value(); rx != 1 || len(dst.got) != 0 {
		t.Fatalf("control frame did not bypass pause: peer received %d frames, device %d", rx, len(dst.got))
	}
}

func TestUnwireDropsTraffic(t *testing.T) {
	s := sim.New(1)
	a, dst := wirePair(s, DefaultPortConfig())
	a.Enqueue(testFrame(pkt.ClassLTL, 500))
	s.Run()
	Unwire(a)
	a.Enqueue(testFrame(pkt.ClassLTL, 500))
	s.Run()
	if len(dst.got) != 1 {
		t.Fatalf("frames after unwire were delivered: %d", len(dst.got))
	}
	if a.Peer() != nil || dst.got[0] == nil {
		t.Error("unwire did not clear peers")
	}
}

func TestWirePanicsOnDoubleWire(t *testing.T) {
	s := sim.New(1)
	k := &sink{name: "k", s: s}
	a := NewPort(s, k, 0, DefaultPortConfig())
	b := NewPort(s, k, 1, DefaultPortConfig())
	c := NewPort(s, k, 2, DefaultPortConfig())
	Wire(a, b)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double wire")
		}
	}()
	Wire(a, c)
}

func TestPauseQuantaConversion(t *testing.T) {
	d := pauseQuantaToTime(0xffff, Rate40G)
	// 65535 * 512 bits / 40Gbps = 838.8 us.
	want := sim.Time(int64(0xffff) * 512 * int64(sim.Second) / Rate40G)
	if d != want {
		t.Errorf("pauseQuantaToTime = %v, want %v", d, want)
	}
}
