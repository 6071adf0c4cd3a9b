package netsim

import (
	"reflect"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// noisyPort is a 40G switch port wired to a sink device and loaded with
// util of 1400-byte RDMA background traffic from its own noise process.
// The sink keeps what it receives, so a test can send one real frame
// over and over.
func noisyPort(util float64) (*sim.Simulation, *Port, *keepSink) {
	s := sim.New(1)
	cfg := DefaultPortConfig()
	sw := NewSwitch(s, SwitchConfig{Name: "sw", Radix: 1, Port: cfg})
	k := &keepSink{}
	Wire(sw.Port(0), NewPort(s, k, 0, cfg))
	gap := noiseWireMean(pkt.ClassRDMA, 1400) * 8 * float64(sim.Second) / (float64(cfg.Link.RateBps) * util)
	sw.Port(0).startNoise(newNoiseProc(1, gap, pkt.ClassRDMA, 1400, 0), &sw.stats.Injected)
	return s, sw.Port(0), k
}

// keepSink counts the real frames it receives and keeps none of them
// from their sender.
type keepSink struct{ got int }

func (k *keepSink) DeviceName() string             { return "keep" }
func (k *keepSink) HandleFrame(_ *Port, _ *Packet) { k.got++ }

// realFrame is one encoded LTL-class frame of the given wire size.
func realFrame(size int) *Packet {
	n := size - pkt.EthHeaderLen - pkt.VLANTagLen - pkt.IPv4HeaderLen - pkt.UDPHeaderLen - pkt.EthFCSLen
	return NewPacket(pkt.EncodeUDP(pkt.MAC{2}, pkt.MAC{3}, pkt.IP{10, 0, 0, 1}, pkt.IP{10, 0, 0, 2}, 7, 7,
		pkt.ClassLTL, 64, 1, make([]byte, n)))
}

// TestInjectNoiseNoAllocs guards the noise path: once the packet pool is
// warm, background frames on a port that real frames use are built,
// queued, serialized and ended on the wire in line with no allocation,
// and so is the wake that a real frame waiting behind one of them takes.
// At lb-noise's 5% load the same holds for a port that runs only its own
// noise, in stretches, and for a stretch that a real frame interrupts
// while a noise frame is on the wire.
func TestInjectNoiseNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	s, port, k := noisyPort(0.8)
	real := realFrame(1024)
	step := func() {
		port.Enqueue(real)
		s.RunFor(10 * sim.Microsecond)
	}
	// Warm the packet pool and the timing wheel's buckets first.
	for i := 0; i < 3000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("steady-state noise with real traffic: %v allocs, want 0", allocs)
	}
	if k.got != 3201 {
		t.Fatalf("%d of 3201 real frames arrived", k.got)
	}
	if tx := port.Stats().TxFrames.Value(); tx < 3201*20 {
		t.Fatalf("only %d frames transmitted", tx)
	}

	s, port, _ = noisyPort(0.05)
	idle := func() {
		s.RunFor(sim.Millisecond)
		port.Stats()
	}
	for i := 0; i < 100; i++ {
		idle()
	}
	if allocs := testing.AllocsPerRun(100, idle); allocs != 0 {
		t.Fatalf("noise-only port at 5%% load: %v allocs per ms, want 0", allocs)
	}
	if tx := port.Stats().TxFrames.Value(); tx < 201*150 {
		t.Fatalf("only %d frames transmitted in 201 ms", tx)
	}

	s, port, k = noisyPort(0.05)
	onWire := 0
	interrupt := func() {
		s.RunFor(50 * sim.Microsecond)
		port.sync()
		// Just after the next arrival, its frame is on the wire.
		s.RunUntil(port.noise.proc.next + 1)
		port.sync()
		if port.noise.tx != nil {
			onWire++
		}
		port.Enqueue(real)
		s.RunFor(10 * sim.Microsecond)
	}
	for i := 0; i < 300; i++ {
		interrupt()
	}
	if allocs := testing.AllocsPerRun(200, interrupt); allocs != 0 {
		t.Fatalf("stretch interrupted by a real frame: %v allocs, want 0", allocs)
	}
	if k.got != 501 || onWire != 501 {
		t.Fatalf("%d of 501 real frames arrived, %d found a noise frame on the wire", k.got, onWire)
	}
}

// TestInjectNoiseClampsSize: a size below the Ethernet minimum or above
// the MTU is clamped, never sent as a runt or a jumbo frame. The frame
// ends on the wire, so the peer's device never sees it: the sender's
// byte count and the peer port's frame count are the evidence.
func TestInjectNoiseClampsSize(t *testing.T) {
	for _, tc := range []struct {
		class      pkt.TrafficClass
		size, want int
	}{
		{pkt.ClassBestEffort, 0, 64},
		{pkt.ClassBestEffort, 9000, pkt.MaxMTU},
		{pkt.ClassRDMA, 0, 64 + pkt.VLANTagLen},
		{pkt.ClassRDMA, 9000, pkt.MaxMTU + pkt.VLANTagLen},
	} {
		s := sim.New(1)
		sw := NewSwitch(s, SwitchConfig{Name: "sw", Radix: 1, Port: DefaultPortConfig()})
		dst := &sink{name: "dst", s: s}
		peer := NewPort(s, dst, 0, DefaultPortConfig())
		Wire(sw.Port(0), peer)
		sw.InjectNoise(0, tc.class, tc.size)
		s.Run()
		if got := sw.Port(0).Stats().TxBytes.Value(); got != uint64(tc.want) {
			t.Errorf("class %d size %d: sent %d bytes, want %d", tc.class, tc.size, got, tc.want)
		}
		if got := peer.Stats().RxFrames.Value(); got != 1 {
			t.Errorf("class %d size %d: peer received %d frames, want 1", tc.class, tc.size, got)
		}
		if len(dst.got) != 0 {
			t.Errorf("class %d size %d: %d noise frames reached the peer device", tc.class, tc.size, len(dst.got))
		}
	}
}

// TestNoiseViewMatchesEncoding: the bytes a noise frame materializes
// (for a duplicating or corrupting fault, or paranoid mode) decode to
// exactly the view it carried without them, CE mark included.
func TestNoiseViewMatchesEncoding(t *testing.T) {
	for _, class := range []pkt.TrafficClass{pkt.ClassBestEffort, pkt.ClassRDMA} {
		for _, size := range []int{0, 64, 1400, 9000} {
			for _, mark := range []bool{false, true} {
				cfg := DefaultPortConfig()
				if mark {
					// An empty queue is already past KMax: every frame is marked.
					cfg.ECN = ECNConfig{KMinBytes: -1, KMaxBytes: 0, PMax: 1}
				}
				// The port is unwired, so the frame stays at the head of
				// its queue for inspection.
				sw := NewSwitch(sim.New(1), SwitchConfig{Name: "sw", Radix: 1, Port: cfg})
				sw.InjectNoise(0, class, size)
				p := sw.Port(0).queues[class][0]
				if len(p.Buf) != 0 {
					t.Fatalf("class %d size %d: noise frame carries %d bytes before materializing", class, size, len(p.Buf))
				}
				if got := p.F.ECN == pkt.ECNCE; got != mark {
					t.Fatalf("class %d size %d: CE marked %v, want %v", class, size, got, mark)
				}
				view := *p.F
				p.materialize()
				var f pkt.Frame
				if err := pkt.DecodeInto(&f, p.Buf); err != nil {
					t.Fatalf("class %d size %d mark %v: materialized bytes do not decode: %v", class, size, mark, err)
				}
				if !reflect.DeepEqual(f, view) {
					t.Errorf("class %d size %d mark %v: bytes decode to\n%+v\nview is\n%+v", class, size, mark, f, view)
				}
				if got := len(p.Buf) + pkt.EthFCSLen; got != view.WireLen() {
					t.Errorf("class %d size %d mark %v: %d bytes on the wire, view says %d", class, size, mark, got, view.WireLen())
				}
			}
		}
	}
}
