package netsim

import (
	"reflect"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// noiseFabric is the smallest datacenter with a wired L1 port: the
// frames InjectNoise puts on L1 port 0 end on the wire to TOR 0.
func noiseFabric() (*sim.Simulation, *Switch) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.HostsPerTOR = 1
	cfg.TORsPerPod = 1
	cfg.Pods = 1
	dc := NewDatacenter(s, cfg)
	dc.Host(0)
	return s, dc.L1(0)
}

// TestInjectNoiseNoAllocs guards the noise path: once the packet pool is
// warm, a background frame is built, queued, serialized and ended on the
// wire with no allocation.
func TestInjectNoiseNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	s, l1 := noiseFabric()
	allocs := testing.AllocsPerRun(200, func() {
		l1.InjectNoise(0, pkt.ClassRDMA, pkt.MaxMTU)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state noise frame: %v allocs, want 0", allocs)
	}
	if got := l1.Port(0).Stats.TxFrames.Value(); got < 200 {
		t.Fatalf("only %d noise frames transmitted", got)
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
		if got := sw.Port(0).Stats.TxBytes.Value(); got != uint64(tc.want) {
			t.Errorf("class %d size %d: sent %d bytes, want %d", tc.class, tc.size, got, tc.want)
		}
		if got := peer.Stats.RxFrames.Value(); got != 1 {
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
