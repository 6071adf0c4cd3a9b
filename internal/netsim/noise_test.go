package netsim

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// noiseFabric is the smallest datacenter with a wired L1 port: the
// frames InjectNoise puts on L1 port 0 cross to TOR 0 and vanish there
// for want of a route.
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
// warm, a background frame is encoded into a recycled buffer, queued,
// serialized, propagated and dropped at the next hop with no allocation.
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
// the MTU is clamped, never emitted as a runt or a jumbo frame.
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
		Wire(sw.Port(0), NewPort(s, dst, 0, DefaultPortConfig()))
		sw.InjectNoise(0, tc.class, tc.size)
		s.Run()
		if len(dst.got) != 1 {
			t.Fatalf("class %d size %d: delivered %d frames, want 1", tc.class, tc.size, len(dst.got))
		}
		if got := dst.got[0].WireLen(); got != tc.want {
			t.Errorf("class %d size %d: wire length %d, want %d", tc.class, tc.size, got, tc.want)
		}
	}
}
