package netsim

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// TestParanoidRedecode runs traffic with per-hop re-decode verification
// on: every HandleFrame re-parses the wire bytes and compares them with
// the cached Frame view, so any divergence between the decode-once cache
// and the bytes (including after switch-side ECN rewriting) panics.
func TestParanoidRedecode(t *testing.T) {
	SetParanoid(true)
	defer SetParanoid(false)

	s := sim.New(5)
	cfg := DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 2
	cfg.Pods = 1
	dc := NewDatacenter(s, cfg)
	a, b := dc.Host(0), dc.Host(1)
	// Cross-TOR so frames traverse switch forwarding (and its ECN/PFC
	// machinery), not just host NICs.
	c := dc.Host(cfg.HostsPerTOR)
	got := 0
	b.RegisterUDP(7, func(f *pkt.Frame) { got++ })
	c.RegisterUDP(7, func(f *pkt.Frame) { got++ })

	const n = 200
	for i := 0; i < n; i++ {
		d := sim.Time(i) * 2 * sim.Microsecond
		s.Schedule(d, func() {
			a.SendUDPRaw(b.IP(), 7, 7, pkt.ClassBestEffort, make([]byte, 512))
			a.SendUDPRaw(c.IP(), 7, 7, pkt.ClassLTL, make([]byte, 512))
		})
	}
	s.RunFor(50 * sim.Millisecond)
	if got != 2*n {
		t.Fatalf("delivered %d/%d under paranoid mode", got, 2*n)
	}
}

// TestParanoidNoiseUnderFaults runs background noise past line rate
// with per-hop re-decode on, ECN thresholds low enough that noise frames
// are CE-marked in their recycled buffers, and a fault hook that
// corrupts and duplicates frames on every L1 port. Nothing may panic,
// and every frame a switch takes in must leave it or be counted as
// dropped, with each link delivering what its transmitter sent, less
// injected drops, plus injected duplicates.
func TestParanoidNoiseUnderFaults(t *testing.T) {
	SetParanoid(true)
	defer SetParanoid(false)

	s := sim.New(9)
	cfg := DefaultConfig()
	cfg.HostsPerTOR = 1
	cfg.TORsPerPod = 2
	cfg.Pods = 1
	cfg.Port.ECN = ECNConfig{KMinBytes: 1, KMaxBytes: 8 << 10, PMax: 1}
	dc := NewDatacenter(s, cfg)
	for id := 0; id < dc.NumHosts(); id++ {
		dc.Host(id)
	}
	seen := 0
	hook := func(_ *Port, _ *Packet) FaultDecision {
		seen++
		switch {
		case seen%7 == 0:
			return FaultDecision{Op: FaultDuplicate, Delay: sim.Microsecond}
		case seen%11 == 0:
			// An IPv4 header byte, tagged or not: the checksum fails
			// and the peer's MAC drops the frame.
			return FaultDecision{Op: FaultCorrupt, Corrupt: func(buf []byte) { buf[20] ^= 0xff }}
		case seen%13 == 0:
			// A payload byte: the frame still parses.
			return FaultDecision{Op: FaultCorrupt, Corrupt: func(buf []byte) { buf[50] ^= 0xff }}
		}
		return FaultDecision{}
	}
	switches := []*Switch{dc.L2()}
	for _, l1 := range dc.L1Switches() {
		switches = append(switches, l1)
		for i := 0; i < l1.NumPorts(); i++ {
			l1.Port(i).SetFaultHook(hook)
		}
	}
	for pod := 0; pod < cfg.Pods; pod++ {
		for tor := 0; tor < cfg.TORsPerPod; tor++ {
			switches = append(switches, dc.TOR(pod, tor))
		}
	}

	// Tagged lossless noise first, then untagged lossy noise: each
	// start replaces the load before it. Both overrun line rate, so
	// queues fill to tail drop (and RED, for the lossy class).
	dc.StartBackgroundLoad(1.5, pkt.ClassRDMA, 1400)
	s.RunFor(300 * sim.Microsecond)
	dc.StartBackgroundLoad(1.5, pkt.ClassBestEffort, 1400)
	s.RunFor(300 * sim.Microsecond)
	dc.StopBackgroundLoad()
	s.RunFor(sim.Millisecond) // drain every queue and pipeline

	var injected, marks, dups, corrupt, red, tail uint64
	for _, sw := range switches {
		in, out := sw.Stats.Injected.Value(), uint64(0)
		dropped := sw.Stats.NoRoute.Value() + sw.Stats.DeadPort.Value()
		for i := 0; i < sw.NumPorts(); i++ {
			p := sw.Port(i)
			st := &p.Stats
			in += st.RxFrames.Value()
			out += st.TxFrames.Value()
			dropped += st.DropsRED.Value() + st.DropsTail.Value()
			marks += st.ECNMarks.Value()
			dups += st.DupsInjected.Value()
			corrupt += st.CorruptInjected.Value()
			red += st.DropsRED.Value()
			tail += st.DropsTail.Value()
			if q := st.QueueDepth.Value(); q != 0 {
				t.Fatalf("%s port %d: %d bytes still queued after drain", sw.DeviceName(), i, q)
			}
			if peer := p.Peer(); peer != nil {
				want := st.TxFrames.Value() - st.DropsInjected.Value() + st.DupsInjected.Value()
				if got := peer.Stats.RxFrames.Value(); got != want {
					t.Errorf("%s port %d: peer received %d, want %d", sw.DeviceName(), i, got, want)
				}
			}
		}
		injected += sw.Stats.Injected.Value()
		if in != out+dropped {
			t.Errorf("%s: %d frames in, %d out + %d dropped", sw.DeviceName(), in, out, dropped)
		}
	}
	if injected == 0 || marks == 0 || dups == 0 || corrupt == 0 || red == 0 || tail == 0 {
		t.Fatalf("load did not exercise the noise path: injected=%d ecn=%d dups=%d corrupt=%d red=%d tail=%d",
			injected, marks, dups, corrupt, red, tail)
	}
}
