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
// are CE-marked, and a fault hook that corrupts and duplicates frames on
// every L1 port, so noise frames are materialized both for the hook and
// for the re-decode. It runs tagged lossless noise on one datacenter and
// untagged lossy noise on another; both overrun line rate, so queues
// fill to tail drop (and RED, for the lossy class). Nothing may panic,
// and every frame a switch takes in must leave it, be counted as
// dropped, or have ended on the wire into one of its ports (in = out +
// drops + ended-on-wire), with each link delivering what its transmitter
// sent, less injected drops, plus injected duplicates.
func TestParanoidNoiseUnderFaults(t *testing.T) {
	SetParanoid(true)
	defer SetParanoid(false)

	var injected, marks, dups, corrupt, red, tail, ended uint64
	for _, class := range []pkt.TrafficClass{pkt.ClassRDMA, pkt.ClassBestEffort} {
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

		dc.StartBackgroundLoad(1.5, class, 1400)
		s.RunFor(300 * sim.Microsecond)
		endNoise(dc)
		s.RunFor(sim.Millisecond) // drain every queue and pipeline

		for _, sw := range switches {
			in, out, endedHere := sw.Stats().Injected.Value(), uint64(0), uint64(0)
			dropped := sw.Stats().NoRoute.Value() + sw.Stats().DeadPort.Value()
			for i := 0; i < sw.NumPorts(); i++ {
				p := sw.Port(i)
				st := p.Stats()
				in += st.RxFrames.Value()
				out += st.TxFrames.Value()
				dropped += st.DropsRED.Value() + st.DropsTail.Value()
				endedHere += st.NoiseEnded.Value()
				marks += st.ECNMarks.Value()
				dups += st.DupsInjected.Value()
				corrupt += st.CorruptInjected.Value()
				red += st.DropsRED.Value()
				tail += st.DropsTail.Value()
				if q := st.QueueDepth.Value(); q != 0 {
					t.Fatalf("class %d: %s port %d: %d bytes still queued after drain", class, sw.DeviceName(), i, q)
				}
				if peer := p.Peer(); peer != nil {
					want := st.TxFrames.Value() - st.DropsInjected.Value() + st.DupsInjected.Value()
					if got := peer.Stats().RxFrames.Value(); got != want {
						t.Errorf("class %d: %s port %d: peer received %d, want %d", class, sw.DeviceName(), i, got, want)
					}
				}
			}
			injected += sw.Stats().Injected.Value()
			ended += endedHere
			if in != out+dropped+endedHere {
				t.Errorf("class %d: %s: %d frames in, %d out + %d dropped + %d ended on the wire",
					class, sw.DeviceName(), in, out, dropped, endedHere)
			}
		}
	}
	if injected == 0 || marks == 0 || dups == 0 || corrupt == 0 || red == 0 || tail == 0 || ended == 0 {
		t.Fatalf("load did not exercise the noise path: injected=%d ecn=%d dups=%d corrupt=%d red=%d tail=%d ended=%d",
			injected, marks, dups, corrupt, red, tail, ended)
	}
}

// endNoise ends the datacenter's background load at the current
// instant, so a test can drain every queue before it checks its ledgers:
// each port takes its arrivals up to now and none after. A running load
// has no end otherwise.
func endNoise(dc *Datacenter) {
	for _, p := range dc.noisy {
		p.sync()
		p.noise.proc.next = maxTime
	}
}
