package faultinject

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/shell"
	"repro/internal/sim"
)

func miniNet(seed int64) (*sim.Simulation, *netsim.Datacenter) {
	s := sim.New(seed)
	cfg := netsim.DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 2
	cfg.Pods = 1
	return s, netsim.NewDatacenter(s, cfg)
}

// Frame-level faults are a pure function of the seed: two identical runs
// inject identical fault counts and deliver identical frame counts.
func TestLinkFaultsDeterministic(t *testing.T) {
	run := func() [6]uint64 {
		s, dc := miniNet(17)
		h0, h1 := dc.Host(0), dc.Host(1)
		delivered := uint64(0)
		h1.RegisterUDP(5, func(*pkt.Frame) { delivered++ })
		in := New(s)
		port := dc.TOR(0, 0).Port(1)
		in.InjectLink(port, LinkFaults{
			DropRate:    0.05,
			DupRate:     0.03,
			CorruptRate: 0.03,
			DelayRate:   0.05,
			Delay:       5 * sim.Microsecond,
		})
		for i := 0; i < 300; i++ {
			d := sim.Time(i) * 5 * sim.Microsecond
			s.Schedule(d, func() {
				h0.SendUDPRaw(h1.IP(), 5, 5, pkt.ClassLTL, make([]byte, 200))
			})
		}
		s.RunFor(50 * sim.Millisecond)
		return [6]uint64{
			delivered,
			in.Stats.Injected[FrameDrop].Value(),
			in.Stats.Injected[FrameDup].Value(),
			in.Stats.Injected[FrameCorrupt].Value(),
			in.Stats.Injected[FrameDelay].Value(),
			port.Stats().DropsInjected.Value(),
		}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("fault injection not deterministic: %v vs %v", a, b)
	}
	if a[1] == 0 || a[2] == 0 || a[3] == 0 || a[4] == 0 {
		t.Fatalf("fault mix did not fire every class: %v", a)
	}
}

// Kill/reboot lifecycle: a killed node stays down (no golden-image
// auto-recovery) until reboot, and kill→bridge-up latency lands in the
// recovery histogram.
func TestKillRebootLifecycle(t *testing.T) {
	s := sim.New(1)
	shCfg := shell.DefaultConfig()
	shCfg.FullReconfigTime = 1 * sim.Millisecond
	sh := shell.New(s, 0, netsim.DefaultPortConfig(), shCfg)
	in := New(s)
	in.AddNode(0, sh)

	if !in.NodeAlive(0) {
		t.Fatal("fresh node not alive")
	}
	in.KillNode(0)
	if in.NodeAlive(0) {
		t.Fatal("node alive after kill")
	}
	s.RunFor(10 * sim.Millisecond)
	if in.NodeAlive(0) {
		t.Fatal("killed node auto-recovered; hard failures need Repair")
	}
	in.RebootNode(0)
	s.RunFor(10 * sim.Millisecond)
	if !in.NodeAlive(0) {
		t.Fatal("node not alive after reboot")
	}
	if got := in.Stats.Injected[NodeKill].Value(); got != 1 {
		t.Fatalf("injected kills = %d, want 1", got)
	}
	if got := in.Stats.Recovery[NodeKill].Count(); got != 1 {
		t.Fatalf("kill recovery samples = %d, want 1", got)
	}
	if in.Stats.Recovery[NodeKill].Min() < int64(shCfg.FullReconfigTime) {
		t.Fatalf("recovery %dns shorter than the reconfig window", in.Stats.Recovery[NodeKill].Min())
	}
}

// A wedged role recovers on the scrubber's next pass, and the
// wedge→repair latency is recorded.
func TestWedgeRecoversOnScrub(t *testing.T) {
	s := sim.New(2)
	shCfg := shell.DefaultConfig()
	shCfg.ScrubInterval = 2 * sim.Millisecond
	sh := shell.New(s, 0, netsim.DefaultPortConfig(), shCfg)
	sh.LoadRole(nil)
	in := New(s)
	in.AddNode(0, sh)

	in.WedgeRole(0)
	if sh.RoleUp() {
		t.Fatal("role still up after wedge")
	}
	s.RunFor(5 * sim.Millisecond)
	if !sh.RoleUp() {
		t.Fatal("scrubber did not recover the wedged role")
	}
	if got := in.Stats.Recovery[RoleWedge].Count(); got != 1 {
		t.Fatalf("wedge recovery samples = %d, want 1", got)
	}
	if max := in.Stats.Recovery[RoleWedge].Max(); max > int64(shCfg.ScrubInterval) {
		t.Fatalf("wedge recovery %dns exceeds one scrub period", max)
	}
}

// A flapped TOR link loses traffic while down and carries it again after
// the flap ends.
func TestFlapLinkLosesThenRestores(t *testing.T) {
	s := sim.New(3)
	cfg := netsim.DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 2
	cfg.Pods = 1
	shells := map[int]*shell.Shell{}
	cfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shell.DefaultConfig())
		shells[hostID] = sh
		return sh
	}
	dc := netsim.NewDatacenter(s, cfg)
	h0, h1 := dc.Host(0), dc.Host(1)
	in := New(s)
	in.AddNode(0, shells[0])
	in.AddNode(1, shells[1])

	got := 0
	h1.RegisterUDP(5, func(*pkt.Frame) { got++ })
	send := func() { h0.SendUDPRaw(h1.IP(), 5, 5, pkt.ClassBestEffort, []byte("x")) }

	send()
	s.RunFor(sim.Millisecond)
	if got != 1 {
		t.Fatal("baseline delivery failed")
	}

	in.FlapLink(1, 200*sim.Microsecond)
	send() // transmitted while the link is down: lost
	s.RunFor(50 * sim.Microsecond)
	if got != 1 {
		t.Fatal("frame crossed a downed link")
	}
	s.RunFor(sim.Millisecond) // flap ends, link rewired
	send()
	s.RunFor(sim.Millisecond)
	if got != 2 {
		t.Fatal("link did not carry traffic after the flap")
	}
	if in.Stats.Injected[LinkFlap].Value() != 1 {
		t.Fatalf("injected flaps = %d, want 1", in.Stats.Injected[LinkFlap].Value())
	}
	if in.Stats.Recovery[LinkFlap].Count() != 1 {
		t.Fatalf("flap recovery samples = %d, want 1", in.Stats.Recovery[LinkFlap].Count())
	}
}

// Profile lookup: every built-in resolves, rates derive from §II-B, and
// unknown names error.
func TestProfiles(t *testing.T) {
	for _, name := range ProfileNames() {
		if _, err := ByName(name); err != nil {
			t.Errorf("built-in profile %q: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown profile did not error")
	}
	p := PaperDerived(1e8)
	if p.KillRate <= 0 || p.SEURate <= 0 || p.WedgeRate <= 0 {
		t.Fatalf("paper-derived rates not positive: %+v", p)
	}
	// §II-B: SEUs are far more common than hard failures (the observed
	// tally gives roughly two orders of magnitude).
	if p.SEURate < 10*p.KillRate {
		t.Fatalf("SEU/kill ratio %f does not reflect the paper's tally", p.SEURate/p.KillRate)
	}
}
