package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 3
	cfg.Pods = 2
	return cfg
}

func TestLocateRoundTrip(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, smallConfig())
	for id := 0; id < dc.NumHosts(); id++ {
		pod, tor, idx := dc.Locate(id)
		if got := dc.HostIDOf(pod, tor, idx); got != id {
			t.Fatalf("Locate/HostIDOf mismatch for %d: (%d,%d,%d) -> %d", id, pod, tor, idx, got)
		}
	}
}

// TestAddressingBoundaries pins the addressing arithmetic at the exact
// edges where off-by-one errors live, at the paper's full scale: the
// first and last host of a TOR, of a pod, and of the datacenter.
func TestAddressingBoundaries(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, DefaultConfig())
	cfg := dc.Config()
	perTOR := cfg.HostsPerTOR
	perPod := perTOR * cfg.TORsPerPod
	lastPod, lastTOR, lastIdx := cfg.Pods-1, cfg.TORsPerPod-1, perTOR-1

	cases := []struct {
		id            string
		host          int
		pod, tor, idx int
	}{
		{"first host", 0, 0, 0, 0},
		{"last host of first TOR", perTOR - 1, 0, 0, lastIdx},
		{"first host of second TOR", perTOR, 0, 1, 0},
		{"last host of first pod", perPod - 1, 0, lastTOR, lastIdx},
		{"first host of second pod", perPod, 1, 0, 0},
		{"last host of datacenter", dc.NumHosts() - 1, lastPod, lastTOR, lastIdx},
	}
	for _, c := range cases {
		pod, tor, idx := dc.Locate(c.host)
		if pod != c.pod || tor != c.tor || idx != c.idx {
			t.Errorf("%s: Locate(%d) = (%d,%d,%d), want (%d,%d,%d)",
				c.id, c.host, pod, tor, idx, c.pod, c.tor, c.idx)
		}
		if got := dc.HostIDOf(c.pod, c.tor, c.idx); got != c.host {
			t.Errorf("%s: HostIDOf(%d,%d,%d) = %d, want %d",
				c.id, c.pod, c.tor, c.idx, got, c.host)
		}
		// The IP mapping must round-trip at the same boundaries.
		if got, ok := HostID(HostIP(c.host)); !ok || got != c.host {
			t.Errorf("%s: HostID(HostIP(%d)) = %d,%v", c.id, c.host, got, ok)
		}
	}
}

// TestTierBoundariesOfAPod classifies the first and last hosts of a pod
// against their nearest neighbors on each side of every boundary.
func TestTierBoundariesOfAPod(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, DefaultConfig())
	cfg := dc.Config()
	perTOR := cfg.HostsPerTOR
	perPod := perTOR * cfg.TORsPerPod
	// Pod 1 spans [perPod, 2*perPod).
	first, last := perPod, 2*perPod-1
	cases := []struct {
		id         string
		a, b, tier int
	}{
		{"pod-first vs its TOR-mate", first, first + perTOR - 1, 0},
		{"pod-first vs pod's second TOR", first, first + perTOR, 1},
		{"pod-first vs pod-last", first, last, 1},
		{"pod-first vs previous pod's last", first, first - 1, 2},
		{"pod-last vs next pod's first", last, last + 1, 2},
		{"pod-last vs its TOR's first", last, last - perTOR + 1, 0},
		{"host vs itself", first, first, 0},
	}
	for _, c := range cases {
		if got := dc.Tier(c.a, c.b); got != c.tier {
			t.Errorf("%s: Tier(%d,%d) = %d, want %d", c.id, c.a, c.b, got, c.tier)
		}
	}
	// ReachableAtTier must agree with the geometry the cases above pin:
	// a TOR's span, a pod's span, the whole datacenter.
	if got := dc.ReachableAtTier(0); got != perTOR {
		t.Errorf("ReachableAtTier(0) = %d, want %d", got, perTOR)
	}
	if got := dc.ReachableAtTier(1); got != perPod {
		t.Errorf("ReachableAtTier(1) = %d, want %d", got, perPod)
	}
	if got := dc.ReachableAtTier(2); got != dc.NumHosts() {
		t.Errorf("ReachableAtTier(2) = %d, want %d", got, dc.NumHosts())
	}
}

func TestTierClassification(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, smallConfig())
	// 4 hosts/TOR, 3 TORs/pod => 12 hosts/pod.
	cases := []struct{ a, b, tier int }{
		{0, 3, 0},   // same TOR
		{0, 4, 1},   // same pod, different TOR
		{0, 12, 2},  // different pod
		{13, 14, 0}, // same TOR in pod 1
	}
	for _, c := range cases {
		if got := dc.Tier(c.a, c.b); got != c.tier {
			t.Errorf("Tier(%d,%d) = %d, want %d", c.a, c.b, got, c.tier)
		}
	}
}

func TestReachableAtTier(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, DefaultConfig())
	if got := dc.ReachableAtTier(0); got != 24 {
		t.Errorf("L0 reach = %d, want 24", got)
	}
	if got := dc.ReachableAtTier(1); got != 960 {
		t.Errorf("L1 reach = %d, want 960", got)
	}
	if got := dc.ReachableAtTier(2); got < 250000 {
		t.Errorf("L2 reach = %d, want > 250,000", got)
	}
}

func TestDefaultTopologyMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.HostsPerTOR != 24 {
		t.Errorf("HostsPerTOR = %d, want 24 (paper: each TOR connects 24 hosts)", cfg.HostsPerTOR)
	}
	if cfg.HostsPerTOR*cfg.TORsPerPod != 960 {
		t.Errorf("pod size = %d, want 960", cfg.HostsPerTOR*cfg.TORsPerPod)
	}
}

func deliverUDP(t *testing.T, dc *Datacenter, from, to int) sim.Time {
	t.Helper()
	src := dc.Host(from)
	dst := dc.Host(to)
	var arrived sim.Time = -1
	dst.RegisterUDP(4000, func(f *pkt.Frame) { arrived = dc.Sim.Now() })
	start := dc.Sim.Now()
	src.SendUDP(dst.IP(), 4000, 4000, pkt.ClassBestEffort, []byte("ping"))
	dc.Sim.RunFor(sim.Millisecond)
	if arrived < 0 {
		t.Fatalf("datagram %d->%d never arrived", from, to)
	}
	return arrived - start
}

func TestEndToEndSameTOR(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, smallConfig())
	d := deliverUDP(t, dc, 0, 1)
	if d <= 0 || d > 50*sim.Microsecond {
		t.Errorf("same-TOR delivery took %v", d)
	}
}

func TestEndToEndCrossPodLatencyOrdering(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig()
	cfg.L1Jitter, cfg.L2Jitter = nil, nil
	dc := NewDatacenter(s, cfg)
	l0 := deliverUDP(t, dc, 0, 1)  // same TOR
	l1 := deliverUDP(t, dc, 0, 4)  // same pod
	l2 := deliverUDP(t, dc, 0, 12) // cross pod
	if !(l0 < l1 && l1 < l2) {
		t.Errorf("latency ordering violated: L0=%v L1=%v L2=%v", l0, l1, l2)
	}
}

func TestBidirectionalDelivery(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, smallConfig())
	if d := deliverUDP(t, dc, 12, 0); d <= 0 {
		t.Errorf("reverse direction failed: %v", d)
	}
}

func TestTrafficToUninstantiatedHostVanishes(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, smallConfig())
	src := dc.Host(0)
	// Host 2 shares the TOR but is never instantiated.
	src.SendUDP(HostIP(2), 1, 1, pkt.ClassBestEffort, []byte("x"))
	s.RunFor(sim.Millisecond)
	tor := dc.TOR(0, 0)
	if tor.Stats().DeadPort.Value() != 1 {
		t.Errorf("dead-port count = %d, want 1", tor.Stats().DeadPort.Value())
	}
}

func TestLazyInstantiation(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, DefaultConfig())
	dc.Host(0)
	dc.Host(1)
	if len(dc.hosts) != 2 || len(dc.tors) != 1 || len(dc.l1) != 1 {
		t.Errorf("instantiated hosts=%d tors=%d l1=%d; want 2/1/1",
			len(dc.hosts), len(dc.tors), len(dc.l1))
	}
	// Same host twice returns the same object.
	if dc.Host(0) != dc.Host(0) {
		t.Error("Host not idempotent")
	}
}

func TestHostIDRange(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range host")
		}
	}()
	dc.Host(dc.NumHosts())
}

func TestHostIPRoundTrip(t *testing.T) {
	for _, id := range []int{0, 1, 23, 959, 250559} {
		got, ok := HostID(HostIP(id))
		if !ok || got != id {
			t.Errorf("HostID(HostIP(%d)) = %d,%v", id, got, ok)
		}
	}
	if _, ok := HostID(pkt.IP{192, 168, 0, 1}); ok {
		t.Error("foreign IP should not map to a host ID")
	}
}

// interposer for testing: counts frames through the bump-in-the-wire and
// forwards them unchanged.
type countingInterposer struct {
	host, net *Port
	count     int
}

func (ci *countingInterposer) DeviceName() string { return "bump" }
func (ci *countingInterposer) HostPort() *Port    { return ci.host }
func (ci *countingInterposer) NetPort() *Port     { return ci.net }
func (ci *countingInterposer) HandleFrame(p *Port, packet *Packet) {
	ci.count++
	if p == ci.host {
		ci.net.Enqueue(packet)
	} else {
		ci.host.Enqueue(packet)
	}
}

func TestInterposerSeesAllTraffic(t *testing.T) {
	s := sim.New(1)
	cfg := smallConfig()
	var bumps []*countingInterposer
	cfg.Interposer = func(dc *Datacenter, hostID int) Interposer {
		ci := &countingInterposer{}
		ci.host = NewPort(dc.Sim, ci, 0, dc.portConfig(cfg.HostLink))
		ci.net = NewPort(dc.Sim, ci, 1, dc.portConfig(cfg.HostLink))
		bumps = append(bumps, ci)
		return ci
	}
	dc := NewDatacenter(s, cfg)
	d := deliverUDP(t, dc, 0, 1)
	if d <= 0 {
		t.Fatal("delivery through interposer failed")
	}
	total := 0
	for _, b := range bumps {
		total += b.count
	}
	// One frame passes through the sender's bump and the receiver's bump.
	if total != 2 {
		t.Errorf("interposers saw %d frames, want 2", total)
	}
	if dc.InterposerOf(0) == nil || dc.InterposerOf(2) != nil {
		t.Error("InterposerOf bookkeeping wrong")
	}
}

func TestBackgroundLoadCausesQueueing(t *testing.T) {
	s := sim.New(7)
	cfg := smallConfig()
	dc := NewDatacenter(s, cfg)
	dc.Host(0)
	dc.Host(12) // cross-pod: instantiates both L1s and L2
	dc.StartBackgroundLoad(0.5, pkt.ClassBestEffort, 700)
	s.RunFor(2 * sim.Millisecond)
	var forwarded uint64
	for _, sw := range dc.L1Switches() {
		for i := 0; i < sw.NumPorts(); i++ {
			forwarded += sw.Port(i).Stats().TxFrames.Value()
		}
	}
	if forwarded == 0 {
		t.Fatal("background load produced no traffic")
	}
}

func TestSwitchPFCBackpressure(t *testing.T) {
	// Saturate a TOR's host-facing egress with lossless traffic from two
	// sources; PFC must engage and no lossless frame may be dropped.
	// Each host bursts 500 frames of 1,446 wire bytes at line rate into
	// one egress of the same rate, so without PFC that queue would peak
	// near 700 KiB, past its 512 KiB.
	s := sim.New(3)
	dc := NewDatacenter(s, smallConfig())
	h0, h1, h3 := dc.Host(0), dc.Host(1), dc.Host(3)
	recv := 0
	h1.RegisterUDP(5000, func(f *pkt.Frame) { recv++ })

	const frames = 500
	payload := make([]byte, 1400)
	send := func(h *Host) {
		for i := 0; i < frames; i++ {
			h.SendUDPRaw(h1.IP(), 5000, 5000, pkt.ClassLTL, payload)
		}
	}
	send(h0)
	send(h3)
	s.RunFor(10 * sim.Millisecond)

	tor := dc.TOR(0, 0)
	if tor.Stats().PFCIssued.Value() == 0 {
		t.Error("PFC never issued under lossless incast")
	}
	egress := tor.Port(1) // toward h1
	if egress.Stats().DropsTail.Value() != 0 || egress.Stats().DropsRED.Value() != 0 {
		t.Errorf("lossless frames dropped: tail=%d red=%d",
			egress.Stats().DropsTail.Value(), egress.Stats().DropsRED.Value())
	}
	if recv != 2*frames {
		t.Errorf("received %d lossless frames, want all %d", recv, 2*frames)
	}
	if tor.Stats().PFCResumed.Value() == 0 {
		t.Error("PFC never resumed after drain")
	}
	// Ingress accounting must drain to zero.
	for p := 0; p < tor.NumPorts(); p++ {
		if held := tor.Port(p).HeldBytes(pkt.ClassLTL); held != 0 {
			t.Errorf("port %d still holds %d bytes after drain", p, held)
		}
	}
}

func TestLossyIncastDropsInsteadOfPausing(t *testing.T) {
	s := sim.New(3)
	cfg := smallConfig()
	cfg.Port.QueueBytes = 32 << 10
	dc := NewDatacenter(s, cfg)
	h0, h1, h3 := dc.Host(0), dc.Host(1), dc.Host(3)
	recv := 0
	h1.RegisterUDP(5000, func(f *pkt.Frame) { recv++ })
	payload := make([]byte, 1400)
	for i := 0; i < 200; i++ {
		h0.SendUDPRaw(h1.IP(), 5000, 5000, pkt.ClassBestEffort, payload)
		h3.SendUDPRaw(h1.IP(), 5000, 5000, pkt.ClassBestEffort, payload)
	}
	s.RunFor(10 * sim.Millisecond)
	tor := dc.TOR(0, 0)
	egress := tor.Port(1)
	drops := egress.Stats().DropsTail.Value() + egress.Stats().DropsRED.Value()
	if drops == 0 {
		t.Error("lossy incast produced no drops")
	}
	if recv+int(drops) != 400 {
		t.Errorf("conservation violated: recv=%d drops=%d want sum 400", recv, drops)
	}
}

// StartBackgroundLoad rejects input it cannot run with a panic naming
// the argument, never a kernel panic or an unbounded loop of zero gaps,
// and a vanishing load saturates its gap instead of wrapping sim.Time. A
// second load on a datacenter that carries one is rejected the same way;
// one that started nothing leaves room for it.
func TestBackgroundLoadBadInput(t *testing.T) {
	for _, tc := range []struct {
		before   float64 // util of a load started first; 0 = none
		util     float64
		meanSize int
		panics   string // substring of the panic; "" = no panic
	}{
		{0, math.NaN(), 1400, "util NaN"},
		{0, math.Inf(1), 1400, "util +Inf"},
		{0, math.Inf(-1), 1400, "util -Inf"},
		{0, 1e300, 1400, "less than 1ns apart"},
		{0, 0.05, 32, "meanSize 32"},
		{0, 0.05, 63, "meanSize 63"},
		{0, 0, 0, "meanSize 0"},
		{0, 0, 1400, ""},
		{0, -1, 1400, ""},
		{0, 1e-300, 1400, ""},
		{0, 5e-324, 1400, ""},
		{0, 0.05, 64, ""},
		{0.05, 0.05, 1400, "already running"},
		{-1, 0.05, 1400, ""},
	} {
		name := fmt.Sprintf("util=%g/meanSize=%d", tc.util, tc.meanSize)
		if tc.before != 0 {
			name = fmt.Sprintf("after util=%g/%s", tc.before, name)
		}
		t.Run(name, func(t *testing.T) {
			s := sim.New(1)
			dc := NewDatacenter(s, smallConfig())
			dc.Host(0)
			if tc.before != 0 {
				dc.StartBackgroundLoad(tc.before, pkt.ClassRDMA, 1400)
			}
			var got string
			func() {
				defer func() {
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
				}()
				dc.StartBackgroundLoad(tc.util, pkt.ClassRDMA, tc.meanSize)
				s.RunFor(sim.Millisecond)
			}()
			switch {
			case tc.panics == "" && got != "":
				t.Fatalf("panicked: %s", got)
			case tc.panics != "" && !strings.Contains(got, tc.panics):
				t.Fatalf("panic %q, want one containing %q", got, tc.panics)
			}
			if tc.panics != "" || tc.util >= 0.01 {
				return
			}
			// A vanishing load puts nothing on the wire in a millisecond.
			for _, sw := range dc.L1Switches() {
				if n := sw.Stats().Injected.Value(); n != 0 {
					t.Fatalf("%s injected %d frames", sw.DeviceName(), n)
				}
			}
		})
	}
}

// The background load puts its nominal utilization on the wire whatever
// the mean frame size: frames are spaced by the mean of the sizes drawn,
// after clamping to the MTU (DESIGN.md §6.2).
func TestBackgroundLoadOfferedMatchesUtil(t *testing.T) {
	const util, window = 0.05, 200 * sim.Millisecond
	for _, meanSize := range []int{700, 1100, 1400} {
		s := sim.New(1)
		dc := NewDatacenter(s, DefaultConfig())
		dc.Host(0) // one pod: L1 port 0 down to TOR 0, the L1 uplink, and L2 port 0
		dc.StartBackgroundLoad(util, pkt.ClassRDMA, meanSize)
		s.RunFor(window)
		l1 := dc.L1(0)
		for _, i := range []int{0, l1.NumPorts() - 1} {
			p := l1.Port(i)
			offered := float64(p.Stats().TxBytes.Value()*8) / (float64(p.Config().Link.RateBps) * window.Seconds())
			if math.Abs(offered/util-1) > 0.03 {
				t.Errorf("meanSize %d: L1 port %d offered %.4f of its line rate, want %.4f ±3%%", meanSize, i, offered, util)
			}
		}
	}
}
