package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// buildAllPorts builds every port of every switch dc has built, the state
// NewSwitch left before a switch built its ports on first use. It is the
// eager reference TestLazyPortsInert and FuzzLazyPortsInert hold the lazy
// switch to, as eager_test.go keeps the event-per-frame injector.
func (dc *Datacenter) buildAllPorts() {
	for _, sw := range dc.switches() {
		for i := 0; i < sw.NumPorts(); i++ {
			sw.Port(i)
		}
	}
}

// switches returns every built switch: L2, then L1s in pod order, then
// TORs in global index order.
func (dc *Datacenter) switches() []*Switch {
	var out []*Switch
	if dc.l2 != nil {
		out = append(out, dc.l2)
	}
	out = append(out, dc.L1Switches()...)
	keys := make([]int, 0, len(dc.tors))
	for k := range dc.tors {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		out = append(out, dc.tors[k])
	}
	return out
}

// lazyLayout is one random fabric run: a topology shape, the hosts it
// touches, a background load, and the frames the hosts send.
type lazyLayout struct {
	cfg     Config
	hosts   []int // touched, in touch order
	util    float64
	class   pkt.TrafficClass
	sends   []lazySend
	horizon sim.Time
}

// lazySend is one frame: from touched host src to any host dst at at.
type lazySend struct {
	at       sim.Time
	src, dst int
	class    pkt.TrafficClass
	size     int
}

// genLayout draws a layout from seed: 1–4 pods of 1–4 TORs of 1–8 hosts,
// 2–8 touched hosts, a background load on two layouts in three, frames
// to touched and untouched hosts alike, and incast bursts deep enough to
// pause a lossless class.
func genLayout(seed int64) lazyLayout {
	r := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.Pods = 1 + r.Intn(4)
	cfg.TORsPerPod = 1 + r.Intn(4)
	cfg.HostsPerTOR = 1 + r.Intn(8)
	n := cfg.Pods * cfg.TORsPerPod * cfg.HostsPerTOR
	l := lazyLayout{cfg: cfg, horizon: sim.Time(200+r.Intn(800)) * sim.Microsecond}
	for i, k := 0, 2+r.Intn(7); i < k; i++ {
		l.hosts = append(l.hosts, r.Intn(n))
	}
	if r.Intn(3) > 0 {
		l.util = 0.02 + 0.5*r.Float64()
		l.class = []pkt.TrafficClass{pkt.ClassBestEffort, pkt.ClassRDMA}[r.Intn(2)]
	}
	classes := []pkt.TrafficClass{pkt.ClassBestEffort, pkt.ClassLTL, pkt.ClassRDMA}
	for i, k := 0, 20+r.Intn(200); i < k; i++ {
		s := lazySend{
			at:    sim.Time(r.Int63n(int64(l.horizon / 2))),
			src:   l.hosts[r.Intn(len(l.hosts))],
			dst:   r.Intn(n),
			class: classes[r.Intn(len(classes))],
			size:  16 + r.Intn(1400),
		}
		if r.Intn(2) == 0 {
			s.dst = l.hosts[r.Intn(len(l.hosts))]
		}
		if s.dst == s.src {
			continue
		}
		l.sends = append(l.sends, s)
	}
	// Incasts: two or three touched hosts each send a burst of full
	// lossless frames to one touched host at one instant.
	for i, k := 0, r.Intn(3); i < k; i++ {
		at := sim.Time(r.Int63n(int64(l.horizon / 2)))
		dst := l.hosts[r.Intn(len(l.hosts))]
		for j, m := 0, 2+r.Intn(2); j < m; j++ {
			src := l.hosts[r.Intn(len(l.hosts))]
			if src == dst {
				continue
			}
			for f, burst := 0, 60+r.Intn(120); f < burst; f++ {
				l.sends = append(l.sends, lazySend{at: at, src: src, dst: dst, class: pkt.ClassRDMA, size: 1400})
			}
		}
	}
	return l
}

// runLayout runs l with every switch port built up front (eager) or only
// the ports the layout wires, and returns every observed fact, one per
// line: each delivered frame and its instant, then each switch's
// counters, then the obs registry snapshot.
func runLayout(l lazyLayout, seed int64, eager bool) []string {
	s := sim.New(seed)
	reg := obs.Enable(s).Registry
	dc := NewDatacenter(s, l.cfg)
	var out []string
	for _, id := range l.hosts {
		h := dc.Host(id)
		h.RegisterUDP(9, func(f *pkt.Frame) {
			out = append(out, fmt.Sprintf("rx t=%d host=%d from=%v id=%d class=%d len=%d ecn=%d",
				s.Now(), id, f.SrcIP, f.IPID, f.Class(), len(f.Payload), f.ECN))
		})
	}
	if eager {
		dc.buildAllPorts()
	}
	if l.util > 0 {
		dc.StartBackgroundLoad(l.util, l.class, 900)
	}
	for _, sd := range l.sends {
		sd := sd
		s.Schedule(sd.at, func() {
			dc.Host(sd.src).SendUDPRaw(HostIP(sd.dst), 9, 9, sd.class, make([]byte, sd.size))
		})
	}
	s.RunFor(l.horizon)
	for _, sw := range dc.switches() {
		st := sw.Stats()
		out = append(out, fmt.Sprintf("switch %s fwd=%d inj=%d noroute=%d dead=%d pfc=%d resume=%d hold=%d/%d",
			sw.DeviceName(), st.Forwarded.Value(), st.Injected.Value(), st.NoRoute.Value(), st.DeadPort.Value(),
			st.PFCIssued.Value(), st.PFCResumed.Value(), st.IngressHold.Value(), st.IngressHold.Watermark()))
	}
	for _, smp := range reg.Snapshot() {
		out = append(out, fmt.Sprintf("obs %+v", smp))
	}
	return out
}

// compareLayout runs the layout drawn from seed both ways and reports the
// first line that differs. It returns the lazy run's lines.
func compareLayout(t *testing.T, seed int64) []string {
	t.Helper()
	l := genLayout(seed)
	lazy, eager := runLayout(l, seed, false), runLayout(l, seed, true)
	for i := 0; i < len(lazy) && i < len(eager); i++ {
		if lazy[i] != eager[i] {
			t.Fatalf("seed %d: line %d differs:\nlazy  %s\neager %s", seed, i, lazy[i], eager[i])
		}
	}
	if len(lazy) != len(eager) {
		t.Fatalf("seed %d: lazy observed %d facts, eager %d", seed, len(lazy), len(eager))
	}
	return lazy
}

// TestLazyPortsInert holds a fabric whose switches build only the ports
// they wire to one whose switches build every port, over seeded layouts,
// and checks that together the layouts reached deliveries, dead ports,
// background noise, the L2 spine and PFC pauses.
func TestLazyPortsInert(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	var rx, dead, noise, spine, pfc int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, line := range compareLayout(t, seed) {
			var name string
			var fwd, inj, noroute, dp, pause uint64
			if _, err := fmt.Sscanf(line, "switch %s fwd=%d inj=%d noroute=%d dead=%d pfc=%d",
				&name, &fwd, &inj, &noroute, &dp, &pause); err != nil {
				if strings.HasPrefix(line, "rx ") {
					rx++
				}
				continue
			}
			if dp > 0 {
				dead++
			}
			if inj > 0 {
				noise++
			}
			if name == "l2" && fwd > 0 {
				spine++
			}
			if pause > 0 {
				pfc++
			}
		}
	}
	t.Logf("deliveries=%d switches with dead-port drops=%d with noise=%d busy spines=%d with PFC=%d",
		rx, dead, noise, spine, pfc)
	if rx == 0 || dead == 0 || noise == 0 || spine == 0 || pfc == 0 {
		t.Fatal("the layouts did not reach every case")
	}
}

// FuzzLazyPortsInert checks the lazy switch against the eager reference
// on layouts drawn from arbitrary seeds.
func FuzzLazyPortsInert(f *testing.F) {
	for _, seed := range []int64{0, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compareLayout(t, seed)
	})
}

// TestDeadPortFreesUnbuiltPort routes a frame to a host port that was
// never built: the switch counts it as DeadPort, returns the packet to
// the pool, and still has not built the port.
func TestDeadPortFreesUnbuiltPort(t *testing.T) {
	s := sim.New(1)
	dc := NewDatacenter(s, smallConfig())
	h := dc.Host(0)
	tor := dc.TOR(0, 0)
	packet := NewPacket(pkt.EncodeUDP(h.MAC(), HostMAC(2), h.IP(), HostIP(2), 9, 9,
		pkt.ClassBestEffort, 64, 1, []byte("x")))
	tor.HandleFrame(tor.Port(0), packet)
	if got := tor.Stats().DeadPort.Value(); got != 1 {
		t.Errorf("DeadPort = %d, want 1", got)
	}
	if packet.F != nil {
		t.Error("the dead-port packet was not returned to the pool")
	}
	if tor.ports[2] != nil {
		t.Error("routing to host port 2 built it")
	}
}

// TestNewSwitchBuildsNoPorts guards NewSwitch against building its ports
// up front: an L1-sized switch (radix 41) costs its struct and four
// radix-long slices, where an eager one costs several allocations a port.
func TestNewSwitchBuildsNoPorts(t *testing.T) {
	s := sim.New(1)
	obs.Enable(s)
	cfg := SwitchConfig{Name: "l1", Radix: 41, Port: DefaultPortConfig()}
	if got := testing.AllocsPerRun(100, func() { NewSwitch(s, cfg) }); got > 5 {
		t.Errorf("NewSwitch at radix 41 made %v allocations, want at most 5", got)
	}
}
