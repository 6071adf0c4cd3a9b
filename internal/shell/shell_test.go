package shell

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ltl"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// bed builds a datacenter slice whose hosts all carry shells.
func bed(s *sim.Simulation) (*netsim.Datacenter, map[int]*Shell) {
	shells := map[int]*Shell{}
	cfg := netsim.DefaultConfig()
	cfg.HostsPerTOR = 4
	cfg.TORsPerPod = 3
	cfg.Pods = 2
	cfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		sh := New(dc.Sim, hostID, netsim.DefaultPortConfig(), DefaultConfig())
		shells[hostID] = sh
		return sh
	}
	return netsim.NewDatacenter(s, cfg), shells
}

func TestBridgePassesHostTraffic(t *testing.T) {
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1 := dc.Host(0), dc.Host(1)
	var got []byte
	h1.RegisterUDP(7000, func(f *pkt.Frame) { got = append([]byte(nil), f.Payload...) })
	h0.SendUDP(h1.IP(), 7000, 7000, pkt.ClassBestEffort, []byte("through the bump"))
	s.RunFor(sim.Millisecond)
	if string(got) != "through the bump" {
		t.Fatalf("payload %q", got)
	}
	if shells[0].Stats.Bridged.Value() == 0 || shells[1].Stats.Bridged.Value() == 0 {
		t.Error("bridge counters not incremented on both shells")
	}
}

func TestLTLBetweenShells(t *testing.T) {
	s := sim.New(1)
	dc, shells := bed(s)
	dc.Host(0)
	dc.Host(1)
	a, b := shells[0], shells[1]
	var got []byte
	if err := b.OpenRemoteRecv(5, 0, func(p []byte) { got = append([]byte(nil), p...) }); err != nil {
		t.Fatal(err)
	}
	if err := a.OpenRemoteSend(5, 1, 5); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time = -1
	a.SendRemote(5, []byte("fpga to fpga"), func() { doneAt = s.Now() })
	s.RunFor(sim.Millisecond)
	if string(got) != "fpga to fpga" {
		t.Fatalf("remote payload %q", got)
	}
	if doneAt < 0 {
		t.Fatal("ACK completion never fired")
	}
	// Same-TOR LTL RTT should land in the low single-digit microseconds.
	if doneAt < sim.Microsecond || doneAt > 10*sim.Microsecond {
		t.Errorf("L0 LTL RTT = %v, expected ~2.9us", doneAt)
	}
	if b.Stats.LTLConsumed.Value() == 0 {
		t.Error("LTL frames were not consumed at the shell")
	}
}

func TestLTLAndBridgeCoexist(t *testing.T) {
	// "all the server's network traffic is passing through the FPGA while
	// it is simultaneously accelerating" — host traffic and LTL share the
	// shell without interference.
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1 := dc.Host(0), dc.Host(1)
	a, b := shells[0], shells[1]
	b.OpenRemoteRecv(5, 0, func(p []byte) {})
	a.OpenRemoteSend(5, 1, 5)

	hostMsgs := 0
	h1.RegisterUDP(7000, func(f *pkt.Frame) { hostMsgs++ })
	ltlDone := 0
	for i := 0; i < 50; i++ {
		h0.SendUDP(h1.IP(), 7000, 7000, pkt.ClassBestEffort, make([]byte, 1000))
		a.SendRemote(5, make([]byte, 500), func() { ltlDone++ })
	}
	s.RunFor(10 * sim.Millisecond)
	if hostMsgs != 50 {
		t.Errorf("host messages = %d, want 50", hostMsgs)
	}
	if ltlDone != 50 {
		t.Errorf("LTL completions = %d, want 50", ltlDone)
	}
}

// reverseTap flips payload bytes of best-effort UDP frames in one
// direction — a stand-in for an in-line transform like encryption.
type reverseTap struct{ dir Direction }

func (rt *reverseTap) Process(dir Direction, buf []byte, f *pkt.Frame) ([]byte, sim.Time) {
	if dir != rt.dir || !f.UDPValid || f.DstPort != 7000 {
		return buf, 0
	}
	p := make([]byte, len(f.Payload))
	for i, b := range f.Payload {
		p[len(p)-1-i] = b
	}
	return pkt.EncodeUDP(f.Src, f.Dst, f.SrcIP, f.DstIP, f.SrcPort, f.DstPort, f.Class(), f.TTL, f.IPID, p), 0
}

func TestTapTransformsTraffic(t *testing.T) {
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1 := dc.Host(0), dc.Host(1)
	shells[0].AddTap(&reverseTap{dir: HostToNet})
	shells[1].AddTap(&reverseTap{dir: NetToHost})
	var got []byte
	h1.RegisterUDP(7000, func(f *pkt.Frame) { got = append([]byte(nil), f.Payload...) })
	h0.SendUDP(h1.IP(), 7000, 7000, pkt.ClassBestEffort, []byte("abcdef"))
	s.RunFor(sim.Millisecond)
	// Reversed twice = identity: transparent to the endpoints.
	if string(got) != "abcdef" {
		t.Fatalf("double transform not transparent: %q", got)
	}
	if shells[0].Stats.Tapped.Value() != 1 || shells[1].Stats.Tapped.Value() != 1 {
		t.Error("tap counters wrong")
	}
}

// dropTap consumes everything to port 9999.
type dropTap struct{}

func (dropTap) Process(dir Direction, buf []byte, f *pkt.Frame) ([]byte, sim.Time) {
	if f.UDPValid && f.DstPort == 9999 {
		return nil, 0
	}
	return buf, 0
}

func TestTapConsumesFrames(t *testing.T) {
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1 := dc.Host(0), dc.Host(1)
	shells[0].AddTap(dropTap{})
	n := 0
	h1.RegisterUDP(9999, func(f *pkt.Frame) { n++ })
	h0.SendUDP(h1.IP(), 9999, 9999, pkt.ClassBestEffort, []byte("x"))
	s.RunFor(sim.Millisecond)
	if n != 0 {
		t.Fatal("consumed frame was delivered")
	}
	if shells[0].Stats.Consumed.Value() != 1 {
		t.Error("consume counter not incremented")
	}
}

func TestFullReconfigDropsLink(t *testing.T) {
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1 := dc.Host(0), dc.Host(1)
	n := 0
	h1.RegisterUDP(7000, func(f *pkt.Frame) { n++ })

	shells[1].Reconfigure(false, nil)
	h0.SendUDP(h1.IP(), 7000, 7000, pkt.ClassBestEffort, []byte("lost"))
	s.RunFor(10 * sim.Millisecond) // well inside the reconfig window
	if n != 0 {
		t.Fatal("frame delivered while bridge down")
	}
	if shells[1].Stats.DroppedDown.Value() == 0 {
		t.Error("DroppedDown not counted")
	}
	s.RunFor(sim.Second) // reconfig completes
	h0.SendUDP(h1.IP(), 7000, 7000, pkt.ClassBestEffort, []byte("back"))
	s.RunFor(10 * sim.Millisecond)
	if n != 1 {
		t.Fatal("link did not come back after full reconfiguration")
	}
}

func TestPartialReconfigKeepsPacketsFlowing(t *testing.T) {
	// "partial reconfiguration permits packets to be passed through even
	// during reconfiguration of the role."
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1 := dc.Host(0), dc.Host(1)
	n := 0
	h1.RegisterUDP(7000, func(f *pkt.Frame) { n++ })
	shells[1].Reconfigure(true, nil)
	if shells[1].RoleUp() {
		t.Error("role should be down during partial reconfig")
	}
	h0.SendUDP(h1.IP(), 7000, 7000, pkt.ClassBestEffort, []byte("still flowing"))
	s.RunFor(10 * sim.Millisecond)
	if n != 1 {
		t.Fatal("partial reconfiguration interrupted the bridge")
	}
}

// echoRole doubles each byte.
func echoRole(payload []byte, respond func([]byte)) {
	out := make([]byte, len(payload))
	for i, b := range payload {
		out[i] = b * 2
	}
	respond(out)
}

func TestPCIeCallRoundTrip(t *testing.T) {
	s := sim.New(1)
	sh := New(s, 0, netsim.DefaultPortConfig(), DefaultConfig())
	sh.LoadRole(echoRole)
	var got []byte
	var at sim.Time
	if err := sh.PCIeCall([]byte{1, 2, 3}, func(resp []byte) {
		got = resp
		at = s.Now()
	}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	if !bytes.Equal(got, []byte{2, 4, 6}) {
		t.Fatalf("response %v", got)
	}
	// Two DMA traversals plus ER hops: ~2-3us.
	if at < sim.Microsecond || at > 20*sim.Microsecond {
		t.Errorf("PCIe round trip = %v", at)
	}
}

func TestPCIeCallFailsWithoutRole(t *testing.T) {
	s := sim.New(1)
	sh := New(s, 0, netsim.DefaultPortConfig(), DefaultConfig())
	if err := sh.PCIeCall([]byte{1}, func([]byte) {}); err == nil {
		t.Fatal("expected error with empty role slot")
	}
}

// A role loaded without a PCIe handler serves (its data path is the
// shell's remote handlers) but takes no host requests: PCIeCall fails
// before it counts or schedules anything.
func TestPCIeCallFailsWithoutHandler(t *testing.T) {
	s := sim.New(1)
	sh := New(s, 0, netsim.DefaultPortConfig(), DefaultConfig())
	sh.LoadRole(nil)
	if !sh.RoleUp() {
		t.Fatal("role loaded without a PCIe handler is not up")
	}
	pending := s.Pending()
	if err := sh.PCIeCall([]byte{1}, func([]byte) {}); err == nil {
		t.Fatal("expected error from a role without a PCIe handler")
	}
	if n := sh.Stats.PCIeReqs.Value(); n != 0 {
		t.Errorf("PCIeReqs = %d, want 0", n)
	}
	if s.Pending() != pending {
		t.Errorf("PCIeCall scheduled events: pending %d -> %d", pending, s.Pending())
	}
}

func TestSEUHangAndScrubRecovery(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	sh := New(s, 0, netsim.DefaultPortConfig(), cfg)
	sh.LoadRole(echoRole)
	sh.InjectSEU(true)
	if sh.RoleUp() {
		t.Fatal("role should hang after SEU")
	}
	if err := sh.PCIeCall([]byte{1}, func([]byte) {}); err == nil {
		t.Error("hung role should reject requests")
	}
	// "our system recovers from hung roles automatically" within a scrub
	// period (~30 s).
	s.RunFor(cfg.ScrubInterval + sim.Second)
	if !sh.RoleUp() {
		t.Fatal("scrubber did not recover the hung role")
	}
	if sh.Stats.ScrubRepairs.Value() != 1 || sh.Stats.RoleHangs.Value() != 1 {
		t.Errorf("repair/hang counters: %d/%d",
			sh.Stats.ScrubRepairs.Value(), sh.Stats.RoleHangs.Value())
	}
}

// TestHungRoleSwallowsServiceDatagrams checks the whole-board datagram
// gate: a loaded role that is hung or reconfiguring swallows service
// datagrams, while a shell that never loaded a role (a client end)
// receives its replies.
func TestHungRoleSwallowsServiceDatagrams(t *testing.T) {
	s := sim.New(1)
	dc, shells := bed(s)
	dc.Host(0)
	dc.Host(1)
	server, client := shells[0], shells[1]
	server.LoadRole(echoRole)
	served, replies := 0, 0
	server.SetServiceHandler(func(from int, kind uint8, p []byte) {
		served++
		server.SendDatagram(from, kind, p)
	})
	client.SetServiceHandler(func(int, uint8, []byte) { replies++ })
	ping := func(wantServed, wantReplies int, when string) {
		t.Helper()
		client.SendDatagram(0, 1, []byte("ping"))
		s.RunFor(sim.Millisecond)
		if served != wantServed || replies != wantReplies {
			t.Fatalf("%s: served %d, replies %d; want %d, %d", when, served, replies, wantServed, wantReplies)
		}
	}

	ping(1, 1, "role up")
	server.InjectSEU(true)
	ping(1, 1, "role hung")
	s.RunFor(DefaultConfig().ScrubInterval)
	if !server.RoleUp() {
		t.Fatal("scrubber did not recover the hung role")
	}
	ping(2, 2, "after scrub")
	server.Reconfigure(true, echoRole)
	ping(2, 2, "role reconfiguring")
	s.RunFor(partialReconfigTime)
	ping(3, 3, "after reconfiguration")
}

func TestPowerCycleRestoresGolden(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	sh := New(s, 0, netsim.DefaultPortConfig(), cfg)
	sh.LoadRole(echoRole)
	sh.PowerCycle()
	if sh.RoleUp() {
		t.Error("role survived power cycle")
	}
	s.RunFor(cfg.FullReconfigTime + sim.Millisecond)
	if !sh.bridgeUp || !sh.goldenLoaded {
		t.Fatal("golden image did not restore the link")
	}
}

func TestFailureDoesNotAffectNeighbors(t *testing.T) {
	// Unlike the torus, a bump-in-the-wire failure only cuts off its own
	// server: traffic between other hosts on the same TOR is unaffected.
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1, h2 := dc.Host(0), dc.Host(1), dc.Host(2)
	shells[0].Reconfigure(false, nil) // host 0's link goes down

	got := 0
	h2.RegisterUDP(7000, func(f *pkt.Frame) { got++ })
	h1.SendUDP(h2.IP(), 7000, 7000, pkt.ClassBestEffort, []byte("unaffected"))
	s.RunFor(10 * sim.Millisecond)
	if got != 1 {
		t.Fatal("neighbor traffic was affected by host 0's FPGA failure")
	}
	_ = h0
}

func TestAreaBreakdownMatchesFig5(t *testing.T) {
	if AreaUsed() != 131350 {
		t.Errorf("total ALMs used = %d, want 131,350 (76%%)", AreaUsed())
	}
	usedPct := pctOfDevice(AreaUsed())
	if usedPct != 76 {
		t.Errorf("used = %d%%, want 76%%", usedPct)
	}
	// Shell = 44% of the FPGA (paper: "the design uses 44% of the FPGA to
	// support all shell functions").
	shellPct := pctOfDevice(ShellALMs())
	if shellPct != 44 {
		t.Errorf("shell = %d%%, want 44%%", shellPct)
	}
	// LTL 7%, ER 2% (§V-B).
	for _, e := range AreaBreakdown() {
		switch e.Component {
		case "LTL Protocol Engine":
			if pctOfDevice(e.ALMs) != 7 {
				t.Errorf("LTL = %d%%, want 7%%", pctOfDevice(e.ALMs))
			}
		case "Elastic Router":
			if pctOfDevice(e.ALMs) != 2 {
				t.Errorf("ER = %d%%, want 2%%", pctOfDevice(e.ALMs))
			}
		}
	}
	out := AreaTable().String()
	if !strings.Contains(out, "Elastic Router") || !strings.Contains(out, "172600") {
		t.Errorf("table rendering incomplete:\n%s", out)
	}
}

func TestShellPFCGeneration(t *testing.T) {
	// The TOR pauses the shell's TOR-side port while host 0 paces a
	// lossless burst past that port's queue: the shell must pause the
	// NIC (hop-by-hop PFC) rather than drop, and the burst must still
	// fit the NIC's own queue.
	s := sim.New(1)
	dc, shells := bed(s)
	h0, h1 := dc.Host(0), dc.Host(1)
	sh := shells[0]
	recv := 0
	h1.RegisterUDP(7000, func(f *pkt.Frame) { recv++ })
	sh.netPort.Pause(pkt.ClassLTL, 2*sim.Millisecond)

	// 600 frames of 1,446 wire bytes (847 KiB) against the shell's
	// 512 KiB queue and the NIC's 4 MiB, one every 300 ns: just under
	// the 40G line rate, so only the shell's pauses back the NIC up.
	const frames = 600
	payload := make([]byte, 1400)
	for i := 0; i < frames; i++ {
		s.Schedule(sim.Time(i)*300*sim.Nanosecond, func() {
			h0.SendUDPRaw(h1.IP(), 7000, 7000, pkt.ClassLTL, payload)
		})
	}
	s.RunFor(50 * sim.Millisecond)
	if recv != frames {
		t.Fatalf("lossless delivery incomplete: %d/%d", recv, frames)
	}
	for _, p := range []*netsim.Port{sh.hostPort, sh.netPort, h0.NIC()} {
		st := p.Stats()
		if drops := st.DropsTail.Value() + st.DropsRED.Value(); drops != 0 {
			t.Errorf("%s port %d dropped %d lossless frames", p.Device().DeviceName(), p.Index(), drops)
		}
	}
	if h0.NIC().Stats().PFCRecv.Value() == 0 {
		t.Error("the shell never paused the NIC")
	}
	for _, p := range []*netsim.Port{sh.hostPort, sh.netPort} {
		if held := p.HeldBytes(pkt.ClassLTL); held != 0 {
			t.Errorf("shell port %d still holds %d bytes after drain", p.Index(), held)
		}
	}
}

// TestRemoteOpenRejectsDatagramConn: the connection id dgramConn marks
// service datagrams on the Elastic Router, so neither remote open may
// use it, as the local id or as the remote one, and a refused open
// allocates nothing. A receive open of an id already in use is refused
// too, and leaves the live connection's handler in place.
func TestRemoteOpenRejectsDatagramConn(t *testing.T) {
	s := sim.New(1)
	dc, shells := bed(s)
	dc.Host(0)
	dc.Host(1)
	a, b := shells[0], shells[1]
	if err := a.OpenRemoteSend(dgramConn, 1, 3); err == nil {
		t.Error("OpenRemoteSend accepted dgramConn as its own id")
	}
	if err := a.OpenRemoteSend(3, 1, dgramConn); err == nil {
		t.Error("OpenRemoteSend accepted dgramConn as the remote id")
	}
	if err := b.OpenRemoteRecv(dgramConn, 0, func([]byte) {}); err == nil {
		t.Error("OpenRemoteRecv accepted dgramConn")
	}
	for _, conn := range []uint16{dgramConn, 3} {
		if err := a.Engine.SendMessage(conn, []byte{1}, nil); err == nil {
			t.Errorf("a refused OpenRemoteSend allocated send connection %#x", conn)
		}
	}
	if _, ok := b.remoteRecv[dgramConn]; ok {
		t.Error("a refused OpenRemoteRecv registered a handler")
	}
	if err := b.Engine.OpenRecv(dgramConn, a.LocalIP(), nil); err != nil {
		t.Errorf("a refused OpenRemoteRecv allocated the receive connection: %v", err)
	}
	// The ids themselves stay usable for ordinary connections.
	if err := a.OpenRemoteSend(3, 1, 4); err != nil {
		t.Fatal(err)
	}

	var first, second int
	if err := b.OpenRemoteRecv(5, 0, func([]byte) { first++ }); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenRemoteRecv(5, 0, func([]byte) { second++ }); err == nil {
		t.Error("OpenRemoteRecv accepted an id already in use")
	}
	if err := a.OpenRemoteSend(5, 1, 5); err != nil {
		t.Fatal(err)
	}
	a.SendRemote(5, []byte{1}, nil)
	s.RunFor(sim.Millisecond)
	if first != 1 || second != 0 {
		t.Errorf("message on the live connection reached first=%d second=%d times, want 1 and 0", first, second)
	}
}

// TestRemoteMessagesSurviveBufferReuse sends waves of back-to-back
// messages of different lengths over one LTL connection while both
// directions lose frames. LTL retransmits straight from the Elastic
// Router message it was handed, and completed messages' buffers are
// recycled for the next reassembly (and the sender's payload buffer is
// reused at once), so a buffer freed too early would put wrong bytes on
// the wire. Every message must arrive intact and in order.
func TestRemoteMessagesSurviveBufferReuse(t *testing.T) {
	s := sim.New(7)
	dc, shells := bed(s)
	dc.Host(0)
	dc.Host(5) // another TOR
	a, b := shells[0], shells[5]
	a.SetEgressLossRate(0.15)
	b.SetEgressLossRate(0.15)
	var got [][]byte
	if err := b.OpenRemoteRecv(3, 0, func(p []byte) { got = append(got, append([]byte(nil), p...)) }); err != nil {
		t.Fatal(err)
	}
	if err := a.OpenRemoteSend(3, 5, 3); err != nil {
		t.Fatal(err)
	}
	rng := s.NewRand()
	mtu := ltl.MTU
	var want [][]byte
	var buf []byte // one caller buffer, rewritten for every message
	acked := 0
	for wave := 0; wave < 8; wave++ {
		for i := 0; i < 12; i++ {
			n := 1 + rng.Intn(3*mtu)
			if i%3 == 0 {
				n = 1 + rng.Intn(64)
			}
			buf = buf[:0]
			for j := 0; j < n; j++ {
				buf = append(buf, byte(rng.Intn(256)))
			}
			want = append(want, append([]byte(nil), buf...))
			a.SendRemote(3, buf, func() { acked++ })
		}
		s.RunFor(300 * sim.Microsecond)
	}
	s.RunFor(100 * sim.Millisecond)
	if a.Engine.Stats.Retransmits.Value() == 0 {
		t.Fatal("no frame was retransmitted: the loss did not exercise the retransmit path")
	}
	if len(got) != len(want) || acked != len(want) {
		t.Fatalf("delivered %d, acked %d of %d messages", len(got), acked, len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message %d (%d bytes) arrived corrupted", i, len(want[i]))
		}
	}
}
