package configcloud

import (
	"math/rand"
	"testing"

	"repro/internal/cryptoflow"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/ranking"
	"repro/internal/sim"
)

// Full-stack scenarios exercising several subsystems against each other.

// TestPassthroughAndAccelerationNoInteraction reproduces the §III claim:
// "The passthrough traffic and the search ranking acceleration have no
// performance interaction." We measure PCIe ranking-call latency with the
// bridge idle and with the bridge saturated by best-effort traffic.
func TestPassthroughAndAccelerationNoInteraction(t *testing.T) {
	measure := func(withTraffic bool) sim.Time {
		cloud := New(Options{Seed: 51})
		n0, n1 := cloud.Node(0), cloud.Node(1)
		role := ranking.NewFPGARole(cloud.Sim)
		n0.Shell.LoadRole(role.HandleRequest)

		if withTraffic {
			// Saturate the bump-in-the-wire in both directions.
			n1.Host.RegisterUDP(9, func(*pkt.Frame) {})
			n0.Host.RegisterUDP(9, func(*pkt.Frame) {})
			for i := 0; i < 500; i++ {
				n0.Host.SendUDPRaw(n1.Host.IP(), 9, 9, pkt.ClassBestEffort, make([]byte, 1400))
				n1.Host.SendUDPRaw(n0.Host.IP(), 9, 9, pkt.ClassBestEffort, make([]byte, 1400))
			}
		}
		h := metrics.NewHistogram()
		req := ranking.EncodeRequest(ranking.Profile{
			FpgaFeature: 15 * Microsecond, RespBytes: 256,
		})
		done := 0
		var call func()
		call = func() {
			t0 := cloud.Sim.Now()
			err := n0.Shell.PCIeCall(req, func([]byte) {
				h.Observe(int64(cloud.Sim.Now() - t0))
				done++
				if done < 50 {
					call()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		call()
		cloud.Run(50 * Millisecond)
		if done < 50 {
			t.Fatalf("withTraffic=%v: only %d calls completed", withTraffic, done)
		}
		return sim.Time(h.Percentile(99))
	}
	idle := measure(false)
	loaded := measure(true)
	// PCIe acceleration must be unaffected by bridge load (the datapaths
	// are independent: separate PCIe connection, separate queues).
	if float64(loaded) > float64(idle)*1.05 {
		t.Errorf("passthrough traffic perturbed acceleration: p99 %v -> %v", idle, loaded)
	}
}

// TestLTLUnaffectedByBestEffortFloods: LTL rides a lossless higher
// priority class, so bulk best-effort traffic on the same links must not
// destroy its latency.
func TestLTLUnaffectedByBestEffortFloods(t *testing.T) {
	measure := func(flood bool) sim.Time {
		cloud := New(Options{Seed: 52})
		a, b, c := cloud.Node(0), cloud.Node(1), cloud.Node(2)
		sim.Must(b.Shell.Engine.OpenRecv(3, netsim.HostIP(0), nil))
		sim.Must(a.Shell.Engine.OpenSend(3, netsim.HostIP(1), netsim.HostMAC(1), 3, 0, nil))
		if flood {
			b.Host.RegisterUDP(9, func(*pkt.Frame) {})
			for i := 0; i < 2000; i++ {
				c.Host.SendUDPRaw(b.Host.IP(), 9, 9, pkt.ClassBestEffort, make([]byte, 1400))
			}
		}
		h := metrics.NewHistogram()
		n := 0
		var ping func()
		ping = func() {
			t0 := cloud.Sim.Now()
			sim.Must(a.Shell.Engine.SendMessage(3, make([]byte, 64), func() {
				h.Observe(int64(cloud.Sim.Now() - t0))
				n++
				if n < 100 {
					cloud.Sim.Schedule(10*Microsecond, ping)
				}
			}))
		}
		ping()
		cloud.Run(100 * Millisecond)
		if n < 100 {
			t.Fatalf("flood=%v: %d pings", flood, n)
		}
		return sim.Time(int64(h.Mean()))
	}
	calm := measure(false)
	floody := measure(true)
	// Strict priority + separate class queues: the mean moves by at most
	// a couple of in-flight best-effort serializations (~300ns each).
	if float64(floody) > float64(calm)*1.4 {
		t.Errorf("best-effort flood inflated LTL RTT: %v -> %v", calm, floody)
	}
}

// TestCryptoAndLTLShareTheShell: the crypto tap transforms host flows
// while the same shell's LTL engine serves remote messages.
func TestCryptoAndLTLShareTheShell(t *testing.T) {
	cloud := New(Options{Seed: 53})
	a, b := cloud.Node(0), cloud.Node(1)
	tapA := cryptoflow.NewTap(cryptoflow.DefaultCostModel())
	tapB := cryptoflow.NewTap(cryptoflow.DefaultCostModel())
	a.Shell.AddTap(tapA)
	b.Shell.AddTap(tapB)
	key := []byte("0123456789abcdef")
	flow := cryptoflow.FlowKey{Src: netsim.HostIP(0), Dst: netsim.HostIP(1), SrcPort: 443, DstPort: 443}
	id, err := tapA.AddFlow(flow, cryptoflow.AESGCM128, key)
	sim.Must(err)
	sim.Must(tapB.AddFlowWithID(flow, cryptoflow.AESGCM128, key, id))

	gotPlain := 0
	b.Host.RegisterUDP(443, func(f *pkt.Frame) {
		if string(f.Payload) == "host secret" {
			gotPlain++
		}
	})
	gotLTL := 0
	sim.Must(b.Shell.OpenRemoteRecv(4, 0, func(p []byte) { gotLTL++ }))
	sim.Must(a.Shell.OpenRemoteSend(4, 1, 4))

	for i := 0; i < 50; i++ {
		a.Host.SendUDP(b.Host.IP(), 443, 443, pkt.ClassBestEffort, []byte("host secret"))
		a.Shell.SendRemote(4, []byte("fpga msg"), nil)
	}
	cloud.Run(20 * Millisecond)
	if gotPlain != 50 || gotLTL != 50 {
		t.Fatalf("plain=%d ltl=%d, want 50/50", gotPlain, gotLTL)
	}
	if tapA.Stats.Encrypted.Value() != 50 {
		t.Errorf("encrypted %d", tapA.Stats.Encrypted.Value())
	}
	// LTL frames must NOT have been run through the crypto flow (they are
	// consumed before taps on receive, and don't match the flow tuple on
	// send).
	if tapB.Stats.AuthFailures.Value() != 0 {
		t.Errorf("LTL traffic corrupted by crypto tap: %d auth failures",
			tapB.Stats.AuthFailures.Value())
	}
}

// TestRemoteRankingOverRealLTL runs the ranking feature stage on a remote
// FPGA through the real packet path (shell role + LTL), checking the
// end-to-end call latency is LTL RTT + engine time.
func TestRemoteRankingOverRealLTL(t *testing.T) {
	cloud := New(Options{Seed: 54})
	client, accel := cloud.Node(0), cloud.Node(30) // same pod, different TOR

	role := ranking.NewFPGARole(cloud.Sim)
	accel.Shell.LoadRole(role.HandleRequest)
	// Remote request path: client role -> LTL -> accel; response back.
	sim.Must(accel.Shell.OpenRemoteRecv(6, 0, func(p []byte) {
		role.HandleRequest(p, func(resp []byte) {
			accel.Shell.SendRemote(7, resp, nil)
		})
	}))
	sim.Must(accel.Shell.OpenRemoteSend(7, 0, 7))
	sim.Must(client.Shell.OpenRemoteSend(6, 30, 6))

	pool := ranking.NewProfilePool(rand.New(rand.NewSource(3)), 100, ranking.DefaultCostModel())
	p := pool.Sample()
	var gotAt sim.Time = -1
	sim.Must(client.Shell.OpenRemoteRecv(7, 30, func(resp []byte) { gotAt = cloud.Sim.Now() }))

	t0 := cloud.Sim.Now()
	client.Shell.SendRemote(6, ranking.EncodeRequest(p), nil)
	cloud.Run(10 * Millisecond)
	if gotAt < 0 {
		t.Fatal("remote feature call never returned")
	}
	total := gotAt - t0
	// Must cover the engine time plus one L1 round trip, and stay within
	// a small multiple of it ("the latency overhead of remote accesses is
	// minimal").
	if total < p.FpgaFeature {
		t.Fatalf("remote call %v faster than the engine time %v", total, p.FpgaFeature)
	}
	if total > p.FpgaFeature+40*Microsecond {
		t.Errorf("remote overhead too large: total %v for engine %v", total, p.FpgaFeature)
	}
}

// TestSEUStormRecovery: inject many SEUs across a bed; scrubbing must
// repair all hangs within a scrub period and service resumes.
func TestSEUStormRecovery(t *testing.T) {
	shCfg := DefaultShellConfig()
	shCfg.ScrubInterval = 100 * Millisecond
	cloud := New(Options{Seed: 55, Shell: shCfg})
	var nodes []Node
	for i := 0; i < 8; i++ {
		n := cloud.Node(i)
		n.Shell.LoadRole(ranking.NewFPGARole(cloud.Sim).HandleRequest)
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		n.Shell.InjectSEU(true)
	}
	for _, n := range nodes {
		if n.Shell.RoleUp() {
			t.Fatal("role survived SEU hang")
		}
	}
	cloud.Run(200 * Millisecond) // > scrub interval
	for _, n := range nodes {
		if !n.Shell.RoleUp() {
			t.Fatal("scrubber failed to recover a role")
		}
		if err := n.Shell.PCIeCall(ranking.EncodeRequest(ranking.Profile{FpgaFeature: Microsecond, RespBytes: 8}), func([]byte) {}); err != nil {
			t.Fatalf("recovered role rejects requests: %v", err)
		}
	}
}

// TestBandwidthLimitProtectsHostTraffic reproduces §V-D: "network
// bandwidth can be reduced by the remote service. To prevent issues, LTL
// implements bandwidth limiting to prevent the FPGA from exceeding a
// configurable bandwidth limit." A donated FPGA serves heavy remote
// traffic; with the limiter set, the host's own bulk transfer keeps most
// of the link.
func TestBandwidthLimitProtectsHostTraffic(t *testing.T) {
	run := func(limitBps int64) (hostFrames uint64) {
		shCfg := DefaultShellConfig()
		shCfg.LTL.BandwidthLimitBps = limitBps
		shCfg.LTL.DCQCN = false
		cloud := New(Options{Seed: 57, Shell: shCfg})
		donor := cloud.Node(0)  // donated FPGA: its host still serves traffic
		remote := cloud.Node(1) // consumer of the donated FPGA
		peer := cloud.Node(2)   // host 0's software talks to host 2

		// Remote service: the donor's FPGA streams results to the remote
		// FPGA continuously (e.g. a borrowed accelerator's output).
		sim.Must(remote.Shell.Engine.OpenRecv(2, netsim.HostIP(0), nil))
		sim.Must(donor.Shell.Engine.OpenSend(2, netsim.HostIP(1), netsim.HostMAC(1), 2, 0, nil))
		var pump func()
		pump = func() {
			donor.Shell.Engine.SendMessage(2, make([]byte, 1400), nil)
			cloud.Sim.Schedule(300*Nanosecond, pump) // ~37 Gb/s offered
		}
		cloud.Sim.Schedule(0, pump)

		// Host software bulk transfer through the same 40G link.
		peer.Host.RegisterUDP(9, func(*pkt.Frame) { hostFrames++ })
		var hostPump func()
		hostPump = func() {
			donor.Host.SendUDPRaw(peer.Host.IP(), 9, 9, pkt.ClassBestEffort, make([]byte, 1400))
			cloud.Sim.Schedule(400*Nanosecond, hostPump) // ~28 Gb/s offered
		}
		cloud.Sim.Schedule(0, hostPump)

		cloud.Run(5 * Millisecond)
		return hostFrames
	}
	unlimited := run(0)
	limited := run(5e9) // FPGA capped at 5 Gb/s
	// LTL rides the higher-priority class, so an uncapped donated FPGA
	// starves host traffic; the limiter must restore most of it.
	if limited < unlimited*3/2 {
		t.Errorf("bandwidth limiter ineffective: host frames %d (capped) vs %d (uncapped)",
			limited, unlimited)
	}
	// And with the cap, the host must achieve the large majority of its
	// offered ~28 Gb/s: 5ms x 28Gb/s / (1400B*8) = ~12.5k frames offered.
	if limited < 9000 {
		t.Errorf("host throughput still degraded under cap: %d frames", limited)
	}
}
