package configcloud

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func fig10Quick() Fig10Result {
	cfg := DefaultFig10Config()
	cfg.PingsPer = 150
	return Fig10(cfg)
}

func TestFig10MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 run is heavy")
	}
	res := fig10Quick()

	within := func(name string, got, want sim.Time, tol float64) {
		t.Helper()
		lo := sim.Time(float64(want) * (1 - tol))
		hi := sim.Time(float64(want) * (1 + tol))
		if got < lo || got > hi {
			t.Errorf("%s = %v, want %v ±%.0f%%", name, got, want, tol*100)
		}
	}
	l0, l1, l2 := res.Tiers[0], res.Tiers[1], res.Tiers[2]

	// Paper: L0 avg 2.88us (99.9% 2.9), L1 avg 7.72us (99.9% 8.24),
	// L2 avg 18.71us (99.9% 22.38, never above 23.5).
	within("L0 avg", l0.Avg, 2880*sim.Nanosecond, 0.10)
	within("L0 p99.9", l0.P999, 2900*sim.Nanosecond, 0.10)
	within("L1 avg", l1.Avg, 7720*sim.Nanosecond, 0.12)
	within("L1 p99.9", l1.P999, 8240*sim.Nanosecond, 0.12)
	within("L2 avg", l2.Avg, 18710*sim.Nanosecond, 0.12)
	within("L2 p99.9", l2.P999, 22380*sim.Nanosecond, 0.12)
	if l2.Max > sim.Time(23.5*1000)*sim.Nanosecond {
		t.Errorf("L2 max RTT = %v exceeds the paper's 23.5us bound", l2.Max)
	}

	// Scale axis: L0 reaches 24, L1 960, L2 > 250k hosts.
	if l0.Reachable != 24 || l1.Reachable != 960 || l2.Reachable < 250000 {
		t.Errorf("reachability: %d/%d/%d", l0.Reachable, l1.Reachable, l2.Reachable)
	}

	// Torus baseline: ~1us 1-hop, ~7us worst, capped at 48 nodes.
	within("torus 1-hop", res.Torus1HopRTT, 1000*sim.Nanosecond, 0.25)
	within("torus worst", res.TorusWorstRTT, 7000*sim.Nanosecond, 0.15)
	if res.TorusNodes != 48 {
		t.Errorf("torus nodes = %d", res.TorusNodes)
	}

	// The headline comparison: LTL L0 latency is comparable to torus
	// nearest-neighbor (same order), while reaching 5000x more nodes at
	// L2 for ~3x the torus worst case.
	if l0.Avg > 3*res.Torus1HopRTT {
		t.Errorf("L0 (%v) not comparable to torus 1-hop (%v)", l0.Avg, res.Torus1HopRTT)
	}
	if l2.Reachable/res.TorusNodes < 5000 {
		t.Errorf("scale advantage only %dx", l2.Reachable/res.TorusNodes)
	}

	// Rendering.
	tab := res.Table().String()
	for _, want := range []string{"LTL L0", "torus", "250560"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}

func TestFig10TierOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 run is heavy")
	}
	res := fig10Quick()
	if !(res.Tiers[0].Avg < res.Tiers[1].Avg && res.Tiers[1].Avg < res.Tiers[2].Avg) {
		t.Fatalf("tier latency ordering violated: %v %v %v",
			res.Tiers[0].Avg, res.Tiers[1].Avg, res.Tiers[2].Avg)
	}
	for _, tr := range res.Tiers {
		if tr.Count == 0 {
			t.Fatalf("tier %d has no samples", tr.Tier)
		}
		if tr.P999 < tr.Avg {
			t.Fatalf("tier %d: p99.9 < avg", tr.Tier)
		}
	}
}

func TestCloudBasics(t *testing.T) {
	cloud := New(Options{Seed: 1})
	n0, n1 := cloud.Node(0), cloud.Node(1)
	if n0.Shell == nil || n1.Shell == nil {
		t.Fatal("shells not attached")
	}
	var got []byte
	var doneAt Time
	if err := n1.Shell.OpenRemoteRecv(3, 0, func(p []byte) { got = append([]byte(nil), p...) }); err != nil {
		t.Fatal(err)
	}
	if err := n0.Shell.OpenRemoteSend(3, 1, 3, nil); err != nil {
		t.Fatal(err)
	}
	n0.Shell.SendRemote(3, []byte("via facade"), func() { doneAt = cloud.Sim.Now() })
	cloud.Run(Millisecond)
	if string(got) != "via facade" {
		t.Fatalf("payload %q", got)
	}
	if doneAt <= 0 {
		t.Fatal("completion never fired")
	}
	if cloud.Tier(0, 1) != 0 || cloud.Tier(0, 25) != 1 {
		t.Error("tier classification broken")
	}
}

func TestCloudNoFPGAs(t *testing.T) {
	cloud := New(Options{Seed: 1, NoFPGAs: true})
	n := cloud.Node(0)
	if n.Shell != nil {
		t.Fatal("NoFPGAs cloud has a shell")
	}
	if n.Host == nil {
		t.Fatal("host missing")
	}
}

func TestCloudDeterminism(t *testing.T) {
	run := func() Time {
		cloud := New(Options{Seed: 42})
		a, b := cloud.Node(0), cloud.Node(30)
		var doneAt Time
		sim.Must(b.Shell.OpenRemoteRecv(1, 0, nil))
		sim.Must(a.Shell.OpenRemoteSend(1, 30, 1, nil))
		a.Shell.SendRemote(1, make([]byte, 2000), func() { doneAt = cloud.Sim.Now() })
		cloud.Run(Millisecond)
		return doneAt
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
