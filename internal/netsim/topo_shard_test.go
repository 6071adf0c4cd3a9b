package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim/shard"
)

// runShardedFabric drives bounded cross-pod and intra-pod UDP ping-pong
// over a sharded datacenter (with background load exercising the
// per-switch noise streams) and returns every delivery event in host-id
// order. Each host's log is appended only by its own shard, so the
// harness itself is race-free.
func runShardedFabric() ([]string, *Datacenter) {
	cfg := smallConfig()
	g := shard.NewGroup(77, cfg.Pods+1)
	dc := NewShardedDatacenter(g, cfg)
	perPod := cfg.HostsPerTOR * cfg.TORsPerPod
	n := 2 * perPod
	logs := make([][]string, n)
	for id := 0; id < n; id++ {
		id := id
		h := dc.Host(id)
		bounces := 0
		h.RegisterUDP(4000, func(f *pkt.Frame) {
			logs[id] = append(logs[id], fmt.Sprintf("h%d t=%d len=%d", id, dc.SimForHost(id).Now(), len(f.Payload)))
			bounces++
			if bounces < 6 {
				// Bounce it back to the cross-pod partner.
				h.SendUDP(HostIP((id+perPod)%n), 4000, 4000, pkt.ClassBestEffort, f.Payload)
			}
		})
	}
	dc.StartBackgroundLoad(0.02, pkt.ClassBestEffort, 700)
	for id := 0; id < n; id += 3 {
		dc.Host(id).SendUDP(HostIP((id+perPod)%n), 4000, 4000, pkt.ClassBestEffort, []byte("seed-ping"))
	}
	g.RunFor(2 * msFabric)
	dc.StopBackgroundLoad()
	var all []string
	for _, l := range logs {
		all = append(all, l...)
	}
	return all, dc
}

const msFabric = 1000000 // 1 ms in sim.Time ns

// A sharded fabric run is a pure function of its seed: two runs agree
// on every delivery, the event and crossing totals, and the frames each
// spine port saw.
func TestShardedFabricReplaysIdentically(t *testing.T) {
	refLog, refDC := runShardedFabric()
	if len(refLog) == 0 {
		t.Fatal("no datagrams delivered; workload is vacuous")
	}
	if refDC.Group().Crossings == 0 {
		t.Fatal("no cross-shard traffic; workload is vacuous")
	}
	gotLog, gotDC := runShardedFabric()
	if !reflect.DeepEqual(refLog, gotLog) {
		t.Fatalf("delivery log diverged (%d vs %d entries)", len(gotLog), len(refLog))
	}
	if a, b := refDC.Group().Fired(), gotDC.Group().Fired(); a != b {
		t.Fatalf("fired %d events, first run %d", b, a)
	}
	if a, b := refDC.Group().Crossings, gotDC.Group().Crossings; a != b {
		t.Fatalf("%d crossings, first run %d", b, a)
	}
	for pod := 0; pod < refDC.Config().Pods; pod++ {
		a := refDC.L2().Port(pod).Stats.RxFrames.Value()
		b := gotDC.L2().Port(pod).Stats.RxFrames.Value()
		if a != b {
			t.Fatalf("L2 port %d saw %d frames, first run %d", pod, b, a)
		}
	}
}

func TestShardedDatacenterShape(t *testing.T) {
	cfg := smallConfig()
	g := shard.NewGroup(1, cfg.Pods+1)
	dc := NewShardedDatacenter(g, cfg)
	if dc.Sim != g.Sim(0) {
		t.Fatal("spine simulation is not shard 0")
	}
	perPod := cfg.HostsPerTOR * cfg.TORsPerPod
	for pod := 0; pod < cfg.Pods; pod++ {
		if dc.SimForPod(pod) != g.Sim(pod+1) {
			t.Fatalf("pod %d not on shard %d", pod, pod+1)
		}
		if dc.SimForHost(pod*perPod) != g.Sim(pod+1) || dc.SimForHost((pod+1)*perPod-1) != g.Sim(pod+1) {
			t.Fatalf("pod %d host range not on shard %d", pod, pod+1)
		}
	}
	if g.Lookahead() != cfg.L1Uplink.Prop {
		t.Fatalf("lookahead = %d, want L1 uplink prop %d", g.Lookahead(), cfg.L1Uplink.Prop)
	}
	// Host construction must place every device on its pod's wheel.
	h := dc.Host(perPod) // first host of pod 1
	if h.NIC().sim != g.Sim(2) {
		t.Fatal("host NIC not on its pod's shard")
	}
	if dc.TOR(1, 0).sim != g.Sim(2) || dc.L1(1).sim != g.Sim(2) {
		t.Fatal("pod 1 switches not on shard 2")
	}
	if dc.L2().sim != g.Sim(0) {
		t.Fatal("L2 spine not on shard 0")
	}
}

func TestShardedDatacenterWrongGroupSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched shard count did not panic")
		}
	}()
	NewShardedDatacenter(shard.NewGroup(1, 2), smallConfig()) // needs 3
}
