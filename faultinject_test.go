package configcloud

import (
	"encoding/binary"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/haas"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestKillFPGAMidRunHaaSReleasesAndLTLExactlyOnce is the headline fault
// scenario: a client streams sequenced LTL messages to a HaaS-leased
// FPGA, the injector hard-kills that FPGA mid-stream, the RM health poll
// detects it, the service's pool swaps in a replacement, and the client
// fails over — after which every message (including those in flight
// across the kill) completes exactly once, in order, with the
// kill→first-recovered-send latency recorded in the injector's recovery
// histogram.
func TestKillFPGAMidRunHaaSReleasesAndLTLExactlyOnce(t *testing.T) {
	shCfg := DefaultShellConfig()
	cloud := New(Options{Seed: 7, Shell: shCfg})

	// Client is node 0; the HaaS pool holds nodes 1..4 (same TOR).
	client := cloud.Node(0)
	pool := []int{1, 2, 3, 4}
	for _, id := range pool {
		cloud.Node(id)
	}

	rm := haas.NewResourceManager(cloud.Sim, haas.RMConfig{HealthPollInterval: 500 * Microsecond})
	for _, id := range pool {
		id := id
		rm.Register(&haas.FPGAManager{
			Node:      haas.NodeID(id),
			Configure: func(string) {},
			Healthy:   func() bool { return cloud.Faults.NodeAlive(id) },
		})
	}
	repaired := 0
	sm := haas.NewPool(rm, haas.PoolSpec{
		Tenant: "echo", Image: "echo-v1",
		OnLost: func(m *haas.Member, dead haas.NodeID) {
			if m.Node != dead {
				repaired++
			}
		},
	})
	m, err := sm.Grow()
	if err != nil {
		t.Fatalf("initial lease: %v", err)
	}
	victim := int(m.Node)

	const total = 100
	const gap = 30 * Microsecond

	// delivery log: (member, seq) in arrival order at whichever FPGA
	// currently holds the lease.
	type arrival struct {
		member int
		seq    uint64
	}
	var deliveries []arrival
	openRecvOn := func(member int, conn uint16) {
		n := cloud.Node(member)
		err := n.Shell.Engine.OpenRecv(conn, netsim.HostIP(client.ID), func(p []byte) {
			deliveries = append(deliveries, arrival{member, binary.BigEndian.Uint64(p)})
		})
		if err != nil {
			t.Fatalf("OpenRecv on %d: %v", member, err)
		}
	}

	activeMember := victim
	activeConn := uint16(20)
	openRecvOn(victim, activeConn)
	if err := client.Shell.Engine.OpenSend(activeConn, netsim.HostIP(victim),
		netsim.HostMAC(victim), activeConn, 0, nil); err != nil {
		t.Fatalf("OpenSend: %v", err)
	}

	completed := 0 // done callbacks fire in order per connection
	nextSeq := 0
	var killAt sim.Time
	recoveryRecorded := false
	var trySend func()
	trySend = func() {
		if nextSeq >= total {
			return
		}
		seq := uint64(nextSeq)
		payload := make([]byte, 64)
		binary.BigEndian.PutUint64(payload, seq)
		err := client.Shell.Engine.SendMessage(activeConn, payload, func() {
			completed++
			if killAt > 0 && !recoveryRecorded && cloud.Sim.Now() > killAt {
				cloud.Faults.RecordRecovery(faultinject.NodeKill, cloud.Sim.Now()-killAt)
				recoveryRecorded = true
			}
		})
		if err == nil {
			nextSeq++
		} // else: connection failed, failover not detected yet; retry next tick
		cloud.Sim.Schedule(gap, trySend)
	}
	cloud.Sim.Schedule(0, trySend)

	// Kill the leased FPGA mid-stream, between send slots so completed
	// messages are fully ACKed (same-TOR RTT ~3 µs << the 30 µs gap).
	cloud.Sim.Schedule(1*Millisecond+15*Microsecond, func() {
		killAt = cloud.Sim.Now()
		cloud.Faults.KillNode(victim)
	})

	// Failover watcher: when the SM swaps the dead member, rewire the
	// stream to the replacement and resend the uncompleted tail.
	var watch func()
	watch = func() {
		members := sm.Members()
		if len(members) == 1 && int(members[0].Node) != activeMember {
			activeMember = int(members[0].Node)
			activeConn++
			openRecvOn(activeMember, activeConn)
			if err := client.Shell.Engine.OpenSend(activeConn, netsim.HostIP(activeMember),
				netsim.HostMAC(activeMember), activeConn, 0, nil); err != nil {
				t.Fatalf("failover OpenSend: %v", err)
			}
			nextSeq = completed // resend everything not yet ACKed
		}
		if completed < total {
			cloud.Sim.Schedule(100*Microsecond, watch)
		}
	}
	cloud.Sim.Schedule(100*Microsecond, watch)

	cloud.Run(100 * Millisecond)

	// Every message completed, exactly once, in order.
	if completed != total {
		t.Fatalf("completed %d/%d messages", completed, total)
	}
	if len(deliveries) != total {
		t.Fatalf("delivered %d frames, want exactly %d (no dup, no loss)", len(deliveries), total)
	}
	for i, d := range deliveries {
		if d.seq != uint64(i) {
			t.Fatalf("delivery %d has seq %d: out of order or duplicated", i, d.seq)
		}
	}

	// The stream failed over exactly once: a prefix on the victim, the
	// rest on the replacement.
	switched := 0
	for i := 1; i < len(deliveries); i++ {
		if deliveries[i].member != deliveries[i-1].member {
			switched++
		}
	}
	if switched != 1 {
		t.Fatalf("stream switched members %d times, want 1", switched)
	}
	if deliveries[0].member != victim {
		t.Fatalf("stream started on member %d, want victim %d", deliveries[0].member, victim)
	}
	last := deliveries[len(deliveries)-1].member
	if last == victim {
		t.Fatalf("stream never left the killed member %d", victim)
	}

	// HaaS re-leased: the victim is dead, a replacement holds the lease.
	if got := rm.Replaced.Value(); got != 1 {
		t.Fatalf("RM replacements = %d, want 1", got)
	}
	if repaired != 1 {
		t.Fatalf("SM repairs = %d, want 1", repaired)
	}
	if st := rm.NodeStateOf(haas.NodeID(victim)); st != haas.NodeDead {
		t.Fatalf("victim state = %v, want dead", st)
	}
	if int(m.Node) != last {
		t.Fatalf("lease member %d does not match delivery tail %d", m.Node, last)
	}

	// Recovery latency landed in the injector's histogram.
	h := cloud.Faults.Stats.Recovery[faultinject.NodeKill]
	if h.Count() != 1 {
		t.Fatalf("NodeKill recovery histogram has %d samples, want 1", h.Count())
	}
	if h.Min() <= 0 {
		t.Fatalf("recovery latency %dns not positive", h.Min())
	}
	if got := cloud.Faults.Stats.Injected[faultinject.NodeKill].Value(); got != 1 {
		t.Fatalf("injected node-kills = %d, want 1", got)
	}
	rm.Stop()
}

// TestLossyProfileDeliversEverythingViaRetransmit runs a stream under the
// "lossy" profile and asserts the NACK fast-retransmit and timeout
// go-back-N paths both fired while every message still completed.
func TestLossyProfileDeliversEverythingViaRetransmit(t *testing.T) {
	cloud := New(Options{Seed: 11, FaultProfile: "lossy"})
	a, b := cloud.Node(0), cloud.Node(1)
	if err := b.Shell.Engine.OpenRecv(5, netsim.HostIP(0), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Shell.Engine.OpenSend(5, netsim.HostIP(1), netsim.HostMAC(1), 5, 0, nil); err != nil {
		t.Fatal(err)
	}
	const total = 400
	completed := 0
	payload := make([]byte, 512)
	var send func(i int)
	send = func(i int) {
		if i >= total {
			return
		}
		if err := a.Shell.Engine.SendMessage(5, payload, func() { completed++ }); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		cloud.Sim.Schedule(20*Microsecond, func() { send(i + 1) })
	}
	cloud.Sim.Schedule(0, func() { send(0) })
	cloud.Run(50 * Millisecond)

	if completed != total {
		t.Fatalf("completed %d/%d under lossy profile", completed, total)
	}
	st := &cloud.Faults.Stats
	if st.Injected[faultinject.FrameDrop].Value() == 0 {
		t.Fatal("lossy profile injected no drops")
	}
	eng := a.Shell.Engine
	if eng.Stats.Retransmits.Value() == 0 {
		t.Fatal("no retransmissions despite injected loss")
	}
	if eng.Stats.Timeouts.Value() == 0 && eng.Stats.NacksRecv.Value() == 0 {
		t.Fatal("neither timeout nor NACK recovery path fired")
	}
}

// TestFaultsExperimentRuns smoke-tests the ccexperiment-facing entry
// point: two tables (workload + fault tally) per named profile.
func TestFaultsExperimentRuns(t *testing.T) {
	tabs, err := RunExperiment("faults", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(FaultProfileNames()); len(tabs) != want {
		t.Fatalf("faults experiment returned %d tables, want %d", len(tabs), want)
	}
	for _, tab := range tabs {
		if len(tab.Rows) == 0 {
			t.Fatalf("table %q is empty", tab.Title)
		}
	}
}
