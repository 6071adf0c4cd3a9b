package haas_test

import (
	"testing"

	"repro/internal/faultinject"
	"repro/internal/haas"
	"repro/internal/netsim"
	"repro/internal/shell"
	"repro/internal/sim"
)

// faultbed builds a small datacenter whose hosts carry real shells, all
// registered with a fault injector, plus an RM polling injector-backed
// health (liveness and TOR-link connectivity).
func faultbed(t *testing.T, seed int64, n int, poll sim.Time) (*sim.Simulation, *faultinject.Injector, *haas.ResourceManager) {
	t.Helper()
	s := sim.New(seed)
	cfg := netsim.DefaultConfig()
	cfg.HostsPerTOR = n
	cfg.TORsPerPod = 1
	cfg.Pods = 1
	shells := map[int]*shell.Shell{}
	cfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		shCfg := shell.DefaultConfig()
		shCfg.FullReconfigTime = sim.Millisecond
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shCfg)
		shells[hostID] = sh
		return sh
	}
	dc := netsim.NewDatacenter(s, cfg)
	in := faultinject.New(s)
	rm := haas.NewResourceManager(s, haas.RMConfig{HealthPollInterval: poll})
	for i := 0; i < n; i++ {
		dc.Host(i) // instantiate so the shell is wired NIC<->TOR
		id := i
		in.AddNode(id, shells[id])
		rm.Register(&haas.FPGAManager{
			Node:      haas.NodeID(id),
			Configure: func(string) {},
			Healthy: func() bool {
				return in.NodeAlive(id) && in.Node(id).NetPort().Peer() != nil
			},
		})
	}
	return s, in, rm
}

// repairPool returns an n-member pool on rm and a count of its
// members replaced after a board death.
func repairPool(t *testing.T, rm *haas.ResourceManager, n int) (*haas.Pool, *int) {
	t.Helper()
	repaired := new(int)
	p := haas.NewPool(rm, haas.PoolSpec{
		Tenant: "svc", Image: "img-v1",
		OnLost: func(m *haas.Member, dead haas.NodeID) {
			if m.Node != dead {
				*repaired++
			}
		},
	})
	for range n {
		if _, err := p.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	return p, repaired
}

// nodes lists p's boards in grant order.
func nodes(p *haas.Pool) []haas.NodeID {
	var ids []haas.NodeID
	for _, m := range p.Members() {
		ids = append(ids, m.Node)
	}
	return ids
}

// An injector hard-kill propagates through the RM health poll to a lease
// replacement, and the dead board stays decommissioned even after a
// reboot brings its bridge back.
func TestInjectorKillCascadesToReplacement(t *testing.T) {
	s, in, rm := faultbed(t, 5, 4, 500*sim.Microsecond)
	defer rm.Stop()
	p, repaired := repairPool(t, rm, 2)
	victim := nodes(p)[0]
	survivor := nodes(p)[1]

	s.Schedule(sim.Millisecond, func() { in.KillNode(int(victim)) })
	s.RunFor(10 * sim.Millisecond)

	if rm.NodeStateOf(victim) != haas.NodeDead {
		t.Fatalf("victim state %v, want dead", rm.NodeStateOf(victim))
	}
	if rm.Replaced.Value() != 1 || *repaired != 1 {
		t.Fatalf("replaced=%d repaired=%d, want 1/1", rm.Replaced.Value(), *repaired)
	}
	members := nodes(p)
	if len(members) != 2 {
		t.Fatalf("service has %d members, want 2", len(members))
	}
	for _, m := range members {
		if m == victim {
			t.Fatal("dead victim still holds a lease")
		}
		if !in.NodeAlive(int(m)) {
			t.Fatalf("member %d is not alive", m)
		}
	}
	if members[0] != survivor && members[1] != survivor {
		t.Fatal("healthy member was churned by the failover")
	}

	// Reboot the board: the bridge comes back, but the RM keeps the node
	// decommissioned — re-admission is a management decision, not a poll.
	in.RebootNode(int(victim))
	s.RunFor(10 * sim.Millisecond)
	if !in.NodeAlive(int(victim)) {
		t.Fatal("reboot did not revive the board")
	}
	if rm.NodeStateOf(victim) != haas.NodeDead {
		t.Fatal("dead node silently rejoined the pool")
	}
	if rm.Replaced.Value() != 1 {
		t.Fatal("reboot caused a spurious replacement")
	}
}

// A link flap shorter than the health-poll period passes unnoticed (the
// lease survives), while one spanning several polls triggers replacement
// — the §II-B distinction between a transient and a bad cable.
func TestLinkFlapShortVsLong(t *testing.T) {
	s, in, rm := faultbed(t, 6, 4, sim.Millisecond)
	defer rm.Stop()
	p, _ := repairPool(t, rm, 1)
	member := nodes(p)[0]

	// Short flap: down 300 us starting just after a poll; healed before
	// the next poll looks.
	s.Schedule(1*sim.Millisecond+100*sim.Microsecond, func() {
		in.FlapLink(int(member), 300*sim.Microsecond)
	})
	s.RunFor(5 * sim.Millisecond)
	if rm.Failures.Value() != 0 {
		t.Fatalf("transient flap was flagged as a failure (%d)", rm.Failures.Value())
	}
	if nodes(p)[0] != member {
		t.Fatal("transient flap churned the lease")
	}
	if in.Stats.Recovery[faultinject.LinkFlap].Count() != 1 {
		t.Fatal("flap recovery not recorded")
	}

	// Long flap: down for three poll periods; the cable is declared bad
	// and the member replaced.
	in.FlapLink(int(member), 3*sim.Millisecond)
	s.RunFor(10 * sim.Millisecond)
	if rm.Failures.Value() != 1 {
		t.Fatalf("sustained flap not detected (failures=%d)", rm.Failures.Value())
	}
	if got := nodes(p)[0]; got == member {
		t.Fatal("sustained flap did not trigger replacement")
	}
	if rm.NodeStateOf(member) != haas.NodeDead {
		t.Fatalf("flapped-out node state %v, want dead", rm.NodeStateOf(member))
	}
}
