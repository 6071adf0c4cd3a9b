package haas

import (
	"testing"

	"repro/internal/sim"
)

// testbed registers n nodes whose health and configured image are
// tracked in the returned maps.
func testbed(s *sim.Simulation, n int) (*ResourceManager, map[NodeID]*bool, map[NodeID]string) {
	healthy := map[NodeID]*bool{}
	images := map[NodeID]string{}
	rm := NewResourceManager(s, RMConfig{HealthPollInterval: 10 * sim.Millisecond})
	for i := 0; i < n; i++ {
		id := NodeID(i)
		ok := true
		healthy[id] = &ok
		rm.Register(&FPGAManager{
			Node:      id,
			Configure: func(img string) { images[id] = img },
			Healthy:   func() bool { return *healthy[id] },
		})
	}
	return rm, healthy, images
}

func TestLeaseAndRelease(t *testing.T) {
	s := sim.New(1)
	rm, _, images := testbed(s, 8)
	var comps []*Component
	for i := 0; i < 3; i++ {
		comp, err := rm.Lease("svcA", "dnn-v1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Node != NodeID(i) {
			t.Fatalf("lease %d got node %d, want the lowest free id %d", i, comp.Node, i)
		}
		comps = append(comps, comp)
	}
	if rm.FreeCount() != 5 {
		t.Fatalf("free = %d, want 5", rm.FreeCount())
	}
	for _, comp := range comps {
		if images[comp.Node] != "dnn-v1" {
			t.Errorf("node %d not configured", comp.Node)
		}
		if rm.NodeStateOf(comp.Node) != NodeLeased {
			t.Errorf("node %d state %v", comp.Node, rm.NodeStateOf(comp.Node))
		}
	}
	for _, comp := range comps {
		rm.Release(comp.LeaseID)
	}
	if rm.FreeCount() != 8 {
		t.Fatalf("free after release = %d", rm.FreeCount())
	}
	rm.Stop()
}

func TestLeaseInsufficientResources(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := testbed(s, 1)
	if _, err := rm.Lease("a", "x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rm.Lease("b", "x", nil); err == nil {
		t.Fatal("lease granted from an empty pool")
	}
	if rm.Rejected.Value() != 1 {
		t.Error("rejection not counted")
	}
	rm.Stop()
}

func TestTwoServicesShareThePool(t *testing.T) {
	// Fig. 13: "Two HaaS-enabled hardware accelerators are shown running
	// under HaaS. FPGAs are allocated to each service from the Resource
	// Manager's resource pool."
	s := sim.New(1)
	rm, _, images := testbed(s, 12)
	a := NewPool(rm, PoolSpec{Tenant: "svcA", Image: "rank-v2"})
	b := NewPool(rm, PoolSpec{Tenant: "svcB", Image: "dnn-v1"})
	for i := 0; i < 4; i++ {
		mustGrow(t, a)
		mustGrow(t, b)
	}
	seen := map[NodeID]bool{}
	for _, m := range a.Members() {
		seen[m.Node] = true
		if images[m.Node] != "rank-v2" {
			t.Errorf("service A's node %d runs %q", m.Node, images[m.Node])
		}
	}
	for _, m := range b.Members() {
		if seen[m.Node] {
			t.Fatalf("node %d double-leased", m.Node)
		}
		if images[m.Node] != "dnn-v1" {
			t.Errorf("service B's node %d runs %q", m.Node, images[m.Node])
		}
	}
	if rm.FreeCount() != 4 {
		t.Errorf("unallocated pool = %d, want 4", rm.FreeCount())
	}
	rm.Stop()
}

func TestFailureDetectionAndNotification(t *testing.T) {
	s := sim.New(1)
	rm, healthy, _ := testbed(s, 6)
	var failed []NodeID
	var comps []*Component
	for i := 0; i < 3; i++ {
		comp, err := rm.Lease("svc", "x", func(id NodeID) { failed = append(failed, id) })
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, comp)
	}
	victim := comps[1].Node
	*healthy[victim] = false
	s.RunFor(50 * sim.Millisecond)
	if len(failed) != 1 || failed[0] != victim {
		t.Fatalf("failure notification: %v", failed)
	}
	if rm.NodeStateOf(victim) != NodeDead {
		t.Error("victim not marked dead")
	}
	if rm.Failures.Value() != 1 {
		t.Error("failure not counted")
	}
	rm.Stop()
}

func TestReplaceNode(t *testing.T) {
	s := sim.New(1)
	rm, _, images := testbed(s, 6)
	comp, err := rm.Lease("svc", "img", nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := comp.Node
	repl, err := rm.ReplaceNode(comp.LeaseID, "img")
	if err != nil {
		t.Fatal(err)
	}
	if repl == dead {
		t.Fatal("replacement is the dead node")
	}
	if images[repl] != "img" {
		t.Error("replacement not configured")
	}
	if comp.Node != repl {
		t.Errorf("component holds node %d, want the replacement %d", comp.Node, repl)
	}
	if _, err := rm.ReplaceNode(99, "img"); err == nil {
		t.Error("replaced a board of an unknown lease")
	}
	rm.Stop()
}

// A pool is its service's Service Manager: it grows, swaps a spare in
// for a dead member, and shrinks back to nothing.
func TestServiceManagerLifecycle(t *testing.T) {
	s := sim.New(1)
	rm, healthy, images := testbed(s, 8)
	repaired := 0
	p := NewPool(rm, PoolSpec{
		Tenant: "ranker", Image: "rank-v1",
		OnLost: func(m *Member, dead NodeID) {
			if m.Node != dead {
				repaired++
			}
		},
	})
	for i := 0; i < 4; i++ {
		mustGrow(t, p)
	}
	if len(p.Members()) != 4 {
		t.Fatalf("members = %d", len(p.Members()))
	}

	// Kill a member: the pool must self-heal via replacement.
	victim := p.Members()[0].Node
	*healthy[victim] = false
	s.RunFor(100 * sim.Millisecond)
	if repaired != 1 {
		t.Fatal("pool did not repair the failed member")
	}
	for _, m := range p.Members() {
		if m.Node == victim {
			t.Fatal("dead member still serving")
		}
		if images[m.Node] != "rank-v1" {
			t.Errorf("member %d on node %d runs %q", m.Index, m.Node, images[m.Node])
		}
	}
	// Grow then shrink ("a global manager grows or shrinks the pools").
	for i := 0; i < 2; i++ {
		mustGrow(t, p)
	}
	if len(p.Members()) != 6 {
		t.Fatal("grow failed")
	}
	for p.Shrink() != nil {
	}
	if len(p.Members()) != 0 {
		t.Fatalf("%d members left after shrinking to empty", len(p.Members()))
	}
	if rm.FreeCount() != 7 { // 8 minus the dead one
		t.Fatalf("free after release = %d, want 7", rm.FreeCount())
	}
	rm.Stop()
}
