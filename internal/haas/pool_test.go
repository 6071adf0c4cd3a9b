package haas

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// boardBed registers n whole-board nodes whose health is switchable.
func boardBed(s *sim.Simulation, n int) (*ResourceManager, map[NodeID]*bool) {
	healthy := map[NodeID]*bool{}
	rm := NewResourceManager(s, RMConfig{HealthPollInterval: 10 * sim.Millisecond})
	for i := 0; i < n; i++ {
		id := NodeID(i)
		ok := true
		healthy[id] = &ok
		rm.Register(&FPGAManager{Node: id, Healthy: func() bool { return *healthy[id] }})
	}
	return rm, healthy
}

// poolLog records a pool's callbacks as readable lines.
type poolLog []string

func (l *poolLog) spec(tenant string, alms int) PoolSpec {
	return PoolSpec{
		Tenant: tenant, Image: tenant + "-v1", ALMs: alms,
		OnReady: func(m *Member) { *l = append(*l, fmt.Sprintf("ready %d@%d/%d", m.Index, m.Node, m.Slot)) },
		OnMove: func(m *Member, from NodeID) {
			*l = append(*l, fmt.Sprintf("move %d %d->%d", m.Index, from, m.Node))
		},
		OnLost: func(m *Member, dead NodeID) {
			*l = append(*l, fmt.Sprintf("lost %d %d->%d", m.Index, dead, m.Node))
		},
	}
}

func (l *poolLog) expect(t *testing.T, want ...string) {
	t.Helper()
	if !reflect.DeepEqual([]string(*l), want) {
		t.Fatalf("callbacks\n got %q\nwant %q", *l, want)
	}
	*l = nil
}

// placement lists (index, node) of the members in pool order.
func placement(p *Pool) [][2]int {
	var out [][2]int
	for _, m := range p.Members() {
		out = append(out, [2]int{m.Index, int(m.Node)})
	}
	return out
}

func mustGrow(t *testing.T, p *Pool) *Member {
	t.Helper()
	m, err := p.Grow()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPoolBoardGrowShrinkOrder(t *testing.T) {
	s := sim.New(1)
	rm, _ := boardBed(s, 4)
	var log poolLog
	p := NewPool(rm, log.spec("svc", 0))
	for i := 0; i < 3; i++ {
		mustGrow(t, p)
	}
	// A whole board serves at grant.
	log.expect(t, "ready 0@0/-1", "ready 1@1/-1", "ready 2@2/-1")
	if m := p.Shrink(); m == nil || m.Index != 2 || m.Node != 2 {
		t.Fatalf("shrink released %+v, want the newest member (2 on node 2)", m)
	}
	if got := rm.FreeCount(); got != 2 {
		t.Fatalf("free boards after shrink = %d, want 2", got)
	}
	if m := mustGrow(t, p); m.Index != 3 || m.Node != 2 {
		t.Fatalf("regrow = %+v, want index 3 on the freed node 2", m)
	}
	if got := placement(p); !reflect.DeepEqual(got, [][2]int{{0, 0}, {1, 1}, {3, 2}}) {
		t.Fatalf("placement %v", got)
	}
	for p.Shrink() != nil {
	}
	if rm.FreeCount() != 4 || rm.Released.Value() != 4 {
		t.Fatalf("free=%d released=%d after draining, want 4 and 4", rm.FreeCount(), rm.Released.Value())
	}
}

func TestPoolSlotGrowShrinkOrder(t *testing.T) {
	s := sim.New(1)
	rm, _, tenants := slotBed(s, 3, []int{30000, 30000}, sim.Millisecond)
	var log poolLog
	p := NewPool(rm, log.spec("svc", 20000))
	a, b := mustGrow(t, p), mustGrow(t, p)
	// Each grant avoids the boards members already use, although board 0
	// still has a free slot.
	if a.Node != 0 || b.Node != 1 || a.Slot != 0 || b.Slot != 0 {
		t.Fatalf("slot grants at %d/%d and %d/%d, want 0/0 and 1/0", a.Node, a.Slot, b.Node, b.Slot)
	}
	// A claim serves only once its slot has reconfigured.
	log.expect(t)
	s.RunFor(2 * sim.Millisecond)
	log.expect(t, "ready 0@0/0", "ready 1@1/0")
	if m := p.Shrink(); m != b {
		t.Fatalf("shrink released index %d, want the newest (1)", m.Index)
	}
	if used, _, _, _ := rm.SlotPoolStats(); used != 1 || tenants[1][0] != "" {
		t.Fatalf("after shrink: %d slots used, board 1 slot 0 holds %q", used, tenants[1][0])
	}
	if m := mustGrow(t, p); m.Index != 2 || m.Node != 1 {
		t.Fatalf("regrow = index %d on node %d, want index 2 on node 1", m.Index, m.Node)
	}
}

func TestPoolBoardFailover(t *testing.T) {
	s := sim.New(1)
	rm, healthy := boardBed(s, 3)
	var log poolLog
	p := NewPool(rm, log.spec("svc", 0))
	mustGrow(t, p)
	mustGrow(t, p)
	log.expect(t, "ready 0@0/-1", "ready 1@1/-1")

	*healthy[0] = false
	s.RunFor(15 * sim.Millisecond)
	// The spare takes the lost member's place: same index, same lease.
	log.expect(t, "lost 0 0->2", "ready 0@2/-1")
	if got := placement(p); !reflect.DeepEqual(got, [][2]int{{0, 2}, {1, 1}}) {
		t.Fatalf("placement %v", got)
	}
	if rm.Granted.Value() != 2 || rm.Replaced.Value() != 1 {
		t.Fatalf("granted=%d replaced=%d, want 2 and 1", rm.Granted.Value(), rm.Replaced.Value())
	}
	// The replacement keeps its place in grant order.
	if m := p.Shrink(); m.Index != 1 {
		t.Fatalf("shrink released index %d, want 1", m.Index)
	}

	// No spare left: the member is dropped and its dead lease returned.
	*healthy[1], *healthy[2] = false, false
	s.RunFor(10 * sim.Millisecond)
	log.expect(t, "lost 0 2->2")
	if len(p.Members()) != 0 || rm.Released.Value() != 2 {
		t.Fatalf("members=%v released=%d, want none and 2", placement(p), rm.Released.Value())
	}
}

func TestPoolSlotFailover(t *testing.T) {
	s := sim.New(1)
	rm, healthy, _ := slotBed(s, 4, []int{30000, 30000}, sim.Millisecond)
	var log poolLog
	p := NewPool(rm, log.spec("svc", 20000))
	mustGrow(t, p)
	mustGrow(t, p)
	s.RunFor(2 * sim.Millisecond)
	log.expect(t, "ready 0@0/0", "ready 1@1/0")

	// Board 1 has a free slot, but the re-lease avoids every live
	// member's board as well as the dead one.
	*healthy[0] = false
	s.RunFor(10 * sim.Millisecond)
	log.expect(t, "lost 0 0->2", "ready 0@2/0")
	if got := placement(p); !reflect.DeepEqual(got, [][2]int{{0, 2}, {1, 1}}) {
		t.Fatalf("placement %v", got)
	}
	if c := p.Members()[0].Claim(); c == nil || !c.Ready || c.Node != 2 {
		t.Fatalf("replacement claim %+v, want ready on node 2", c)
	}

	// Board 3 is the last one no member uses; losing board 1 takes it.
	// Losing board 3 then finds nothing that avoids board 2.
	*healthy[1] = false
	s.RunFor(10 * sim.Millisecond)
	log.expect(t, "lost 1 1->3", "ready 1@3/0")
	*healthy[3] = false
	s.RunFor(10 * sim.Millisecond)
	log.expect(t, "lost 1 3->3")
	if got := placement(p); !reflect.DeepEqual(got, [][2]int{{0, 2}}) {
		t.Fatalf("placement %v", got)
	}
}

func TestPoolDefragmentMovesMember(t *testing.T) {
	s := sim.New(1)
	rm, _, tenants := slotBed(s, 3, []int{30000, 30000}, sim.Millisecond)
	var log poolLog
	p := NewPool(rm, log.spec("svc", 20000))
	m := mustGrow(t, p)
	if _, err := rm.LeaseSlots(SlotRequest{Tenant: "other", ALMs: 25000, Count: 1, Avoid: []NodeID{m.Node}}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Millisecond)
	log.expect(t, "ready 0@0/0")

	// Board 1 is fuller, so defrag drains board 0 onto its free slot.
	if moves := rm.Defragment(); moves != 1 {
		t.Fatalf("defrag moves = %d, want 1", moves)
	}
	s.RunFor(2 * sim.Millisecond)
	log.expect(t, "move 0 0->1", "ready 0@1/1")
	if m.Node != 1 || m.Slot != 1 || tenants[0][0] != "" || tenants[1][1] != "svc" {
		t.Fatalf("member at %d/%d, boards %v", m.Node, m.Slot, tenants)
	}
}
