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

func (l *poolLog) spec(tenant string) PoolSpec {
	return PoolSpec{
		Tenant: tenant, Image: tenant + "-v1",
		OnReady: func(m *Member) { *l = append(*l, fmt.Sprintf("ready %d@%d", m.Index, m.Node)) },
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
	p := NewPool(rm, log.spec("svc"))
	for i := 0; i < 3; i++ {
		mustGrow(t, p)
	}
	// A board serves at grant.
	log.expect(t, "ready 0@0", "ready 1@1", "ready 2@2")
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

func TestPoolBoardFailover(t *testing.T) {
	s := sim.New(1)
	rm, healthy := boardBed(s, 3)
	var log poolLog
	p := NewPool(rm, log.spec("svc"))
	mustGrow(t, p)
	mustGrow(t, p)
	log.expect(t, "ready 0@0", "ready 1@1")

	*healthy[0] = false
	s.RunFor(15 * sim.Millisecond)
	// The spare takes the lost member's place: same index, same lease.
	log.expect(t, "lost 0 0->2", "ready 0@2")
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

// FuzzPoolLedger drives a pool through random Grow, Shrink, board-kill
// and health-poll steps on a board bed and checks the lease ledger after
// each: every member holds a live lease on its own node, no two members
// share a node, the RM's grants net of releases equal the member count,
// Grow fails only when no board is free, and after a poll no member
// sits on a node the RM marks dead.
func FuzzPoolLedger(f *testing.F) {
	// Each op byte: low two bits pick Grow, Shrink, kill or poll; a kill
	// takes board (op>>2) mod the bed size.
	f.Add(uint8(3), []byte{0, 0, 2, 3, 0, 3})
	f.Add(uint8(4), []byte{0, 0, 0, 6, 3, 1, 0, 10, 14, 3, 3})
	f.Add(uint8(6), []byte{0, 0, 0, 0, 2, 6, 10, 3, 1, 0, 0, 14, 18, 22, 3, 1, 1})
	f.Fuzz(func(t *testing.T, boards uint8, ops []byte) {
		const poll = 10 * sim.Millisecond
		n := 1 + int(boards)%8
		s := sim.New(1)
		rm, healthy := boardBed(s, n)
		p := NewPool(rm, PoolSpec{Tenant: "svc", Image: "svc-v1"})
		for i, op := range ops {
			polled := false
			switch op % 4 {
			case 0:
				free := rm.FreeCount()
				if _, err := p.Grow(); (err != nil) != (free == 0) {
					t.Fatalf("step %d: grow with %d free boards returned %v", i, free, err)
				}
			case 1:
				p.Shrink()
			case 2:
				*healthy[NodeID(int(op>>2)%n)] = false
			case 3:
				s.RunFor(poll)
				polled = true
			}
			members := p.Members()
			nodes := map[NodeID]int{}
			for _, m := range members {
				c := rm.leases[m.lease]
				if c == nil || c.Node != m.Node || rm.nodes[m.Node].lease != c {
					t.Fatalf("step %d: member %d's lease %d is not live on node %d", i, m.Index, m.lease, m.Node)
				}
				if o, dup := nodes[m.Node]; dup {
					t.Fatalf("step %d: members %d and %d share node %d", i, o, m.Index, m.Node)
				}
				nodes[m.Node] = m.Index
				if polled && rm.NodeStateOf(m.Node) == NodeDead {
					t.Fatalf("step %d: member %d sits on dead node %d after a poll", i, m.Index, m.Node)
				}
			}
			if held := rm.Granted.Value() - rm.Released.Value(); held != uint64(len(members)) {
				t.Fatalf("step %d: granted-released = %d, members = %d", i, held, len(members))
			}
		}
	})
}
