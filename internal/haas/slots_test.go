package haas

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// slotBed registers n slotted nodes with the given per-slot capacities.
// Reconfigurations take reconfig of virtual time; each node's slot
// contents are tracked in tenants[node][slot].
func slotBed(s *sim.Simulation, n int, caps []int, reconfig sim.Time) (*ResourceManager, map[NodeID]*bool, map[NodeID][]string) {
	healthy := map[NodeID]*bool{}
	tenants := map[NodeID][]string{}
	rm := NewResourceManager(s, RMConfig{HealthPollInterval: 10 * sim.Millisecond})
	for i := 0; i < n; i++ {
		id := NodeID(i)
		ok := true
		healthy[id] = &ok
		tenants[id] = make([]string, len(caps))
		rm.RegisterSlots(&SlotFM{
			FM:   &FPGAManager{Node: id, Healthy: func() bool { return *healthy[id] }},
			Caps: append([]int(nil), caps...),
			ConfigureSlot: func(slot int, tenant, image string, alms int, done func(ok bool)) (sim.Time, error) {
				alive := healthy[id]
				s.Schedule(reconfig, func() {
					if !*alive {
						done(false)
						return
					}
					tenants[id][slot] = tenant
					done(true)
				})
				return reconfig, nil
			},
			ClearSlot: func(slot int) error { tenants[id][slot] = ""; return nil },
		})
	}
	return rm, healthy, tenants
}

func TestSlotBinPacking(t *testing.T) {
	// Asymmetric boards: every node has a 60k and a 30k slot. Best-fit
	// must place small roles into small slots, keeping big slots free.
	cases := []struct {
		name     string
		requests []SlotRequest
		wantErr  []bool
		// wantAt[i] = expected (node, slot) list for request i.
		wantAt [][]slotRef
	}{
		{
			name: "small roles pack into small slots first",
			requests: []SlotRequest{
				{Tenant: "crypto", ALMs: 10000, Count: 2},
				{Tenant: "rank", ALMs: 44000, Count: 1},
			},
			wantErr: []bool{false, false},
			wantAt: [][]slotRef{
				{{0, 1}, {1, 1}}, // 30k slots, node order
				{{0, 0}},         // 60k slot still free on node 0
			},
		},
		{
			name: "distinct nodes spreads claims",
			requests: []SlotRequest{
				{Tenant: "kv", ALMs: 10000, Count: 3, DistinctNodes: true},
			},
			wantErr: []bool{false},
			wantAt:  [][]slotRef{{{0, 1}, {1, 1}, {2, 1}}},
		},
		{
			name: "no fit for an oversized role",
			requests: []SlotRequest{
				{Tenant: "huge", ALMs: 60001, Count: 1},
			},
			wantErr: []bool{true},
		},
		{
			name: "all-or-nothing on partial fit",
			requests: []SlotRequest{
				{Tenant: "rank", ALMs: 44000, Count: 4}, // only 3 60k slots exist
			},
			wantErr: []bool{true},
		},
		{
			name: "distinct-nodes fails when boards run out",
			requests: []SlotRequest{
				{Tenant: "kv", ALMs: 10000, Count: 4, DistinctNodes: true},
			},
			wantErr: []bool{true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			rm, _, _ := slotBed(s, 3, []int{60000, 30000}, sim.Millisecond)
			for i, req := range tc.requests {
				claims, err := rm.LeaseSlots(req)
				if (err != nil) != tc.wantErr[i] {
					t.Fatalf("request %d: err = %v, wantErr %v", i, err, tc.wantErr[i])
				}
				if err != nil {
					continue
				}
				for j, c := range claims {
					want := tc.wantAt[i][j]
					if c.Node != want.node || c.Slot != want.slot {
						t.Errorf("request %d claim %d at (%d,%d), want (%d,%d)",
							i, j, c.Node, c.Slot, want.node, want.slot)
					}
				}
			}
			rm.Stop()
		})
	}
}

func TestSlotLeaseLifecycle(t *testing.T) {
	s := sim.New(1)
	rm, _, tenants := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	ready := 0
	claims, err := rm.LeaseSlots(SlotRequest{
		Tenant: "dnn", Image: "dnn-v2", ALMs: 30000, Count: 3,
		OnReady: func(*SlotClaim) { ready++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if claims[0].Ready {
		t.Error("claim ready before reconfiguration")
	}
	s.RunFor(2 * sim.Millisecond)
	if ready != 3 {
		t.Fatalf("ready callbacks = %d, want 3", ready)
	}
	if tenants[0][0] != "dnn" || tenants[0][1] != "dnn" || tenants[1][0] != "dnn" {
		t.Fatalf("tenants = %v", tenants)
	}
	us, ts, ua, ta := rm.SlotPoolStats()
	if us != 3 || ts != 4 || ua != 90000 || ta != 192000 {
		t.Fatalf("pool stats = %d/%d slots, %d/%d alms", us, ts, ua, ta)
	}
	rm.ReleaseSlot(claims[1])
	if tenants[0][1] != "" {
		t.Error("released slot not cleared")
	}
	if us, _, _, _ := rm.SlotPoolStats(); us != 2 {
		t.Errorf("used slots after release = %d", us)
	}
	if got := rm.Slot.Granted.Value(); got != 3 {
		t.Errorf("granted = %d", got)
	}
	if got := rm.Slot.Released.Value(); got != 1 {
		t.Errorf("released = %d", got)
	}
	rm.Stop()
}

func TestSlotNodeDeathFailsClaimsAndRelease(t *testing.T) {
	s := sim.New(1)
	rm, healthy, _ := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	claims, err := rm.LeaseSlots(SlotRequest{Tenant: "kv", ALMs: 20000, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(5 * sim.Millisecond)
	*healthy[0] = false
	s.RunFor(20 * sim.Millisecond)
	if got := rm.Slot.Failed.Value(); got != 2 {
		t.Fatalf("slot.failed = %d, want the 2 claims on node 0", got)
	}
	for _, c := range claims {
		if c.Ready == (c.Node == 0) {
			t.Errorf("claim %d on node %d: Ready = %v after node 0 died", c.ID, c.Node, c.Ready)
		}
	}
	// Survivors re-lease onto the live board? No free slots left there —
	// the request must reject without spares.
	if _, err := rm.LeaseSlots(SlotRequest{Tenant: "kv", ALMs: 20000, Count: 1}); err == nil {
		t.Error("lease granted with every live slot claimed")
	}
	for _, c := range claims[2:] {
		rm.ReleaseSlot(c)
	}
	if us, ts, _, _ := rm.SlotPoolStats(); us != 0 || ts != 2 {
		t.Errorf("pool stats after death+release = %d/%d", us, ts)
	}
	rm.Stop()
}

func TestSlotKillTenantMidReconfig(t *testing.T) {
	// A board that dies while programming a tenant's slot must fail the
	// claim exactly once (via the health poll), never report it ready,
	// and leave the pool consistent for re-leasing elsewhere.
	s := sim.New(1)
	rm, healthy, tenants := slotBed(s, 2, []int{48000}, 20*sim.Millisecond)
	ready := 0
	claims, err := rm.LeaseSlots(SlotRequest{
		Tenant: "dnn", ALMs: 30000, Count: 1,
		OnReady: func(*SlotClaim) { ready++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the board mid-program (reconfig takes 20ms; poll is 10ms).
	s.Schedule(5*sim.Millisecond, func() { *healthy[claims[0].Node] = false })
	s.RunFor(50 * sim.Millisecond)
	if ready != 0 {
		t.Errorf("ready fired %d times on a dead board", ready)
	}
	if got := rm.Slot.Failed.Value(); got != 1 {
		t.Fatalf("slot.failed = %d, want 1", got)
	}
	if claims[0].Ready {
		t.Error("claim marked ready after death")
	}
	if tenants[claims[0].Node][0] == "dnn" {
		t.Error("dead board reports tenant loaded")
	}
	// The lessee re-leases: the surviving board takes the role.
	c2, err := rm.LeaseSlots(SlotRequest{Tenant: "dnn", ALMs: 30000, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c2[0].Node == claims[0].Node {
		t.Error("re-lease landed on the dead board")
	}
	s.RunFor(30 * sim.Millisecond)
	if !c2[0].Ready {
		t.Error("re-leased claim never became ready")
	}
	rm.Stop()
}

func TestDefragmentDrainsSparseBoards(t *testing.T) {
	s := sim.New(1)
	rm, _, tenants := slotBed(s, 3, []int{48000, 48000}, sim.Millisecond)
	// Fill all six slots, then release every second claim: churn leaves
	// one tenant stranded per board. Defrag should drain the
	// least-loaded board onto a fuller one by live reconfig.
	var all, churn []*SlotClaim
	for i, alms := range []int{40000, 30000, 10000} {
		for j, alloc := range []int{alms, 20000} {
			c, err := rm.LeaseSlots(SlotRequest{Tenant: fmt.Sprintf("t%d", i), ALMs: alloc, Count: 1})
			if err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				all = append(all, c...)
			} else {
				churn = append(churn, c...)
			}
		}
	}
	s.RunFor(2 * sim.Millisecond)
	for _, c := range churn {
		rm.ReleaseSlot(c)
	}
	if got := rm.SlotBoardsInUse(); got != 3 {
		t.Fatalf("boards in use = %d before defrag", got)
	}
	type place struct {
		node NodeID
		slot int
	}
	before := map[*SlotClaim]place{}
	for _, c := range all {
		before[c] = place{c.Node, c.Slot}
	}
	started := rm.Defragment()
	if started == 0 {
		t.Fatal("defrag found no moves in a drainable pool")
	}
	s.RunFor(5 * sim.Millisecond)
	if got := rm.SlotBoardsInUse(); got >= 3 {
		t.Errorf("boards in use = %d after defrag, want < 3", got)
	}
	if got := int(rm.Slot.DefragMoves.Value()); got != started {
		t.Errorf("defrag_moves = %d, started %d", got, started)
	}
	// Each move updated its claim's Node/Slot: as many claims sit
	// somewhere new as moves ran.
	moved := 0
	for _, c := range all {
		if before[c] != (place{c.Node, c.Slot}) {
			moved++
		}
	}
	if moved != started {
		t.Errorf("%d claims changed place, %d moves started", moved, started)
	}
	// Tenants kept serving through the move: every claim still loaded
	// somewhere, exactly once.
	for _, c := range all {
		if !c.Ready {
			t.Errorf("claim %s not ready after defrag", c.Tenant)
		}
		if tenants[c.Node][c.Slot] != c.Tenant {
			t.Errorf("claim %s not loaded at its reported (%d,%d)", c.Tenant, c.Node, c.Slot)
		}
	}
	// A second pass on the compacted pool must be a no-op (termination).
	if again := rm.Defragment(); again != 0 {
		t.Errorf("second defrag pass started %d moves", again)
	}
	rm.Stop()
}

func TestDefragNoOpWhenDense(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	if _, err := rm.LeaseSlots(SlotRequest{Tenant: "t", ALMs: 40000, Count: 4}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * sim.Millisecond)
	if moves := rm.Defragment(); moves != 0 {
		t.Errorf("defrag moved %d claims in a full pool", moves)
	}
	rm.Stop()
}

func TestSlottedNodesInvisibleToWholeNodeLease(t *testing.T) {
	s := sim.New(1)
	rm, _, _ := slotBed(s, 2, []int{48000, 48000}, sim.Millisecond)
	if rm.FreeCount() != 0 {
		t.Errorf("FreeCount = %d, slotted boards must not count as whole nodes", rm.FreeCount())
	}
	if _, err := rm.Lease("svc", "img", nil); err == nil {
		t.Error("whole-node lease granted from a purely slotted pool")
	}
	rm.Stop()
}

// FuzzSlotLedger drives the slot scheduler through random LeaseSlots
// (with and without DistinctNodes), ReleaseSlot, Defragment, board-kill
// and health-poll steps, and checks the claim ledger after each step:
//   - every live claim alone holds its slot and any move destination,
//     and fits both;
//   - a lease fails only when too few free slots fit it;
//   - a DistinctNodes grant never shares a board, and no defrag move
//     lands a claim on a board that holds its tenant;
//   - the granted, released and failed counters balance against the
//     live claims;
//   - after a poll, no claim sits on a dead board.
func FuzzSlotLedger(f *testing.F) {
	// bed picks the board count and the slot split. Each op byte's low
	// three bits pick the step; its high bits (arg) pick a lease's
	// tenant, ALM size and count, the claim to release or the board to
	// kill.
	f.Add(uint8(3), []byte{0, 137, 6, 3, 6, 4, 5, 2, 3, 6, 5})
	f.Add(uint8(27), []byte{64, 0, 0, 1, 6, 2, 3, 7, 12, 5, 3, 6, 5})
	f.Add(uint8(18), []byte{0, 0, 0, 0, 137, 6, 4, 6, 5, 0})
	f.Add(uint8(11), []byte{0, 8, 16, 6, 10, 3, 20, 6, 3, 5, 6, 3, 6})
	capSets := [][]int{{60000, 30000}, {45000, 45000}, {30000, 30000, 30000}, {40000, 20000, 20000, 10000}}
	almSizes := []int{10000, 20000, 35000, 55000}
	f.Fuzz(func(t *testing.T, bed uint8, ops []byte) {
		const reconfig, poll = sim.Millisecond, 10 * sim.Millisecond
		n := 1 + int(bed)%6
		caps := capSets[int(bed>>3)%len(capSets)]
		s := sim.New(1)
		rm, healthy, _ := slotBed(s, n, caps, reconfig)
		defer rm.Stop()
		var held []*SlotClaim     // granted and not released
		var groups [][]*SlotClaim // DistinctNodes grants
		var granted, released, failed uint64
		// gone lists released claims and whether each was ready when
		// released: a claim released mid-reconfiguration never turns
		// ready.
		type releasedClaim struct {
			c     *SlotClaim
			ready bool
		}
		var gone []releasedClaim
		onBoard := func(c *SlotClaim, node NodeID) bool {
			return c.Node == node || (c.moveTo != nil && c.moveTo.node == node)
		}
		for i, op := range ops {
			arg := int(op >> 3)
			advanced, polled := false, false
			switch op % 8 {
			case 0, 1:
				req := SlotRequest{
					Tenant: fmt.Sprintf("t%d", arg%3), Image: "img",
					ALMs: almSizes[(arg>>2)%len(almSizes)], Count: 1 + arg>>4,
					DistinctNodes: op%8 == 1,
				}
				fit := 0
				for id := range n {
					e := rm.nodes[NodeID(id)]
					if e.state != NodeFree {
						continue
					}
					free := 0
					for j, c := range e.slots.claims {
						if c == nil && caps[j] >= req.ALMs {
							free++
						}
					}
					if req.DistinctNodes {
						free = min(free, 1)
					}
					fit += free
				}
				claims, err := rm.LeaseSlots(req)
				if (err != nil) != (fit < req.Count) {
					t.Fatalf("step %d: lease of %d x %d ALMs with %d fitting slots returned %v", i, req.Count, req.ALMs, fit, err)
				}
				if err != nil {
					break
				}
				if len(claims) != req.Count {
					t.Fatalf("step %d: lease granted %d claims, want %d", i, len(claims), req.Count)
				}
				granted += uint64(len(claims))
				held = append(held, claims...)
				if req.DistinctNodes {
					groups = append(groups, claims)
				}
			case 2:
				if len(held) == 0 {
					break
				}
				k := arg % len(held)
				rm.ReleaseSlot(held[k])
				gone = append(gone, releasedClaim{held[k], held[k].Ready})
				held = append(held[:k], held[k+1:]...)
				released++
			case 3:
				wasMoving := map[*SlotClaim]bool{}
				for _, c := range held {
					wasMoving[c] = c.moveTo != nil
				}
				moves := rm.Defragment()
				started := 0
				for _, c := range held {
					if c.moveTo == nil || wasMoving[c] {
						continue
					}
					started++
					for _, o := range held {
						if o != c && o.Tenant == c.Tenant && onBoard(o, c.moveTo.node) {
							t.Fatalf("step %d: defrag moves claim %d onto board %d, which holds claim %d of tenant %s",
								i, c.ID, c.moveTo.node, o.ID, c.Tenant)
						}
					}
				}
				if started != moves {
					t.Fatalf("step %d: Defragment reported %d moves, %d claims started moving", i, moves, started)
				}
			case 4:
				*healthy[NodeID(arg%n)] = false
			case 5:
				s.RunFor(poll)
				advanced, polled = true, true
			default:
				s.RunFor(reconfig)
				advanced = true
			}

			// Claims leave the ledger only by failing, and only when
			// time runs: a health poll found their board dead.
			live := held[:0]
			for _, c := range held {
				if rm.slotClaims[c.ID] == c {
					live = append(live, c)
					continue
				}
				if !advanced || !c.dead || c.Ready || rm.NodeStateOf(c.Node) != NodeDead {
					t.Fatalf("step %d: claim %d on board %d left the ledger (dead=%v ready=%v board %v)",
						i, c.ID, c.Node, c.dead, c.Ready, rm.NodeStateOf(c.Node))
				}
				failed++
			}
			held = live
			for _, g := range gone {
				if g.c.Ready != g.ready {
					t.Fatalf("step %d: claim %d turned ready after its release", i, g.c.ID)
				}
			}
			if len(rm.slotClaims) != len(held) {
				t.Fatalf("step %d: ledger holds %d claims, want %d", i, len(rm.slotClaims), len(held))
			}
			sl := &rm.Slot
			if sl.Granted.Value() != granted || sl.Released.Value() != released || sl.Failed.Value() != failed {
				t.Fatalf("step %d: granted/released/failed = %d/%d/%d, want %d/%d/%d", i,
					sl.Granted.Value(), sl.Released.Value(), sl.Failed.Value(), granted, released, failed)
			}
			alms := 0
			for _, c := range held {
				alms += c.ALMs
			}
			if sl.Occupied.Value() != int64(len(held)) || sl.ALMUsed.Value() != int64(alms) {
				t.Fatalf("step %d: occupied %d slots of %d ALMs, want %d of %d", i,
					sl.Occupied.Value(), sl.ALMUsed.Value(), len(held), alms)
			}

			// Each live claim holds its home slot and any move
			// destination, and every occupied slot belongs to one of
			// them, so no slot holds two claims.
			for id := range n {
				for j, c := range rm.nodes[NodeID(id)].slots.claims {
					if c == nil {
						continue
					}
					at := slotRef{NodeID(id), j}
					if rm.slotClaims[c.ID] != c || (slotRef{c.Node, c.Slot} != at && (c.moveTo == nil || *c.moveTo != at)) {
						t.Fatalf("step %d: slot (%d,%d) holds claim %d, which is not live there", i, id, j, c.ID)
					}
					if c.ALMs > caps[j] {
						t.Fatalf("step %d: claim %d of %d ALMs in slot (%d,%d) of %d", i, c.ID, c.ALMs, id, j, caps[j])
					}
				}
			}
			for _, c := range held {
				if rm.nodes[c.Node].slots.claims[c.Slot] != c {
					t.Fatalf("step %d: claim %d does not hold its slot (%d,%d)", i, c.ID, c.Node, c.Slot)
				}
				if m := c.moveTo; m != nil && (m.node == c.Node || rm.nodes[m.node].slots.claims[m.slot] != c) {
					t.Fatalf("step %d: claim %d does not hold its move destination (%d,%d)", i, c.ID, m.node, m.slot)
				}
				if polled && (rm.NodeStateOf(c.Node) == NodeDead || (c.moveTo != nil && rm.NodeStateOf(c.moveTo.node) == NodeDead)) {
					t.Fatalf("step %d: claim %d sits on a dead board after a poll", i, c.ID)
				}
			}
			for _, g := range groups {
				boards := map[NodeID]int{}
				for _, c := range g {
					if rm.slotClaims[c.ID] != c {
						continue
					}
					nodes := []NodeID{c.Node}
					if c.moveTo != nil {
						nodes = append(nodes, c.moveTo.node)
					}
					for _, b := range nodes {
						if o, dup := boards[b]; dup {
							t.Fatalf("step %d: DistinctNodes claims %d and %d share board %d", i, o, c.ID, b)
						}
						boards[b] = c.ID
					}
				}
			}
		}
	})
}

// TestReleaseDuringReconfiguration releases a claim while its slot is
// still reconfiguring. The claim must never turn ready or fire OnReady,
// and the slot the ledger shows as free must not keep the tenant's image.
func TestReleaseDuringReconfiguration(t *testing.T) {
	s := sim.New(1)
	rm, _, tenants := slotBed(s, 1, []int{30000}, sim.Millisecond)
	defer rm.Stop()
	readied := false
	claims, err := rm.LeaseSlots(SlotRequest{Tenant: "t", Image: "img", ALMs: 10000, Count: 1,
		OnReady: func(*SlotClaim) { readied = true }})
	if err != nil {
		t.Fatal(err)
	}
	rm.ReleaseSlot(claims[0])
	s.RunFor(2 * sim.Millisecond)
	if claims[0].Ready || readied {
		t.Errorf("released claim turned ready (Ready=%v, OnReady fired=%v)", claims[0].Ready, readied)
	}
	if got := tenants[0][0]; got != "" {
		t.Errorf("free slot still holds tenant %q's image", got)
	}
}
