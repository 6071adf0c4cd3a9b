package haas

// Backend pools (§V-F): a service only asks to Grow or Shrink; the pool
// decides what to lease (a whole board, or a vFPGA slot claim off the
// boards the pool already uses), replaces members whose board dies, and
// reports each change through the PoolSpec callbacks.

import "slices"

// PoolSpec names what a pool leases and how it reports to its service.
type PoolSpec struct {
	Tenant string
	Image  string
	// ALMs > 0 leases each member as a vFPGA slot claim of that
	// footprint; 0 leases whole boards.
	ALMs int

	// OnReady fires when a member serves at m.Node: at grant for a whole
	// board (replacements included), and once the slot finishes
	// reconfiguring for a claim (also after a failover re-lease and
	// after each Defragment move).
	OnReady func(m *Member)
	// OnMove fires when Defragment moves m's claim to another board,
	// after m.Node and m.Slot are updated and before OnReady.
	OnMove func(m *Member, from NodeID)
	// OnLost fires when m's board dies, after the pool tried to replace
	// it. If m.Node != dead the replacement is granted and m keeps its
	// Index (OnReady follows as for any grant); otherwise no spare fitted
	// and m has been dropped from the pool.
	OnLost func(m *Member, dead NodeID)
}

// Member is one backend of a pool.
type Member struct {
	// Index is the member's grant ordinal; a replacement keeps it.
	Index int
	Node  NodeID
	// Slot is the member's vFPGA slot (-1 for a whole board).
	Slot int

	lease int        // whole-board lease id
	claim *SlotClaim // nil for a whole board
}

// Claim returns the member's slot claim (nil for a whole board).
func (m *Member) Claim() *SlotClaim { return m.claim }

// Pool owns a service's backend leases: placement, release, and
// failover.
type Pool struct {
	rm      *ResourceManager
	spec    PoolSpec
	members []*Member // grant order; Shrink pops the newest
	next    int
}

// NewPool creates an empty pool leasing from rm.
func NewPool(rm *ResourceManager, spec PoolSpec) *Pool {
	return &Pool{rm: rm, spec: spec}
}

// RM returns the Resource Manager the pool leases from.
func (p *Pool) RM() *ResourceManager { return p.rm }

// AddNode registers a board the pool may lease: per vFPGA slot for a
// slotted pool, else as a whole board through sfm.FM alone.
func (p *Pool) AddNode(sfm *SlotFM) {
	if p.slotted() {
		p.rm.RegisterSlots(sfm)
	} else {
		p.rm.Register(sfm.FM)
	}
}

// Members returns the live members in grant order.
func (p *Pool) Members() []*Member { return append([]*Member(nil), p.members...) }

// Grow leases one more member: a whole board, or a slot on a board no
// member uses.
func (p *Pool) Grow() (*Member, error) {
	m := &Member{Index: p.next, Slot: -1}
	if err := p.lease(m, p.nodesExcept(nil)); err != nil {
		return nil, err
	}
	p.next++
	p.members = append(p.members, m)
	if !p.slotted() && p.spec.OnReady != nil {
		p.spec.OnReady(m)
	}
	return m, nil
}

// Shrink releases the newest member and returns it (nil when empty).
// Work already queued on it is the service's to drain.
func (p *Pool) Shrink() *Member {
	if len(p.members) == 0 {
		return nil
	}
	m := p.members[len(p.members)-1]
	p.members = p.members[:len(p.members)-1]
	if p.slotted() {
		p.rm.ReleaseSlot(m.claim)
	} else {
		p.rm.Release(m.lease)
	}
	return m
}

func (p *Pool) slotted() bool { return p.spec.ALMs > 0 }

// nodesExcept lists the boards of every member but skip.
func (p *Pool) nodesExcept(skip *Member) []NodeID {
	var ids []NodeID
	for _, o := range p.members {
		if o != skip {
			ids = append(ids, o.Node)
		}
	}
	return ids
}

// lease places m on a whole board, or on a slot off the avoided boards.
func (p *Pool) lease(m *Member, avoid []NodeID) error {
	if !p.slotted() {
		comp, err := p.rm.Lease(p.spec.Tenant, p.spec.Image, Constraints{Count: 1, Pod: -1},
			func(dead NodeID) { p.fail(m, dead) })
		if err != nil {
			return err
		}
		m.lease, m.Node = comp.LeaseID, comp.Nodes[0]
		return nil
	}
	claims, err := p.rm.LeaseSlots(SlotRequest{
		Tenant: p.spec.Tenant, Image: p.spec.Image, ALMs: p.spec.ALMs,
		Count: 1, Avoid: avoid,
		OnReady: func(c *SlotClaim) {
			if m.claim == c && p.spec.OnReady != nil {
				p.spec.OnReady(m)
			}
		},
		OnMove: func(c *SlotClaim, from NodeID, _ int) {
			m.Node, m.Slot = c.Node, c.Slot
			if p.spec.OnMove != nil {
				p.spec.OnMove(m, from)
			}
		},
		OnFailure: func(c *SlotClaim) { p.fail(m, c.Node) },
	})
	if err != nil {
		return err
	}
	c := claims[0]
	m.claim, m.Node, m.Slot = c, c.Node, c.Slot
	return nil
}

// fail replaces m after its board died: a whole board through
// ReplaceNode (same lease), a slot by a fresh claim off the dead board
// and every other member's board. Without a spare, m is dropped.
func (p *Pool) fail(m *Member, dead NodeID) {
	var err error
	if !p.slotted() {
		var repl NodeID
		if repl, err = p.rm.ReplaceNode(m.lease, dead, p.spec.Image); err == nil {
			m.Node = repl
		} else {
			p.rm.Release(m.lease)
		}
	} else {
		m.claim = nil
		err = p.lease(m, append(p.nodesExcept(m), dead))
	}
	if err != nil {
		p.members = slices.DeleteFunc(p.members, func(o *Member) bool { return o == m })
	}
	if p.spec.OnLost != nil {
		p.spec.OnLost(m, dead)
	}
	if err == nil && !p.slotted() && p.spec.OnReady != nil {
		p.spec.OnReady(m)
	}
}
