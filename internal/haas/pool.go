package haas

// Backend pools (§V-F): a pool is its service's Service Manager. The
// service only asks to Grow or Shrink; the pool leases one whole board
// per member, replaces members whose board dies, and reports each change
// through the PoolSpec callbacks.

import "slices"

// PoolSpec names what a pool leases and how it reports to its service.
type PoolSpec struct {
	Tenant string
	Image  string

	// OnReady fires when a member serves at m.Node: at grant, and after
	// a failover replacement.
	OnReady func(m *Member)
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

	lease int
}

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

// Members returns the live members in grant order.
func (p *Pool) Members() []*Member { return append([]*Member(nil), p.members...) }

// Grow leases one more board as a new member.
func (p *Pool) Grow() (*Member, error) {
	m := &Member{Index: p.next}
	comp, err := p.rm.Lease(p.spec.Tenant, p.spec.Image, func(dead NodeID) { p.fail(m, dead) })
	if err != nil {
		return nil, err
	}
	m.lease, m.Node = comp.LeaseID, comp.Node
	p.next++
	p.members = append(p.members, m)
	p.ready(m)
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
	p.rm.Release(m.lease)
	return m
}

// fail moves m's lease onto a spare after its board died. Without a
// spare, the lease is released and m is dropped.
func (p *Pool) fail(m *Member, dead NodeID) {
	repl, err := p.rm.ReplaceNode(m.lease, p.spec.Image)
	if err == nil {
		m.Node = repl
	} else {
		p.rm.Release(m.lease)
		p.members = slices.DeleteFunc(p.members, func(o *Member) bool { return o == m })
	}
	if p.spec.OnLost != nil {
		p.spec.OnLost(m, dead)
	}
	if err == nil {
		p.ready(m)
	}
}

func (p *Pool) ready(m *Member) {
	if p.spec.OnReady != nil {
		p.spec.OnReady(m)
	}
}
