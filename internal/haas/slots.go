package haas

// vFPGA slot scheduling: the Resource Manager grown into a bin-packing
// scheduler over partially reconfigurable slot regions (ROADMAP item 3).
//
// A slotted node exposes 2–4 vFPGA slots instead of one whole-board
// role; leases map to (node, slot) claims instead of nodes. The RM
// places heterogeneous tenants by best-fit over ALM capacities,
// defragments the pool by live partial reconfiguration (the destination
// slot is programmed before the source is released, so a moving tenant
// never stops serving), and converts node death into per-claim failure
// notifications so lessees re-lease exactly what they lost.
//
// The shell side of the model — reconfiguration cost, per-slot ER
// virtual channels, egress token buckets — lives in
// internal/shell/slots.go; this file only schedules.

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// SlotFM extends a node's FPGA Manager with its vFPGA slot surface. The
// concrete wiring (shell.ReconfigureSlot / shell.ClearSlot) is injected
// so haas stays independent of the data plane.
type SlotFM struct {
	FM *FPGAManager
	// Caps is each slot's ALM capacity.
	Caps []int
	// ConfigureSlot partially reconfigures one slot for a tenant role,
	// returning the modeled reconfiguration duration. done must fire
	// exactly once: ok=false if the board failed mid-program.
	ConfigureSlot func(slot int, tenant, image string, alms int, done func(ok bool)) (sim.Time, error)
	// ClearSlot evicts whatever the slot holds (no reprogram needed).
	ClearSlot func(slot int) error
}

// SlotClaim is one granted (node, slot) lease.
type SlotClaim struct {
	ID     int
	Node   NodeID
	Slot   int
	Tenant string
	ALMs   int
	// Ready reports the slot's reconfiguration completed and the tenant
	// role is serving.
	Ready bool

	image string
	req   SlotRequest
	span  obs.SpanID
	// moveTo is the in-flight defrag destination (nil when not moving).
	moveTo *slotRef
	dead   bool
}

type slotRef struct {
	node NodeID
	slot int
}

// SlotRequest asks the RM for Count slots able to hold a tenant role of
// ALMs each. Grants are all-or-nothing.
type SlotRequest struct {
	Tenant string
	Image  string
	ALMs   int
	Count  int
	// DistinctNodes spreads the claims across distinct boards (a sharded
	// service whose demux key cannot distinguish co-located slots needs
	// this; it is also the availability-domain constraint).
	DistinctNodes bool
	// OnReady fires when a claim's slot finishes reconfiguring (also
	// after each defrag move of the claim, once its Node/Slot name the
	// new slot).
	OnReady func(c *SlotClaim)
}

// slotState is the RM-side view of one slotted node.
type slotState struct {
	fm *SlotFM
	// claims[i] holds the slot's current claim (nil = free). A defrag
	// destination is reserved here while the move is in flight.
	claims []*SlotClaim
}

// SlotMetrics aggregates the slot scheduler's counters; registered
// lazily on the first RegisterSlots so unslotted deployments keep their
// telemetry byte-identical.
type SlotMetrics struct {
	Granted      metrics.Counter
	Rejected     metrics.Counter
	Released     metrics.Counter
	Failed       metrics.Counter // claims lost to board death
	DefragMoves  metrics.Counter
	Occupied     metrics.Gauge // slots currently claimed
	ALMUsed      metrics.Gauge
	ReconfigWait *metrics.Histogram // grant -> ready latency
}

// RegisterSlots adds a slotted node to the pool. The node is scheduled
// per slot: it never satisfies whole-node Lease calls.
func (rm *ResourceManager) RegisterSlots(sfm *SlotFM) {
	if len(sfm.Caps) == 0 {
		panic("haas: RegisterSlots with no slot capacities")
	}
	rm.nodes[sfm.FM.Node] = &nodeEntry{
		id: sfm.FM.Node, state: NodeFree, fm: sfm.FM,
		slots: &slotState{fm: sfm, claims: make([]*SlotClaim, len(sfm.Caps))},
	}
	if rm.slotClaims == nil {
		rm.slotClaims = make(map[int]*SlotClaim)
		rm.Slot.ReconfigWait = metrics.NewHistogram()
		if r := obs.RegistryOf(rm.sim); r != nil {
			r.Counter("haas.slot.granted", "claims", "haas", "vFPGA slot claims granted", &rm.Slot.Granted)
			r.Counter("haas.slot.rejected", "requests", "haas", "slot requests denied (no fitting slots)", &rm.Slot.Rejected)
			r.Counter("haas.slot.released", "claims", "haas", "slot claims released", &rm.Slot.Released)
			r.Counter("haas.slot.failed", "claims", "haas", "slot claims lost to board death", &rm.Slot.Failed)
			r.Counter("haas.slot.defrag_moves", "moves", "haas", "claims moved by pool defragmentation", &rm.Slot.DefragMoves)
			r.Gauge("haas.slot.occupied", "slots", "haas", "vFPGA slots currently claimed", &rm.Slot.Occupied)
			r.Gauge("haas.slot.alm_used", "alms", "haas", "ALMs claimed across the slotted pool", &rm.Slot.ALMUsed)
			r.Histogram("haas.slot.reconfig_wait", "ns", "haas", "slot grant to tenant-serving latency", rm.Slot.ReconfigWait)
		}
	}
}

// SlotPoolStats reports the slotted pool's occupancy: claimed and total
// slots/ALMs over live boards.
func (rm *ResourceManager) SlotPoolStats() (usedSlots, totalSlots, usedALMs, totalALMs int) {
	for _, e := range rm.nodes {
		if e.slots == nil || e.state == NodeDead {
			continue
		}
		for i, c := range e.slots.claims {
			totalSlots++
			totalALMs += e.slots.fm.Caps[i]
			if c != nil && c.Node == e.id && c.Slot == i {
				usedSlots++
				usedALMs += c.ALMs
			}
		}
	}
	return
}

// SlotBoardsInUse reports how many live slotted boards hold at least one
// claim (the quantity defragmentation minimizes).
func (rm *ResourceManager) SlotBoardsInUse() int {
	n := 0
	for _, e := range rm.nodes {
		if e.slots == nil || e.state == NodeDead {
			continue
		}
		for i, c := range e.slots.claims {
			if c != nil && c.Node == e.id && c.Slot == i {
				n++
				break
			}
		}
	}
	return n
}

// slotCandidate is one free slot during placement.
type slotCandidate struct {
	node NodeID
	slot int
	cap  int
}

// freeSlots lists every free slot on live slotted boards, best-fit
// ordered: capacity ascending, then (node, slot) for determinism.
func (rm *ResourceManager) freeSlots(minALMs int) []slotCandidate {
	var out []slotCandidate
	for _, e := range rm.nodes {
		if e.slots == nil || e.state != NodeFree {
			continue
		}
		for i, c := range e.slots.claims {
			if c == nil && e.slots.fm.Caps[i] >= minALMs {
				out = append(out, slotCandidate{node: e.id, slot: i, cap: e.slots.fm.Caps[i]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].cap != out[j].cap {
			return out[i].cap < out[j].cap
		}
		if out[i].node != out[j].node {
			return out[i].node < out[j].node
		}
		return out[i].slot < out[j].slot
	})
	return out
}

// LeaseSlots grants req.Count (node, slot) claims, best-fit packed: each
// claim takes the smallest free slot that fits (ties broken by node then
// slot id, so placement is deterministic). The grant is all-or-nothing;
// each claim's slot starts reconfiguring immediately and OnReady fires
// when the tenant role is serving.
func (rm *ResourceManager) LeaseSlots(req SlotRequest) ([]*SlotClaim, error) {
	if req.Count <= 0 {
		return nil, fmt.Errorf("haas: slot count must be positive")
	}
	if req.ALMs <= 0 {
		return nil, fmt.Errorf("haas: slot request needs a positive ALM footprint")
	}
	cands := rm.freeSlots(req.ALMs)
	var picks []slotCandidate
	usedNode := map[NodeID]bool{}
	for _, c := range cands {
		if req.DistinctNodes && usedNode[c.node] {
			continue
		}
		picks = append(picks, c)
		usedNode[c.node] = true
		if len(picks) == req.Count {
			break
		}
	}
	if len(picks) < req.Count {
		rm.Slot.Rejected.Inc()
		if rm.tracer != nil {
			rm.tracer.Event(obs.LeaseFlow(uint64(rm.nextID)), "haas.slot.reject", 0, int64(req.ALMs))
		}
		return nil, fmt.Errorf("haas: no fit for %q: need %d slots of %d ALMs, have %d",
			req.Tenant, req.Count, req.ALMs, len(picks))
	}
	claims := make([]*SlotClaim, 0, req.Count)
	for _, p := range picks {
		c := &SlotClaim{
			ID: rm.nextID, Node: p.node, Slot: p.slot,
			Tenant: req.Tenant, ALMs: req.ALMs, image: req.Image, req: req,
		}
		rm.nextID++
		e := rm.nodes[p.node]
		e.slots.claims[p.slot] = c
		rm.slotClaims[c.ID] = c
		rm.Slot.Granted.Inc()
		rm.Slot.Occupied.Add(1)
		rm.Slot.ALMUsed.Add(int64(req.ALMs))
		if rm.tracer != nil {
			c.span = rm.tracer.Start(obs.LeaseFlow(uint64(c.ID)), "haas.slot.lease", 0)
			rm.tracer.SetArg(c.span, int64(req.ALMs))
		}
		claims = append(claims, c)
		rm.configureClaim(c, e.slots.fm, p.slot)
	}
	return claims, nil
}

// configureClaim starts the slot's partial reconfiguration for c.
func (rm *ResourceManager) configureClaim(c *SlotClaim, fm *SlotFM, slot int) {
	grantAt := rm.sim.Now()
	_, err := fm.ConfigureSlot(slot, c.Tenant, c.image, c.ALMs, func(ok bool) {
		if c.dead || !ok {
			return // board death is handled by the health poll
		}
		c.Ready = true
		rm.Slot.ReconfigWait.Observe(int64(rm.sim.Now() - grantAt))
		if rm.tracer != nil {
			rm.tracer.Event(obs.LeaseFlow(uint64(c.ID)), "haas.slot.ready", c.span, int64(slot))
		}
		if c.req.OnReady != nil {
			c.req.OnReady(c)
		}
	})
	if err != nil {
		// The FM rejected a grant the scheduler thought fit — a wiring
		// bug, not a runtime condition.
		panic(fmt.Sprintf("haas: slot configure for claim %d: %v", c.ID, err))
	}
}

// ReleaseSlot returns one claim's slot to the pool.
func (rm *ResourceManager) ReleaseSlot(c *SlotClaim) {
	cur, ok := rm.slotClaims[c.ID]
	if !ok || cur != c {
		return
	}
	delete(rm.slotClaims, c.ID)
	rm.dropClaimSlots(c)
	rm.Slot.Released.Inc()
	rm.Slot.Occupied.Add(-1)
	rm.Slot.ALMUsed.Add(-int64(c.ALMs))
	if rm.tracer != nil && c.span != 0 {
		rm.tracer.End(c.span)
	}
}

// dropClaimSlots frees the claim's primary slot and any in-flight move
// destination, clearing live boards' regions.
func (rm *ResourceManager) dropClaimSlots(c *SlotClaim) {
	free := func(node NodeID, slot int) {
		e, ok := rm.nodes[node]
		if !ok || e.slots == nil {
			return
		}
		if e.slots.claims[slot] == c {
			e.slots.claims[slot] = nil
		}
		if e.state != NodeDead && e.slots.fm.ClearSlot != nil {
			e.slots.fm.ClearSlot(slot)
		}
	}
	free(c.Node, c.Slot)
	if c.moveTo != nil {
		free(c.moveTo.node, c.moveTo.slot)
		c.moveTo = nil
	}
}

// failSlottedNode converts a slotted board's death into per-claim
// failures (called from the health poll).
func (rm *ResourceManager) failSlottedNode(e *nodeEntry) {
	// Claims homed on the dead board die; in-flight moves *to* the dead
	// board are cancelled (the tenant keeps serving at its source).
	ids := make([]int, 0, len(rm.slotClaims))
	for id := range rm.slotClaims {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c := rm.slotClaims[id]
		if c.moveTo != nil && c.moveTo.node == e.id {
			e.slots.claims[c.moveTo.slot] = nil
			c.moveTo = nil
		}
		if c.Node != e.id {
			continue
		}
		c.dead, c.Ready = true, false
		delete(rm.slotClaims, id)
		rm.dropClaimSlots(c)
		rm.Slot.Failed.Inc()
		rm.Slot.Occupied.Add(-1)
		rm.Slot.ALMUsed.Add(-int64(c.ALMs))
		if rm.tracer != nil {
			rm.tracer.Event(obs.LeaseFlow(uint64(c.ID)), "haas.slot.dead", c.span, int64(e.id))
			if c.span != 0 {
				rm.tracer.End(c.span)
			}
		}
	}
}

// Defragment consolidates claims onto fewer boards by live partial
// reconfiguration: the greedy pass drains the least-loaded boards whose
// every claim fits elsewhere on strictly fuller boards. Each move
// programs the destination slot first and releases the source only when
// the destination serves, so the tenant never stops. Returns the number
// of moves started.
func (rm *ResourceManager) Defragment() int {
	type board struct {
		e    *nodeEntry
		used int // claimed ALMs homed here
	}
	var boards []board
	for _, e := range rm.nodes {
		if e.slots == nil || e.state == NodeDead {
			continue
		}
		b := board{e: e}
		for i, c := range e.slots.claims {
			if c != nil && c.Node == e.id && c.Slot == i {
				if c.moveTo != nil {
					b.used = -1 // a board already mid-move is left alone
					break
				}
				b.used += c.ALMs
			}
		}
		if b.used > 0 {
			boards = append(boards, b)
		}
	}
	// Drain candidates: least-loaded first (tie: node id), so the pass
	// empties the boards that cost the least to vacate.
	sort.Slice(boards, func(i, j int) bool {
		if boards[i].used != boards[j].used {
			return boards[i].used < boards[j].used
		}
		return boards[i].e.id < boards[j].e.id
	})
	loadOf := func(id NodeID) int {
		for _, b := range boards {
			if b.e.id == id {
				return b.used
			}
		}
		return 0
	}
	moves := 0
	for _, donor := range boards {
		// Plan destinations for every claim on the donor; commit only if
		// all fit on strictly fuller boards (otherwise draining gains
		// nothing and the pass could ping-pong).
		var donorClaims []*SlotClaim
		for i, c := range donor.e.slots.claims {
			if c != nil && c.Node == donor.e.id && c.Slot == i {
				donorClaims = append(donorClaims, c)
			}
		}
		type planned struct {
			c    *SlotClaim
			dest slotCandidate
		}
		type nodeTenant struct {
			node   NodeID
			tenant string
		}
		var plan []planned
		taken := map[slotRef]bool{}
		plannedAt := map[nodeTenant]bool{}
		ok := true
		for _, c := range donorClaims {
			found := false
			for _, cand := range rm.freeSlots(c.ALMs) {
				if cand.node == donor.e.id || taken[slotRef{cand.node, cand.slot}] {
					continue
				}
				// Never co-locate a tenant with itself: kind demux and the
				// availability domain both assume one claim per board.
				if rm.nodeHasTenant(cand.node, c.Tenant) || plannedAt[nodeTenant{cand.node, c.Tenant}] {
					continue
				}
				if dl, cl := donor.used, loadOf(cand.node); cl < dl || (cl == dl && cand.node < donor.e.id) {
					continue // only move onto strictly fuller boards
				}
				plan = append(plan, planned{c: c, dest: cand})
				taken[slotRef{cand.node, cand.slot}] = true
				plannedAt[nodeTenant{cand.node, c.Tenant}] = true
				found = true
				break
			}
			if !found {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, p := range plan {
			rm.startMove(p.c, p.dest)
			moves++
		}
	}
	return moves
}

// nodeHasTenant reports whether any claim of the tenant is homed on (or
// moving to) the node.
func (rm *ResourceManager) nodeHasTenant(id NodeID, tenant string) bool {
	e, ok := rm.nodes[id]
	if !ok || e.slots == nil {
		return false
	}
	for _, c := range e.slots.claims {
		if c != nil && c.Tenant == tenant {
			return true
		}
	}
	return false
}

// startMove begins one defrag move: reserve and program the destination,
// then cut over and clear the source.
func (rm *ResourceManager) startMove(c *SlotClaim, dest slotCandidate) {
	de := rm.nodes[dest.node]
	de.slots.claims[dest.slot] = c
	c.moveTo = &slotRef{node: dest.node, slot: dest.slot}
	if rm.tracer != nil {
		rm.tracer.Event(obs.LeaseFlow(uint64(c.ID)), "haas.slot.defrag", c.span, int64(dest.node))
	}
	grantAt := rm.sim.Now()
	_, err := de.slots.fm.ConfigureSlot(dest.slot, c.Tenant, c.image, c.ALMs, func(ok bool) {
		if c.dead {
			return
		}
		if !ok || c.moveTo == nil || c.moveTo.node != dest.node {
			return // cancelled by death of the destination or release
		}
		fromNode, fromSlot := c.Node, c.Slot
		if se, ok := rm.nodes[fromNode]; ok && se.slots != nil {
			if se.slots.claims[fromSlot] == c {
				se.slots.claims[fromSlot] = nil
			}
			if se.state != NodeDead && se.slots.fm.ClearSlot != nil {
				se.slots.fm.ClearSlot(fromSlot)
			}
		}
		c.Node, c.Slot = dest.node, dest.slot
		c.moveTo = nil
		rm.Slot.DefragMoves.Inc()
		rm.Slot.ReconfigWait.Observe(int64(rm.sim.Now() - grantAt))
		if c.req.OnReady != nil {
			c.req.OnReady(c)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("haas: defrag configure for claim %d: %v", c.ID, err))
	}
}
