// Package haas implements the Hardware-as-a-Service platform of §V-F
// (Fig. 13): a logically centralized Resource Manager (RM) tracks FPGA
// resources across the datacenter and leases them as Components — one
// whole board each — or as vFPGA slot claims. An FPGA Manager (FM) on
// each node handles configuration and status monitoring. A service's
// Service Manager is a Pool (pool.go): it only grows and shrinks, and
// the pool owns placement, release and failover.
package haas

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID identifies one FPGA-bearing server.
type NodeID int

// NodeState is the RM's view of a node.
type NodeState int

// Node states.
const (
	NodeFree NodeState = iota
	NodeLeased
	NodeDead
)

// String names the state.
func (s NodeState) String() string {
	switch s {
	case NodeFree:
		return "free"
	case NodeLeased:
		return "leased"
	default:
		return "dead"
	}
}

// Component is a leased hardware-service instance: one whole board.
type Component struct {
	LeaseID int
	Node    NodeID

	onFailure func(NodeID) // lessee's board-death notification (optional)
	span      obs.SpanID   // open "haas.lease" span (0 when tracing is off)
}

// FPGAManager is the per-node agent: it configures the node's shell and
// reports health. The concrete shell wiring is injected so haas stays
// independent of the data plane.
type FPGAManager struct {
	Node NodeID
	// Configure loads a role image (invoked on lease grant).
	Configure func(image string)
	// Healthy reports node liveness (polled by the RM).
	Healthy func() bool
}

// RMConfig parameterizes the Resource Manager.
type RMConfig struct {
	// HealthPollInterval is the FM status-poll period.
	HealthPollInterval sim.Time
}

// ResourceManager tracks the global FPGA pool and grants leases.
type ResourceManager struct {
	sim *sim.Simulation

	nodes  map[NodeID]*nodeEntry
	leases map[int]*Component
	nextID int

	Granted  metrics.Counter
	Released metrics.Counter
	Failures metrics.Counter
	Rejected metrics.Counter
	Replaced metrics.Counter
	poll     *sim.Ticker

	// Slot scheduling state (slots.go). slotClaims is nil until the
	// first RegisterSlots, which also registers the Slot metrics.
	slotClaims map[int]*SlotClaim
	Slot       SlotMetrics

	// tracer is cached at construction (nil when observability is off).
	tracer *obs.Tracer
}

type nodeEntry struct {
	id    NodeID
	state NodeState
	fm    *FPGAManager
	lease *Component // the whole-board lease holding the node, if any
	// slots is non-nil for a slotted node (RegisterSlots): the node is
	// scheduled per vFPGA slot and never granted as a whole board.
	slots *slotState
}

// NewResourceManager builds an RM and starts its health poll.
func NewResourceManager(s *sim.Simulation, cfg RMConfig) *ResourceManager {
	if cfg.HealthPollInterval <= 0 {
		cfg.HealthPollInterval = 100 * sim.Millisecond
	}
	rm := &ResourceManager{
		sim:    s,
		nodes:  make(map[NodeID]*nodeEntry),
		leases: make(map[int]*Component),
		tracer: obs.TracerOf(s),
	}
	if r := obs.RegistryOf(s); r != nil {
		r.Counter("haas.granted", "leases", "haas", "component leases granted", &rm.Granted)
		r.Counter("haas.released", "leases", "haas", "component leases released", &rm.Released)
		r.Counter("haas.failures", "nodes", "haas", "nodes marked dead by health polling", &rm.Failures)
		r.Counter("haas.rejected", "leases", "haas", "lease requests denied (pool exhausted)", &rm.Rejected)
		r.Counter("haas.replaced", "nodes", "haas", "failed lease members swapped for spares", &rm.Replaced)
	}
	rm.poll = s.Every(cfg.HealthPollInterval, cfg.HealthPollInterval, rm.pollHealth)
	return rm
}

// Stop halts the health poll.
func (rm *ResourceManager) Stop() { rm.poll.Stop() }

// Register adds a node (with its FM) to the global pool.
func (rm *ResourceManager) Register(fm *FPGAManager) {
	rm.nodes[fm.Node] = &nodeEntry{id: fm.Node, state: NodeFree, fm: fm}
}

// FreeCount reports unleased, healthy whole-board nodes (slotted nodes
// are accounted per slot; see SlotPoolStats).
func (rm *ResourceManager) FreeCount() int {
	n := 0
	for _, e := range rm.nodes {
		if e.state == NodeFree && e.slots == nil {
			n++
		}
	}
	return n
}

// NodeStateOf reports the RM's view of a node.
func (rm *ResourceManager) NodeStateOf(id NodeID) NodeState {
	if e, ok := rm.nodes[id]; ok {
		return e.state
	}
	return NodeDead
}

// Lease grants one free board as a Component, configuring it via its
// FM. onFailure (optional) notifies the lessee when the board dies.
func (rm *ResourceManager) Lease(owner, image string, onFailure func(NodeID)) (*Component, error) {
	id, ok := rm.freeNode()
	if !ok {
		rm.Rejected.Inc()
		if rm.tracer != nil {
			rm.tracer.Event(obs.LeaseFlow(uint64(rm.nextID)), "haas.reject", 0, 1)
		}
		return nil, fmt.Errorf("haas: no free FPGA for %q", owner)
	}
	comp := &Component{LeaseID: rm.nextID, onFailure: onFailure}
	rm.nextID++
	rm.grant(comp, id, image)
	rm.leases[comp.LeaseID] = comp
	rm.Granted.Inc()
	if rm.tracer != nil {
		comp.span = rm.tracer.Start(obs.LeaseFlow(uint64(comp.LeaseID)), "haas.lease", 0)
		rm.tracer.SetArg(comp.span, 1)
	}
	return comp, nil
}

// freeNode returns the free unslotted node with the lowest id.
func (rm *ResourceManager) freeNode() (NodeID, bool) {
	best, ok := NodeID(0), false
	for _, e := range rm.nodes {
		if e.state == NodeFree && e.slots == nil && (!ok || e.id < best) {
			best, ok = e.id, true
		}
	}
	return best, ok
}

// grant puts comp on node id and configures it with image.
func (rm *ResourceManager) grant(comp *Component, id NodeID, image string) {
	comp.Node = id
	e := rm.nodes[id]
	e.state, e.lease = NodeLeased, comp
	if e.fm.Configure != nil {
		e.fm.Configure(image)
	}
}

// Release returns a component's board to the pool.
func (rm *ResourceManager) Release(leaseID int) {
	comp, ok := rm.leases[leaseID]
	if !ok {
		return
	}
	e := rm.nodes[comp.Node]
	if e.state == NodeLeased {
		e.state = NodeFree
	}
	e.lease = nil
	delete(rm.leases, leaseID)
	rm.Released.Inc()
	if rm.tracer != nil {
		rm.tracer.End(comp.span)
	}
}

// ReplaceNode swaps a lease's failed board for a fresh one ("Failing
// nodes are removed from the pool with replacements quickly added").
func (rm *ResourceManager) ReplaceNode(leaseID int, image string) (NodeID, error) {
	comp, ok := rm.leases[leaseID]
	if !ok {
		return 0, fmt.Errorf("haas: unknown lease %d", leaseID)
	}
	repl, ok := rm.freeNode()
	if !ok {
		return 0, fmt.Errorf("haas: no spare FPGAs")
	}
	rm.nodes[comp.Node].lease = nil
	rm.grant(comp, repl, image)
	rm.Replaced.Inc()
	if rm.tracer != nil {
		rm.tracer.Event(obs.LeaseFlow(uint64(leaseID)), "haas.replace", comp.span, int64(repl))
	}
	return repl, nil
}

// pollHealth marks dead nodes and notifies lessees (in node order, so
// multi-failure handling is deterministic).
func (rm *ResourceManager) pollHealth() {
	ids := make([]NodeID, 0, len(rm.nodes))
	for id := range rm.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := rm.nodes[id]
		if e.state == NodeDead || e.fm.Healthy == nil || e.fm.Healthy() {
			continue
		}
		e.state = NodeDead
		rm.Failures.Inc()
		if e.slots != nil {
			rm.failSlottedNode(e)
		}
		if rm.tracer != nil {
			var parent obs.SpanID
			var flow obs.FlowID
			if e.lease != nil {
				parent, flow = e.lease.span, obs.LeaseFlow(uint64(e.lease.LeaseID))
			}
			rm.tracer.Event(flow, "haas.node_dead", parent, int64(e.id))
		}
		if e.lease != nil && e.lease.onFailure != nil {
			e.lease.onFailure(e.id)
		}
	}
}
