package svclb

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Slot is one routable backend in a Router's view. A slot is created when
// an FPGA joins the service (lease grant, autoscale grow, or failure
// replacement) and retired when it leaves; Index is monotonic across the
// balancer's lifetime, so a replacement never aliases its predecessor.
type Slot struct {
	// Index is the stable slot id (assigned at AddSlot, never reused).
	Index int
	// Host is the backend's datacenter host id.
	Host int
	// Outstanding counts requests this balancer routed to the slot that
	// have not yet been answered, cancelled, or failed over — the
	// balancer's own (exact, but local-knowledge-only) load signal.
	Outstanding int
	// GossipDepth is the backend's last gossiped queue depth — global
	// knowledge, but stale by the gossip period plus the network.
	GossipDepth int
	// GossipAt is when GossipDepth was received.
	GossipAt sim.Time

	live bool
}

// Live reports whether the slot is currently routable.
func (sl *Slot) Live() bool { return sl.live }

// Policy picks a backend for one request. Implementations see only the
// live slots and may consult nothing beyond the View's load signals —
// that restriction is what makes the measured policy gaps honest.
type Policy interface {
	Name() string
	// pick returns the chosen slot. live is non-empty and ordered by
	// slot index; rr is the router's round-robin cursor.
	pick(live []*Slot, rng *rand.Rand, rr *int) *Slot
}

// Policy names accepted by NewRouter (and the experiment -lb flags).
const (
	PolicyRandom     = "random"
	PolicyRoundRobin = "rr"
	PolicyJSQ        = "jsq"
	PolicyP2C        = "p2c"
)

// PolicyNames lists the built-in routing policies.
func PolicyNames() []string {
	return []string{PolicyRandom, PolicyRoundRobin, PolicyJSQ, PolicyP2C}
}

// NewPolicy returns the named policy.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case PolicyRandom:
		return randomPolicy{}, nil
	case PolicyRoundRobin:
		return rrPolicy{}, nil
	case PolicyJSQ:
		return jsqPolicy{}, nil
	case PolicyP2C:
		return p2cPolicy{}, nil
	default:
		return nil, fmt.Errorf("svclb: unknown policy %q (have %v)", name, PolicyNames())
	}
}

// randomPolicy dispatches uniformly at random — the naive baseline whose
// queue-length variance produces the Fig. 12 tail.
type randomPolicy struct{}

func (randomPolicy) Name() string { return PolicyRandom }
func (randomPolicy) pick(live []*Slot, rng *rand.Rand, _ *int) *Slot {
	return live[rng.Intn(len(live))]
}

// rrPolicy dispatches round-robin — even request counts, blind to
// in-service residence times.
type rrPolicy struct{}

func (rrPolicy) Name() string { return PolicyRoundRobin }
func (rrPolicy) pick(live []*Slot, _ *rand.Rand, rr *int) *Slot {
	sl := live[*rr%len(live)]
	*rr++
	return sl
}

// jsqPolicy joins the shortest queue as measured by the balancer's own
// outstanding counts — exact for a single balancer, but blind to load the
// balancer did not route (and O(n) per decision).
type jsqPolicy struct{}

func (jsqPolicy) Name() string { return PolicyJSQ }
func (jsqPolicy) pick(live []*Slot, _ *rand.Rand, _ *int) *Slot {
	best := live[0]
	for _, sl := range live[1:] {
		if sl.Outstanding < best.Outstanding {
			best = sl
		}
	}
	return best
}

// p2cPolicy is power-of-two-choices over the gossiped depth view: sample
// two distinct slots, route to the one whose estimated queue (stale
// gossiped depth corrected by the balancer's own in-flight count since
// that gossip) is shorter. Two samples collapse almost all of random
// dispatch's queue variance while tolerating stale global state.
type p2cPolicy struct{}

func (p2cPolicy) Name() string { return PolicyP2C }
func (p2cPolicy) pick(live []*Slot, rng *rand.Rand, _ *int) *Slot {
	a := live[rng.Intn(len(live))]
	if len(live) == 1 {
		return a
	}
	b := live[rng.Intn(len(live)-1)]
	if b == a || b.Index >= a.Index && live[len(live)-1] != b {
		// Re-index the second draw past the first to keep the two samples
		// distinct without rejection loops (deterministic draw count).
	}
	// Distinct second sample: draw from the slice with a removed.
	idx := rng.Intn(len(live) - 1)
	b = live[idx]
	if b == a {
		b = live[len(live)-1]
	}
	if estDepth(b) < estDepth(a) {
		return b
	}
	return a
}

// estDepth estimates a slot's queue depth from the last gossip plus the
// requests this balancer has routed at it since that gossip arrived.
func estDepth(sl *Slot) int {
	d := sl.GossipDepth
	if d < sl.Outstanding {
		d = sl.Outstanding
	}
	return d
}

// Router is the embeddable routing core: a policy, its view of the
// backend set, and deterministic bookkeeping. The full Balancer drives a
// packet-level pool through it; experiments with their own data planes
// (dnnpool, ranking) embed it directly to replace static assignment.
type Router struct {
	rng    *rand.Rand
	policy Policy

	slots  []*Slot // every slot ever created, by Index
	byHost map[int]*Slot
	live   []*Slot // routable slots, ordered by Index
	rr     int

	routes uint64
	hash   uint64 // FNV-1a over (request count, chosen slot index) pairs
}

// NewRouter builds a router using the given deterministic random stream
// (derive it from the simulation: sim.NewRand()).
func NewRouter(rng *rand.Rand, policy string) (*Router, error) {
	p, err := NewPolicy(policy)
	if err != nil {
		return nil, err
	}
	return &Router{rng: rng, policy: p, byHost: make(map[int]*Slot), hash: obs.FNVOffset}, nil
}

// Policy returns the router's policy name.
func (r *Router) Policy() string { return r.policy.Name() }

// AddSlot registers a live backend on host and returns its slot.
func (r *Router) AddSlot(host int) *Slot {
	sl := &Slot{Index: len(r.slots), Host: host, live: true}
	r.slots = append(r.slots, sl)
	if old := r.byHost[host]; old != nil {
		old.live = false
		r.rebuildLive()
	}
	r.byHost[host] = sl
	r.live = append(r.live, sl)
	return sl
}

// RemoveSlot retires a backend (death or drain); pending traffic the
// caller routed there is the caller's to reconcile.
func (r *Router) RemoveSlot(sl *Slot) {
	if !sl.live {
		return
	}
	sl.live = false
	if r.byHost[sl.Host] == sl {
		delete(r.byHost, sl.Host)
	}
	r.rebuildLive()
}

func (r *Router) rebuildLive() {
	r.live = r.live[:0]
	for _, sl := range r.slots {
		if sl.live {
			r.live = append(r.live, sl)
		}
	}
	sort.Slice(r.live, func(i, j int) bool { return r.live[i].Index < r.live[j].Index })
}

// Live returns the routable slots in index order (shared slice; do not
// mutate).
func (r *Router) Live() []*Slot { return r.live }

// SlotOnHost returns the live slot on host (nil if none).
func (r *Router) SlotOnHost(host int) *Slot {
	sl := r.byHost[host]
	if sl != nil && sl.live {
		return sl
	}
	return nil
}

// Pick routes one request: the policy chooses a live slot, the slot's
// outstanding count is incremented, and the decision is folded into the
// route hash. ok=false when no backend is live.
func (r *Router) Pick() (*Slot, bool) { return r.pickFrom(r.live) }

// PickExcluding routes one request avoiding ex (for hedges and failover
// re-routes); falls back to ex-inclusive picking only if ex is the sole
// live backend... it is not: with one live backend it returns ok=false,
// since a hedge to the same queue buys nothing.
func (r *Router) PickExcluding(ex *Slot) (*Slot, bool) {
	if len(r.live) == 0 || (len(r.live) == 1 && r.live[0] == ex) {
		return nil, false
	}
	if ex == nil || !ex.live {
		return r.pickFrom(r.live)
	}
	rest := make([]*Slot, 0, len(r.live)-1)
	for _, sl := range r.live {
		if sl != ex {
			rest = append(rest, sl)
		}
	}
	return r.pickFrom(rest)
}

func (r *Router) pickFrom(live []*Slot) (*Slot, bool) {
	if len(live) == 0 {
		return nil, false
	}
	sl := r.policy.pick(live, r.rng, &r.rr)
	sl.Outstanding++
	r.routes++
	r.hash = obs.FNVFold(r.hash, r.routes, uint64(sl.Index))
	return sl, true
}

// Done releases one outstanding unit on sl (response consumed, copy
// cancelled, or copy failed over).
func (r *Router) Done(sl *Slot) {
	if sl.Outstanding > 0 {
		sl.Outstanding--
	}
}

// ReportDepth feeds one gossiped depth observation for the backend on
// host. Unknown or retired hosts are ignored (gossip from a drained
// backend races its removal; staleness is the protocol's contract).
func (r *Router) ReportDepth(host, depth int, at sim.Time) {
	if sl := r.byHost[host]; sl != nil {
		sl.GossipDepth = depth
		sl.GossipAt = at
	}
}

// Routes reports how many requests have been routed.
func (r *Router) Routes() uint64 { return r.routes }

// RouteHash returns an FNV-1a digest of every routing decision so far —
// the determinism witness: same seed, same policy, same digest.
func (r *Router) RouteHash() uint64 { return r.hash }
