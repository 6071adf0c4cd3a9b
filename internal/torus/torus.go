// Package torus models the Catapult v1 secondary network the paper
// compares against (§I, §V-C, [4]): a rack-scale 6x8 torus of 48 FPGAs
// connected by a dedicated cable fabric, with dimension-order routing and
// fault rerouting. Its properties motivate the Configurable Cloud: nearest
// neighbors see ~1 µs round trips, the worst-case path costs ~7 µs, scale
// is capped at one rack, and node failures degrade (or isolate) their
// neighbors.
package torus

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config parameterizes a torus fabric.
type Config struct {
	// Width and Height of the grid (Catapult v1: 6x8).
	Width, Height int
}

// The Catapult v1 link and router timing.
const (
	// hopLatency is the one-way per-hop cost (router traversal + SL3
	// cable), calibrated so a 1-hop round trip is ~1 µs.
	hopLatency = 440 * sim.Nanosecond
	// nodeProc is the per-endpoint processing cost per traversal.
	nodeProc = 55 * sim.Nanosecond
	// linkRateBps is the inter-FPGA link rate for serialization time
	// (4 lanes x ~5 Gb/s effective per direction).
	linkRateBps = 20e9
)

// DefaultConfig returns the Catapult v1 parameters.
func DefaultConfig() Config {
	return Config{Width: 6, Height: 8}
}

// Stats aggregates torus counters.
type Stats struct {
	Messages  metrics.Counter
	Reroutes  metrics.Counter // messages forced off the DOR path by faults
	Isolated  metrics.Counter // sends that found no live path
	HopsTotal metrics.Counter
}

// Torus is a W x H wraparound grid of FPGA nodes.
type Torus struct {
	cfg   Config
	sim   *sim.Simulation
	alive []bool

	Stats Stats
}

// New builds a fully healthy torus.
func New(s *sim.Simulation, cfg Config) *Torus {
	if cfg.Width <= 1 || cfg.Height <= 1 {
		panic("torus: dimensions must be > 1")
	}
	alive := make([]bool, cfg.Width*cfg.Height)
	for i := range alive {
		alive[i] = true
	}
	return &Torus{cfg: cfg, sim: s, alive: alive}
}

// Nodes returns the node count (the scale cap the paper criticizes: 48).
func (t *Torus) Nodes() int { return t.cfg.Width * t.cfg.Height }

// Coord maps a node index to (x, y).
func (t *Torus) Coord(n int) (x, y int) { return n % t.cfg.Width, n / t.cfg.Width }

// Node maps (x, y) to an index (coordinates wrap).
func (t *Torus) Node(x, y int) int {
	x = ((x % t.cfg.Width) + t.cfg.Width) % t.cfg.Width
	y = ((y % t.cfg.Height) + t.cfg.Height) % t.cfg.Height
	return y*t.cfg.Width + x
}

// Fail marks a node dead. Dead nodes forward nothing: traffic must route
// around them, and their former neighbors lose path diversity — the
// resilience weakness the bump-in-the-wire design removes.
func (t *Torus) Fail(n int) { t.alive[n] = false }

// Repair brings a node back.
func (t *Torus) Repair(n int) { t.alive[n] = true }

// Alive reports node liveness.
func (t *Torus) Alive(n int) bool { return t.alive[n] }

// torusDist is the wraparound distance along one dimension.
func torusDist(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if size-d < d {
		d = size - d
	}
	return d
}

// HopDistance is the fault-free dimension-order hop count between nodes.
func (t *Torus) HopDistance(a, b int) int {
	ax, ay := t.Coord(a)
	bx, by := t.Coord(b)
	return torusDist(ax, bx, t.cfg.Width) + torusDist(ay, by, t.cfg.Height)
}

// MaxHops is the network diameter (7 for 6x8: 3 + 4).
func (t *Torus) MaxHops() int {
	return t.cfg.Width/2 + t.cfg.Height/2
}

// neighbors lists the four torus neighbors of n.
func (t *Torus) neighbors(n int) [4]int {
	x, y := t.Coord(n)
	return [4]int{
		t.Node(x+1, y), t.Node(x-1, y), t.Node(x, y+1), t.Node(x, y-1),
	}
}

// Route returns the hop path from a to b. On a healthy torus it is the
// dimension-order (X then Y) path; with failures it falls back to a BFS
// detour over live nodes ("complex re-routing of traffic to neighboring
// nodes"). ok is false when b is unreachable (isolation under certain
// failure patterns).
func (t *Torus) Route(a, b int) (path []int, rerouted, ok bool) {
	if !t.alive[a] || !t.alive[b] {
		return nil, false, false
	}
	if a == b {
		return []int{a}, false, true
	}
	// Try dimension-order first.
	if p, ok := t.dorPath(a, b); ok {
		return p, false, true
	}
	p := t.bfsPath(a, b)
	if p == nil {
		return nil, true, false
	}
	return p, true, true
}

// dorPath walks X then Y, failing if any intermediate node is dead.
func (t *Torus) dorPath(a, b int) ([]int, bool) {
	path := []int{a}
	x, y := t.Coord(a)
	bx, by := t.Coord(b)
	stepToward := func(cur, target, size int) int {
		fwd := ((target - cur) + size) % size
		bwd := ((cur - target) + size) % size
		if fwd <= bwd {
			return cur + 1
		}
		return cur - 1
	}
	for x != bx {
		x = ((stepToward(x, bx, t.cfg.Width) % t.cfg.Width) + t.cfg.Width) % t.cfg.Width
		n := t.Node(x, y)
		if !t.alive[n] {
			return nil, false
		}
		path = append(path, n)
	}
	for y != by {
		y = ((stepToward(y, by, t.cfg.Height) % t.cfg.Height) + t.cfg.Height) % t.cfg.Height
		n := t.Node(x, y)
		if !t.alive[n] {
			return nil, false
		}
		path = append(path, n)
	}
	return path, true
}

// bfsPath finds a shortest live detour.
func (t *Torus) bfsPath(a, b int) []int {
	prev := make([]int, t.Nodes())
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == b {
			var path []int
			for c := b; c != a; c = prev[c] {
				path = append([]int{c}, path...)
			}
			return append([]int{a}, path...)
		}
		for _, nb := range t.neighbors(n) {
			if t.alive[nb] && prev[nb] == -1 {
				prev[nb] = n
				queue = append(queue, nb)
			}
		}
	}
	return nil
}

// RTT computes the round-trip time for a message of size bytes from a to
// b and back (request + ack), including per-hop latency, per-hop
// serialization, and endpoint processing. ok is false if no live path
// exists.
func (t *Torus) RTT(a, b int, size int) (rtt sim.Time, hops int, ok bool) {
	path, _, ok := t.Route(a, b)
	if !ok {
		return 0, 0, false
	}
	hops = len(path) - 1
	ser := sim.Time(int64(size) * 8 * int64(sim.Second) / linkRateBps)
	ackSer := sim.Time(int64(32) * 8 * int64(sim.Second) / linkRateBps)
	oneWay := func(perHopSer sim.Time) sim.Time {
		return nodeProc*2 + sim.Time(hops)*(hopLatency+perHopSer)
	}
	return oneWay(ser) + oneWay(ackSer), hops, true
}

// SendMessage models an event-driven transfer: done fires after the RTT.
// It returns false (and counts an isolation) when no live route exists.
func (t *Torus) SendMessage(a, b, size int, done func(rtt sim.Time, hops int)) bool {
	rtt, hops, ok := t.RTT(a, b, size)
	if !ok {
		t.Stats.Isolated.Inc()
		return false
	}
	t.Stats.Messages.Inc()
	t.Stats.HopsTotal.Add(uint64(hops))
	if _, rerouted, _ := t.Route(a, b); rerouted {
		t.Stats.Reroutes.Inc()
	}
	t.sim.Schedule(rtt, func() { done(rtt, hops) })
	return true
}

// String describes the fabric.
func (t *Torus) String() string {
	live := 0
	for _, a := range t.alive {
		if a {
			live++
		}
	}
	return fmt.Sprintf("torus %dx%d (%d/%d live)", t.cfg.Width, t.cfg.Height, live, t.Nodes())
}
