// Package faultinject is a seeded, deterministic fault-injection layer
// for the Configurable Cloud simulator. It turns the failure classes of
// the §II-B deployment study into live events inside a running
// experiment: frames dropped, duplicated, corrupted, delayed (and thereby
// reordered) on any netsim link; FPGAs hard-killed and rebooted; TOR
// links flapped; roles wedged until the configuration scrubber's next
// pass. Every fault draws from RNG streams derived from the simulation
// seed, so a run under a fault profile replays bit-identically.
//
// The layer exercises the recovery machinery end to end: LTL's NACK
// fast-retransmit and timeout go-back-N paths, ER backpressure behind a
// stalled port, the shell scrubber, and HaaS failover/re-lease. Per-fault
// counters and recovery-latency histograms are exposed through
// internal/metrics.
package faultinject

import (
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pkt"
	"repro/internal/shell"
	"repro/internal/sim"
)

// FaultClass enumerates everything the injector can do.
type FaultClass int

// Fault classes.
const (
	FrameDrop FaultClass = iota
	FrameDup
	FrameCorrupt
	FrameDelay
	NodeKill
	LinkFlap
	RoleWedge
	NumFaultClasses
)

// String names the fault class.
func (c FaultClass) String() string {
	switch c {
	case FrameDrop:
		return "frame-drop"
	case FrameDup:
		return "frame-dup"
	case FrameCorrupt:
		return "frame-corrupt"
	case FrameDelay:
		return "frame-delay"
	case NodeKill:
		return "node-kill"
	case LinkFlap:
		return "link-flap"
	case RoleWedge:
		return "role-wedge"
	default:
		return fmt.Sprintf("fault(%d)", int(c))
	}
}

// LinkFaults configures frame-level faults on one link direction. Rates
// are per-frame probabilities, checked in order drop, dup, corrupt,
// delay (at most one fault per frame).
type LinkFaults struct {
	// Classes restricts faults to the listed traffic classes (nil = all).
	Classes []pkt.TrafficClass

	DropRate    float64
	DupRate     float64
	CorruptRate float64
	// DelayRate delays a frame by ~Delay. Because propagation is modeled
	// per frame, a delayed frame is overtaken by later ones — this is also
	// the injector's reordering mechanism.
	DelayRate float64
	// Delay is the mean extra wire delay for delayed frames and the offset
	// of duplicate copies.
	Delay sim.Time
}

func (lf LinkFaults) active() bool {
	return lf.DropRate > 0 || lf.DupRate > 0 || lf.CorruptRate > 0 || lf.DelayRate > 0
}

// Stats aggregates injector counters: how many faults of each class were
// injected, and how long recovery took where the injector can observe it
// (node-kill → bridge back up, link-flap → rewired, role-wedge → scrub
// repair; tests record transport- and lease-level recoveries via
// RecordRecovery).
type Stats struct {
	Injected [NumFaultClasses]metrics.Counter
	Recovery [NumFaultClasses]*metrics.Histogram
}

// Table renders the fault tally and recovery latencies.
func (st *Stats) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   "Fault injection — injected faults and observed recovery",
		Headers: []string{"fault", "injected", "recoveries", "mean recovery", "p99 recovery"},
	}
	for c := FaultClass(0); c < NumFaultClasses; c++ {
		h := st.Recovery[c]
		mean, p99 := "-", "-"
		if h.Count() > 0 {
			mean = sim.Time(int64(h.Mean())).String()
			p99 = sim.Time(h.Percentile(99)).String()
		}
		t.AddRow(c.String(), st.Injected[c].Value(), h.Count(), mean, p99)
	}
	return t
}

// node is one FPGA under the injector's control.
type node struct {
	id        int
	sh        *shell.Shell
	savedPeer *netsim.Port // TOR-side peer while the link is flapped down
	killed    bool         // kill pending recovery observation
	killedAt  sim.Time
	wedged    bool // wedge pending recovery observation
	wedgedAt  sim.Time
}

// Injector drives faults into a running simulation. All scheduling and
// random draws use streams derived from the simulation seed, so runs are
// reproducible. Not safe for concurrent use (the simulator is
// single-threaded).
type Injector struct {
	sim   *sim.Simulation
	rng   *rand.Rand
	nodes map[int]*node
	order []int   // AddNode order: deterministic iteration
	stop  *bool   // current schedule generation; nil when idle
	prof  Profile // the profile of the current generation

	Stats Stats
}

// New creates an injector on s.
func New(s *sim.Simulation) *Injector {
	in := &Injector{
		sim:   s,
		rng:   s.NewRand(),
		nodes: make(map[int]*node),
	}
	for c := range in.Stats.Recovery {
		in.Stats.Recovery[c] = metrics.NewHistogram()
	}
	return in
}

// RecordRecovery records an externally observed recovery latency (e.g. a
// HaaS re-lease completing after a NodeKill, or an LTL retransmit closing
// the gap after a FrameDrop).
func (in *Injector) RecordRecovery(c FaultClass, d sim.Time) {
	in.Stats.Recovery[c].Observe(int64(d))
}

// AddNode registers an FPGA shell so node-level faults (kill, flap,
// wedge) can target it. Idempotent per host id. Wedge repairs by the
// scrubber are timed via the shell's OnScrubRepair hook (chained with any
// existing hook). While a profile started by Start is running, the new
// node joins it: its fault arrivals and link faults start at once, and
// no other node's schedule is touched.
func (in *Injector) AddNode(hostID int, sh *shell.Shell) {
	if _, ok := in.nodes[hostID]; ok {
		return
	}
	n := &node{id: hostID, sh: sh}
	in.nodes[hostID] = n
	in.order = append(in.order, hostID)
	prev := sh.OnScrubRepair
	sh.OnScrubRepair = func() {
		if n.wedged {
			in.Stats.Recovery[RoleWedge].Observe(int64(in.sim.Now() - n.wedgedAt))
			n.wedged = false
		}
		if prev != nil {
			prev()
		}
	}
	if in.stop != nil && !*in.stop {
		in.startNode(n, in.prof, in.stop)
	}
}

// Node returns the registered shell for hostID (nil when unknown).
func (in *Injector) Node(hostID int) *shell.Shell {
	if n, ok := in.nodes[hostID]; ok {
		return n.sh
	}
	return nil
}

// NodeIDs returns the registered host ids in registration order.
func (in *Injector) NodeIDs() []int { return append([]int(nil), in.order...) }

// NodeAlive reports whether hostID's FPGA is up and bridging.
func (in *Injector) NodeAlive(hostID int) bool {
	n, ok := in.nodes[hostID]
	return ok && !n.sh.Failed() && n.sh.BridgeUp()
}

// ---- frame-level faults ----

// InjectLink installs frame-level faults on port p's egress (replacing
// any previous hook). Faults apply to frames leaving p toward its peer;
// call once per direction to fault a full-duplex link both ways.
func (in *Injector) InjectLink(p *netsim.Port, lf LinkFaults) {
	if !lf.active() {
		p.SetFaultHook(nil)
		return
	}
	var classMask [pkt.NumClasses]bool
	if lf.Classes == nil {
		for i := range classMask {
			classMask[i] = true
		}
	} else {
		for _, c := range lf.Classes {
			classMask[c] = true
		}
	}
	rng := in.sim.NewRand()
	p.SetFaultHook(func(_ *netsim.Port, packet *netsim.Packet) netsim.FaultDecision {
		if !classMask[packet.Class()] {
			return netsim.FaultDecision{}
		}
		r := rng.Float64()
		switch {
		case r < lf.DropRate:
			in.Stats.Injected[FrameDrop].Inc()
			return netsim.FaultDecision{Op: netsim.FaultDrop}
		case r < lf.DropRate+lf.DupRate:
			in.Stats.Injected[FrameDup].Inc()
			return netsim.FaultDecision{Op: netsim.FaultDuplicate, Delay: lf.Delay}
		case r < lf.DropRate+lf.DupRate+lf.CorruptRate:
			in.Stats.Injected[FrameCorrupt].Inc()
			payloadLen := 0
			if packet.F.UDPValid {
				payloadLen = len(packet.F.Payload)
			}
			return netsim.FaultDecision{Op: netsim.FaultCorrupt, Corrupt: func(buf []byte) {
				in.corrupt(rng, buf, payloadLen)
			}}
		case r < lf.DropRate+lf.DupRate+lf.CorruptRate+lf.DelayRate:
			in.Stats.Injected[FrameDelay].Inc()
			d := sim.Time(rng.ExpFloat64() * float64(lf.Delay))
			if d < 1 {
				d = 1
			}
			return netsim.FaultDecision{Op: netsim.FaultDelay, Delay: d}
		}
		return netsim.FaultDecision{}
	})
}

// ClearLink removes the fault hook from p.
func (in *Injector) ClearLink(p *netsim.Port) { p.SetFaultHook(nil) }

// corrupt flips 1-3 bytes. When the frame carried a UDP payload
// (payloadLen > 0, a tail slice of buf) the flips land there — past the
// IPv4 header checksum's coverage, so the frame still parses and the
// garbage reaches the L4 consumer (e.g. LTL's decoder). Otherwise the
// flips land anywhere; header corruption is rejected by the receiving
// MAC and counted as an injected drop by netsim.
func (in *Injector) corrupt(rng *rand.Rand, buf []byte, payloadLen int) {
	lo, hi := 0, len(buf)
	if payloadLen > 0 && payloadLen <= hi {
		lo = hi - payloadLen
	}
	if hi <= lo {
		return
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		buf[lo+rng.Intn(hi-lo)] ^= byte(1 + rng.Intn(255))
	}
}

// ---- node-level faults ----

// KillNode hard-fails hostID's FPGA (bridge down, role gone, no
// auto-recovery). No-op when already failed or unregistered.
func (in *Injector) KillNode(hostID int) {
	n, ok := in.nodes[hostID]
	if !ok || n.sh.Failed() {
		return
	}
	in.Stats.Injected[NodeKill].Inc()
	n.killed = true
	n.killedAt = in.sim.Now()
	n.sh.Fail()
}

// RebootNode repairs a killed FPGA and records kill→bridge-up recovery
// latency once the golden image is back.
func (in *Injector) RebootNode(hostID int) {
	n, ok := in.nodes[hostID]
	if !ok || !n.sh.Failed() {
		return
	}
	n.sh.Repair()
	in.pollNodeUp(n)
}

// pollNodeUp watches for the bridge to return after a repair.
func (in *Injector) pollNodeUp(n *node) {
	in.sim.Schedule(sim.Millisecond, func() {
		switch {
		case n.sh.Failed():
			// killed again before recovery completed; that kill owns the clock
		case !n.sh.BridgeUp():
			in.pollNodeUp(n)
		default:
			if n.killed {
				in.Stats.Recovery[NodeKill].Observe(int64(in.sim.Now() - n.killedAt))
				n.killed = false
			}
		}
	})
}

// FlapLink takes hostID's FPGA↔TOR link down for the given duration, then
// rewires it — the unstable 40G link of §II-B. In-flight frames already
// past serialization still arrive; everything transmitted while down is
// lost on the floor. No-op if the link is already down.
func (in *Injector) FlapLink(hostID int, down sim.Time) {
	n, ok := in.nodes[hostID]
	if !ok || n.savedPeer != nil {
		return
	}
	torSide := n.sh.NetPort().Peer()
	if torSide == nil {
		return
	}
	in.Stats.Injected[LinkFlap].Inc()
	n.savedPeer = torSide
	netsim.Unwire(n.sh.NetPort())
	start := in.sim.Now()
	in.sim.Schedule(down, func() {
		if n.savedPeer == nil {
			return
		}
		if n.sh.NetPort().Peer() == nil && n.savedPeer.Peer() == nil {
			netsim.Wire(n.sh.NetPort(), n.savedPeer)
			in.Stats.Recovery[LinkFlap].Observe(int64(in.sim.Now() - start))
		}
		n.savedPeer = nil
	})
}

// WedgeRole injects an SEU that hangs hostID's role until the scrubber's
// next pass (the paper's observed role hang). Recovery latency is
// recorded when the scrub repairs it.
func (in *Injector) WedgeRole(hostID int) {
	n, ok := in.nodes[hostID]
	if !ok || n.sh.Failed() {
		return
	}
	in.Stats.Injected[RoleWedge].Inc()
	if !n.wedged && n.sh.RoleUp() {
		n.wedged = true // only a running role can actually wedge
		n.wedgedAt = in.sim.Now()
	}
	n.sh.InjectSEU(true)
}

// ---- scheduled fault storms ----

// Start schedules Poisson fault arrivals per registered node according to
// the profile, and installs the profile's frame-level faults on each
// node's TOR link (both directions). Nodes added later join the running
// profile (AddNode). It returns a stop function; Start-ing again
// implicitly stops the previous schedule's arrivals.
func (in *Injector) Start(p Profile) func() {
	if in.stop != nil {
		*in.stop = true
	}
	stopped := false
	in.stop = &stopped
	in.prof = p

	for _, id := range in.order {
		in.startNode(in.nodes[id], p, &stopped)
	}
	return func() {
		stopped = true
		for _, id := range in.order {
			n := in.nodes[id]
			in.ClearLink(n.sh.NetPort())
			if peer := n.sh.NetPort().Peer(); peer != nil {
				in.ClearLink(peer)
			}
		}
	}
}

// startNode installs p's link faults on n's TOR link and schedules n's
// fault arrivals until *stopped.
func (in *Injector) startNode(n *node, p Profile, stopped *bool) {
	id := n.id
	if p.Link.active() {
		in.InjectLink(n.sh.NetPort(), p.Link)
		if peer := n.sh.NetPort().Peer(); peer != nil {
			in.InjectLink(peer, p.Link)
		}
	}
	in.poisson(p.KillRate, stopped, func() {
		in.KillNode(id)
		if p.RepairTime > 0 {
			in.sim.Schedule(p.RepairTime, func() {
				if !*stopped {
					in.RebootNode(id)
				}
			})
		}
	})
	in.poisson(p.FlapRate, stopped, func() { in.FlapLink(id, p.FlapDown) })
	in.poisson(p.WedgeRate, stopped, func() { in.WedgeRole(id) })
	in.poisson(p.SEURate, stopped, func() {
		if !n.sh.Failed() {
			n.sh.InjectSEU(false)
		}
	})
}

// poisson schedules fire at exponential intervals of the given rate
// (events per virtual second) until *stopped.
func (in *Injector) poisson(rate float64, stopped *bool, fire func()) {
	if rate <= 0 {
		return
	}
	delay := func() sim.Time {
		d := sim.Time(in.rng.ExpFloat64() / rate * float64(sim.Second))
		if d < 1 {
			d = 1
		}
		return d
	}
	var next func()
	next = func() {
		if *stopped {
			return
		}
		fire()
		in.sim.Schedule(delay(), next)
	}
	in.sim.Schedule(delay(), next)
}
