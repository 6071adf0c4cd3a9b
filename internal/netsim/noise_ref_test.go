package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// The per-port noise process must be indistinguishable from the eager
// reference (eager_test.go) on every real frame: each test below runs one
// script of a background load and real operations on one switch port both
// ways and compares everything the port and its peer expose.

// rigLoad is the background load of a script.
type rigLoad struct {
	seed     uint64
	util     float64
	class    pkt.TrafficClass
	meanSize int
	start    sim.Time
}

type rigOpKind uint8

const (
	opStart rigOpKind = iota // start the load
	opData                   // enqueue a real frame of class and arg bytes
	opCtrl                   // enqueue a PFC frame
	opPause                  // pause class for d (0 resumes)
	opHook                   // install (arg 1) or remove (arg 0) the fault hook
	opRead                   // read every counter and queue
	opWire                   // cut (arg 0) or restore (arg 1) the link
)

type rigOp struct {
	at    sim.Time
	kind  rigOpKind
	class pkt.TrafficClass
	arg   int
	d     sim.Time
}

type rigScript struct {
	load     rigLoad
	ops      []rigOp // in time order; the start comes first at its instant
	hookSeed int64
	horizon  sim.Time
	// telemetry runs the port with observability on: real frames carry a
	// flow, and every read also takes a registry snapshot.
	telemetry bool
	// ecnFloor sets the port's ECN threshold below an empty queue, so
	// every frame, the first of a busy period too, takes an ECN draw.
	ecnFloor bool
}

// rigPortConfig is a 40G port with small queues and low RED and ECN
// thresholds, so modest overloads reach every one of them.
func rigPortConfig() PortConfig {
	c := DefaultPortConfig()
	c.QueueBytes = 48 << 10
	c.RED = REDConfig{MinBytes: 8 << 10, MaxBytes: 32 << 10, PMax: 0.3}
	c.ECN = ECNConfig{KMinBytes: 4 << 10, KMaxBytes: 16 << 10, PMax: 0.3}
	return c
}

// proc is the load's process on a port of rate bps.
func (l rigLoad) proc(bps int64) noiseProc {
	gap := noiseWireMean(l.class, l.meanSize) * 8 * float64(sim.Second) / (float64(bps) * l.util)
	return newNoiseProc(l.seed, gap, l.class, l.meanSize, l.start)
}

// rigSink is the port's peer device: it logs every frame that reaches it.
// A PFC frame ends at the peer port before any device sees it, so runRig
// logs those arrivals here too.
type rigSink struct {
	s   *sim.Simulation
	log []string
}

func (k *rigSink) DeviceName() string { return "sink" }
func (k *rigSink) HandleFrame(_ *Port, packet *Packet) {
	f := packet.F
	k.logf("ipid=%d class=%d ecn=%d len=%d", f.IPID, f.Class(), f.ECN, f.WireLen())
	packet.Free()
}

func (k *rigSink) logf(format string, args ...any) {
	k.log = append(k.log, fmt.Sprintf("%9d ", k.s.Now())+fmt.Sprintf(format, args...))
}

// config is the script's port configuration.
func (sc rigScript) config() PortConfig {
	c := rigPortConfig()
	if sc.ecnFloor {
		c.ECN.KMinBytes = -1
	}
	return c
}

// runRig runs sc with the per-port process (lazy) or with the eager
// reference and returns everything observed, one fact per line.
func runRig(sc rigScript, lazy bool) []string {
	s := sim.New(1)
	if sc.telemetry {
		obs.Enable(s)
	}
	cfg := sc.config()
	sw := NewSwitch(s, SwitchConfig{Name: "sw", Radix: 1, Port: cfg})
	k := &rigSink{s: s}
	port, peer := sw.Port(0), NewPort(s, k, 0, cfg)
	Wire(port, peer)
	var out []string
	logf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	hookRNG := rand.New(rand.NewSource(sc.hookSeed))
	hook := func(_ *Port, packet *Packet) FaultDecision {
		r := hookRNG.Float64()
		var d FaultDecision
		switch {
		case r < 0.1:
			d.Op = FaultDrop
		case r < 0.18:
			d = FaultDecision{Op: FaultDuplicate, Delay: sim.Time(hookRNG.Intn(200))}
		case r < 0.22:
			d = FaultDecision{Op: FaultCorrupt, Corrupt: func(buf []byte) { buf[20] ^= 0xff }}
		case r < 0.25:
			d = FaultDecision{Op: FaultCorrupt, Corrupt: func(buf []byte) { buf[len(buf)-1] ^= 0xff }}
		case r < 0.3:
			d = FaultDecision{Op: FaultDelay, Delay: sim.Time(1 + hookRNG.Intn(500))}
		}
		logf("hook %d noise=%v class=%d len=%d ecn=%d op=%d", s.Now(), packet.noise, packet.Class(),
			packet.WireLen(), packet.F.ECN, d.Op)
		return d
	}
	read := func(tag string) {
		st := port.Stats()
		h := st.QueueDelay
		logf("%s %d tx=%d/%d red=%d tail=%d ecn=%d depth=%d/%d delay=%d/%.3f/%d/%d faults=%d/%d/%d/%d injected=%d",
			tag, s.Now(), st.TxFrames.Value(), st.TxBytes.Value(), st.DropsRED.Value(), st.DropsTail.Value(),
			st.ECNMarks.Value(), st.QueueDepth.Value(), st.QueueDepth.Watermark(),
			h.Count(), h.Mean(), h.Percentile(99), h.Max(),
			st.DropsInjected.Value(), st.DupsInjected.Value(), st.CorruptInjected.Value(), st.DelayedInjected.Value(),
			sw.Stats().Injected.Value())
		var q []string
		for c := pkt.TrafficClass(0); c < pkt.NumClasses; c++ {
			q = append(q, fmt.Sprint(port.QueuedBytes(c)))
		}
		ps := peer.Stats()
		logf("%s peer rx=%d ended=%d queued=%s", tag, ps.RxFrames.Value(), ps.NoiseEnded.Value(), strings.Join(q, ","))
		for _, m := range obs.RegistryOf(s).Snapshot() {
			logf("%s obs %+v", tag, m)
		}
	}
	// The registry brings the port's noise up to date before a snapshot,
	// as the datacenter does for its own ports.
	obs.RegistryOf(s).Refresh(port.sync)
	// runTo runs the simulation to at one event at a time and logs each
	// PFC frame at the instant it ends at the peer, with the pause state
	// it leaves on the peer's egress.
	var pfcSeen uint64
	runTo := func(at sim.Time) {
		for next, ok := s.NextEventTime(); ok && next <= at; next, ok = s.NextEventTime() {
			s.Step()
			for ; pfcSeen < peer.stats.PFCRecv.Value(); pfcSeen++ {
				k.logf("pfc paused=%v", peer.pausedUntil)
			}
		}
		s.RunUntil(at)
	}

	if !lazy {
		scheduleEager(s, sw, 0, sc.load.proc(cfg.Link.RateBps), sc.horizon)
	}
	for i, op := range sc.ops {
		runTo(op.at)
		switch op.kind {
		case opStart:
			if lazy {
				port.startNoise(sc.load.proc(cfg.Link.RateBps), &sw.stats.Injected)
			} else {
				obs.RegistryOf(s).Counter("net.noise_ended", "frames", "netsim",
					"background frames ended on the wire into a port", &peer.stats.NoiseEnded)
			}
		case opData:
			n := op.arg - pkt.EthHeaderLen - pkt.IPv4HeaderLen - pkt.UDPHeaderLen - pkt.EthFCSLen
			buf := pkt.EncodeUDP(pkt.MAC{2}, pkt.MAC{3}, pkt.IP{10, 0, 0, 1}, pkt.IP{10, 0, 0, 2}, 7, 7,
				op.class, 64, uint16(i), make([]byte, n))
			packet := NewPacket(buf)
			if sc.telemetry {
				packet.Flow, packet.FlowSeq = obs.FlowID(i+1), uint64(i)
			}
			logf("enqueue %d ipid=%d ok=%v", s.Now(), i, port.Enqueue(packet))
		case opCtrl:
			var f pkt.PFCFrame
			f.Enabled[op.class] = true
			port.EnqueueControl(NewPacket(pkt.EncodePFC(pkt.MAC{2}, f)))
		case opPause:
			port.Pause(op.class, op.d)
		case opHook:
			if op.arg == 1 {
				port.SetFaultHook(hook)
			} else {
				port.SetFaultHook(nil)
			}
		case opRead:
			read("read")
		case opWire:
			if op.arg == 0 {
				Unwire(port)
			} else if port.Peer() == nil {
				Wire(port, peer)
			}
		}
		runTo(op.at)
	}
	runTo(sc.horizon)
	read("final")
	logf("final queue delay %+v", *port.Stats().QueueDelay)
	logf("final port stream %d", port.rand().Int63())
	sort.Strings(k.log)
	out = append(out, k.log...)
	// Span IDs follow the order in which the run opened them, which ties
	// at one instant may reorder; everything else about a span must agree.
	var spans []string
	for _, sp := range obs.TracerOf(s).Spans() {
		spans = append(spans, fmt.Sprintf("span flow=%d %s %d-%d arg=%d", sp.Flow, sp.Name, sp.Start, sp.End, sp.Arg))
	}
	sort.Strings(spans)
	return append(out, spans...)
}

// genScript draws a script from seed: one load on the lossy, LTL or RDMA
// class, sometimes past line rate, that starts at 0 or mid-run, and real
// operations of every kind. Half the operations land exactly on a noise
// arrival, and some share an instant with each other.
func genScript(seed int64) rigScript {
	r := rand.New(rand.NewSource(seed))
	classes := []pkt.TrafficClass{pkt.ClassBestEffort, 1, pkt.ClassLTL, pkt.ClassRDMA}
	sc := rigScript{hookSeed: r.Int63(), horizon: sim.Time(50+r.Intn(150)) * sim.Microsecond, telemetry: seed%2 == 0}
	sc.load = rigLoad{
		seed:     r.Uint64(),
		util:     0.2 + 1.4*r.Float64(),
		class:    classes[r.Intn(len(classes))],
		meanSize: 64 + r.Intn(1500),
	}
	if r.Intn(2) == 0 {
		sc.load.start = sim.Time(r.Int63n(int64(sc.horizon)))
	}
	ops := []rigOp{{at: sc.load.start, kind: opStart}}
	var arrivals []sim.Time
	pr := sc.load.proc(rigPortConfig().Link.RateBps)
	for j := 0; j < 200 && pr.next < sc.horizon; j++ {
		arrivals = append(arrivals, pr.next)
		pr.drawSize()
		pr.next += pr.drawGap()
	}
	for i, n := 0, 20+r.Intn(280); i < n; i++ {
		op := rigOp{at: sim.Time(r.Int63n(int64(sc.horizon))), class: classes[r.Intn(len(classes))]}
		switch {
		case r.Intn(2) == 0 && len(arrivals) > 0:
			op.at = arrivals[r.Intn(len(arrivals))]
		case r.Intn(4) == 0 && len(ops) > 0:
			op.at = ops[r.Intn(len(ops))].at
		}
		switch x := r.Intn(20); {
		case x < 10:
			op.kind, op.arg = opData, 64+r.Intn(pkt.MaxMTU-63)
		case x < 12:
			op.kind = opCtrl
		case x < 15:
			op.kind = opPause
			if r.Intn(4) > 0 {
				op.d = sim.Time(1 + r.Intn(20000))
			}
		case x < 17:
			op.kind, op.arg = opHook, r.Intn(2)
		default:
			op.kind = opRead
		}
		ops = append(ops, op)
	}
	sc.ops = sortOps(ops)
	return sc
}

// sortOps puts ops in time order, the load's start first at its instant.
func sortOps(ops []rigOp) []rigOp {
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].at != ops[j].at {
			return ops[i].at < ops[j].at
		}
		return ops[i].kind == opStart && ops[j].kind != opStart
	})
	return ops
}

// genQuietScript draws a low-load script from seed: a load of 1–10% of
// line rate, a horizon of up to 4 ms and at most ten operations, so
// that one advance runs through hundreds of noise frames that find the
// port holding nothing but its own noise. Operations land on a noise
// arrival, on the instant a noise frame that started at its arrival ends
// on the wire, or anywhere; besides genScript's kinds they cut the link,
// and each cut brings a frame queued while it is down and a restore. A
// quarter of the scripts set the ECN floor.
func genQuietScript(seed int64) rigScript {
	r := rand.New(rand.NewSource(seed))
	classes := []pkt.TrafficClass{pkt.ClassBestEffort, 1, pkt.ClassLTL, pkt.ClassRDMA}
	sc := rigScript{
		hookSeed:  r.Int63(),
		horizon:   sim.Time(200+r.Intn(3800)) * sim.Microsecond,
		telemetry: seed%2 == 1,
		ecnFloor:  r.Intn(4) == 0,
	}
	sc.load = rigLoad{
		seed:     r.Uint64(),
		util:     0.01 + 0.09*r.Float64(),
		class:    classes[r.Intn(len(classes))],
		meanSize: 64 + r.Intn(1500),
	}
	if r.Intn(4) == 0 {
		sc.load.start = sim.Time(r.Int63n(int64(sc.horizon)))
	}
	ops := []rigOp{{at: sc.load.start, kind: opStart}}
	arrivals, ends := noiseInstants(sc)
	for i, n := 0, 1+r.Intn(10); i < n; i++ {
		op := rigOp{at: sim.Time(r.Int63n(int64(sc.horizon))), class: classes[r.Intn(len(classes))]}
		switch x := r.Intn(3); {
		case x == 0 && len(arrivals) > 0:
			op.at = arrivals[r.Intn(len(arrivals))]
		case x == 1 && len(ends) > 0:
			op.at = ends[r.Intn(len(ends))]
		}
		switch x := r.Intn(20); {
		case x < 6:
			op.kind, op.arg = opData, 64+r.Intn(pkt.MaxMTU-63)
		case x < 8:
			op.kind = opCtrl
		case x < 11:
			op.kind, op.d = opPause, sim.Time(1+r.Intn(50000))
			if r.Intn(2) == 0 {
				op.class = sc.load.class
			}
		case x < 12:
			op.kind, op.arg = opHook, r.Intn(2)
		case x < 17:
			// A load starts only on a wired port, as in a datacenter.
			op.kind, op.arg, op.at = opWire, r.Intn(2), max(op.at, sc.load.start)
		default:
			op.kind = opRead
		}
		ops = append(ops, op)
		if op.kind == opWire && op.arg == 0 {
			// While the link is down, a frame queues; the link comes back
			// before the next arrival or later.
			q := rigOp{at: min(sc.horizon, op.at+sim.Time(r.Intn(20000))), kind: opCtrl, class: op.class}
			if r.Intn(2) == 0 {
				q.kind, q.arg = opData, 64+r.Intn(pkt.MaxMTU-63)
			}
			ops = append(ops, q, rigOp{at: min(sc.horizon, q.at+sim.Time(r.Intn(20000))), kind: opWire, arg: 1})
		}
	}
	sc.ops = sortOps(ops)
	return sc
}

// noiseInstants returns the arrivals of sc's load before its horizon and
// the instants before it at which each of those frames would end on the
// wire if it started at its arrival.
func noiseInstants(sc rigScript) (arrivals, ends []sim.Time) {
	link := sc.config().Link
	for pr := sc.load.proc(link.RateBps); pr.next < sc.horizon; {
		at := pr.next
		w := noiseWireLen(pr.class, pr.drawSize())
		pr.next += pr.drawGap()
		arrivals = append(arrivals, at)
		if end := at + link.SerializationTime(w); end < sc.horizon {
			ends = append(ends, end)
		}
	}
	return arrivals, ends
}

// compareRig runs sc both ways, reports the first line that differs and
// returns the lazy run's lines.
func compareRig(t *testing.T, sc rigScript) (lines []string) {
	t.Helper()
	lazy, eager := runRig(sc, true), runRig(sc, false)
	for i := 0; i < len(lazy) && i < len(eager); i++ {
		if lazy[i] != eager[i] {
			t.Fatalf("line %d differs:\nlazy  %s\neager %s", i, lazy[i], eager[i])
		}
	}
	if len(lazy) != len(eager) {
		t.Fatalf("lazy observed %d facts, eager %d", len(lazy), len(eager))
	}
	return lazy
}

// pfcArrivals counts the PFC frames that ended at the peer in a run's lines.
func pfcArrivals(lines []string) int {
	n := 0
	for _, l := range lines {
		if strings.Contains(l, " pfc paused=") {
			n++
		}
	}
	return n
}

// TestNoiseMatchesEager runs seeded scripts through both paths, and
// checks that together they reached a load started mid-run, RED drops,
// ECN marks, tail drops, PFC pauses, PFC frames at the peer, hooked
// noise and equal-time ties between noise arrivals and real operations.
func TestNoiseMatchesEager(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	var midRun, red, ecn, tail, pauses, pfcs, hooked, ties uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := genScript(seed)
		lines := compareRig(t, sc)
		if sc.load.start > 0 {
			midRun++
		}
		pfcs += uint64(pfcArrivals(lines))
		var f [5]uint64
		for _, l := range lines {
			if strings.HasPrefix(l, "final ") && strings.Contains(l, " tx=") {
				fmt.Sscanf(l[strings.Index(l, "red="):], "red=%d tail=%d ecn=%d", &f[0], &f[1], &f[2])
			}
			if strings.HasPrefix(l, "hook ") && strings.Contains(l, "noise=true") {
				f[3]++
			}
		}
		red, tail, ecn, hooked = red+f[0], tail+f[1], ecn+f[2], hooked+f[3]
		arrive := map[sim.Time]bool{}
		for pr := sc.load.proc(rigPortConfig().Link.RateBps); pr.next < sc.horizon; {
			arrive[pr.next] = true
			pr.drawSize()
			pr.next += pr.drawGap()
		}
		for _, op := range sc.ops {
			if op.kind == opPause && op.d > 0 {
				pauses++
			}
			if op.kind != opStart && arrive[op.at] {
				ties++
			}
		}
	}
	t.Logf("mid-run=%d red=%d tail=%d ecn=%d pauses=%d pfc-frames=%d hooked-noise=%d ties=%d",
		midRun, red, tail, ecn, pauses, pfcs, hooked, ties)
	if midRun == 0 || red == 0 || tail == 0 || ecn == 0 || pauses == 0 || pfcs == 0 || hooked == 0 || ties == 0 {
		t.Fatal("the scripts did not reach every case")
	}

	// The low-load scripts: each advance runs long stretches of noise
	// that finds the port holding nothing else.
	var longest, endTies, noisePauses, floors, cuts, quietPFCs int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sc := genQuietScript(seed)
		quietPFCs += pfcArrivals(compareRig(t, sc))
		arrivals, ends := noiseInstants(sc)
		isEnd := map[sim.Time]bool{}
		for _, e := range ends {
			isEnd[e] = true
		}
		last, n := sim.Time(-1), 0
		for _, op := range sc.ops {
			if op.kind == opStart {
				continue
			}
			if isEnd[op.at] {
				endTies++
			}
			if op.kind == opPause && op.class == sc.load.class {
				noisePauses++
			}
			if op.kind == opWire && op.arg == 0 {
				cuts++
			}
			n = 0
			for _, at := range arrivals {
				if at > last && at < op.at {
					n++
				}
			}
			longest, last = max(longest, n), op.at
		}
		if sc.ecnFloor {
			floors++
		}
	}
	t.Logf("low load: longest run between operations=%d end-ties=%d noise-class pauses=%d ecn floors=%d cuts=%d pfc-frames=%d",
		longest, endTies, noisePauses, floors, cuts, quietPFCs)
	if longest < 100 || endTies == 0 || noisePauses == 0 || floors == 0 || cuts == 0 || quietPFCs == 0 {
		t.Fatal("the low-load scripts did not reach every case")
	}
}

// FuzzNoiseMatchesEager checks the lazy path against the eager reference
// on scripts of both shapes drawn from arbitrary seeds.
func FuzzNoiseMatchesEager(f *testing.F) {
	// 1000 draws a script in which a pick inside the advance finds a
	// pause that has expired since, the case that once scheduled the PFC
	// retry at a negative delay. 1099511627724 draws a low-load script in
	// which a PFC frame queues while the link is down and the load's class
	// is paused, the case that once started it at a past instant.
	for _, seed := range []int64{0, 7, 42, 1 << 40, 1000, 1099511627724} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compareRig(t, genScript(seed))
		compareRig(t, genQuietScript(seed))
	})
}
