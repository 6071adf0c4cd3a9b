// Package netsim is a discrete-event model of the datacenter Ethernet
// fabric the Configurable Cloud rides on: full-duplex links with
// serialization and propagation delay, output-queued switches with
// per-traffic-class queues, lossless classes protected by 802.1Qbb
// Priority Flow Control, RED for lossy classes, ECN marking for DCQCN,
// and the paper's three-tier topology (24 hosts per TOR, 960-host pods,
// an L2 spine connecting hundreds of pods — §V-C).
//
// Devices (switches, hosts, FPGA shells) exchange fully encoded Ethernet
// frames (see internal/pkt); everything a device learns about a frame it
// learns by decoding bytes. Background noise, which no device ever
// receives, is the one frame without bytes (see Packet).
package netsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Device is anything attached to the fabric by one or more ports.
type Device interface {
	// DeviceName identifies the device in traces and errors.
	DeviceName() string
	// HandleFrame is called when a frame fully arrives at local port p,
	// for every frame but a PFC frame, which ends at the port (pfc.go).
	HandleFrame(p *Port, packet *Packet)
}

// Packet is a frame in flight: the encoded bytes plus a parsed view.
//
// Packets from NewPacket, NewPacketCopy and background noise are
// pool-backed: the frame is decoded exactly once, into storage embedded
// in the Packet, and the Packet is recycled via Free at points where it
// provably dies (congestion drops, terminated control frames, routing
// dead ends). NewPacketCopy also writes the bytes into the packet's own
// recycled buffer.
//
// A background noise frame (newNoisePacket) is the exception to "view
// plus bytes": it carries only the parsed view, with Buf empty and a
// Payload that aliases a shared all-zero array. It is queued, marked,
// serialized and faulted like any frame, then ends on the wire: the
// transmitting port counts it received by the peer and recycles it
// without a propagation leg. Only a fault that duplicates or corrupts
// it, or paranoid mode, encodes its bytes (materialize).
//
// Retention rule: a device receiving HandleFrame may retain packet (and
// packet.F, whose Payload aliases packet.Buf) past the call only if it
// does not Free it — hosts keep delivered packets for their deferred UDP
// handlers, and shells hand terminated LTL frames to the protocol engine,
// so neither path recycles. A recycled buffer is rewritten in place, so
// bytes of a freed packet must not be read after Free.
type Packet struct {
	Buf []byte
	F   *pkt.Frame

	// ingress and held are the packet's PFC charge (Port.Hold): a held
	// packet counts in its ingress port's account until it leaves (or is
	// dropped at) an egress queue.
	ingress *Port
	held    bool
	// noise marks a byte-free background frame (newNoisePacket).
	noise bool

	// EnqueuedAt is when the packet last entered an egress queue.
	EnqueuedAt sim.Time

	// Flight state for the allocation-free scheduler path
	// (sim.ScheduleCall): the device that owns the packet's next scheduled
	// hop parks its context here instead of capturing a closure. A packet
	// is referenced by at most one in-flight event at a time — it is
	// either being forwarded, queued, serialized, or propagating — so a
	// single set of fields suffices. NextPort is meaningful only between
	// the scheduling and firing of that one event.
	NextPort *Port // propagation target or forwarding egress

	txPort   *Port            // transmitter serializing this packet
	dispatch func(*pkt.Frame) // deferred host UDP delivery

	// Flow tags the packet for the observability layer (internal/obs):
	// senders that know the logical flow a frame belongs to stamp it here
	// so every hop can attach spans without decoding anything. Zero means
	// untraced — the universal case when tracing is off. FlowSeq carries
	// the sender's frame sequence for span annotation, and hopSpan parks
	// the in-flight hop span between transmit and propagationDone, riding
	// the same flight-state mechanism as NextPort.
	Flow    obs.FlowID
	FlowSeq uint64
	hopSpan obs.SpanID

	frame pkt.Frame // storage F points at for pool-backed packets
	// mem is recycled byte storage for NewPacketCopy and materialize: it
	// survives Free so a pool hit writes into an already-sized buffer
	// with no allocation.
	mem []byte
}

var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// paranoid enables per-hop re-decode verification: every frame arrival
// re-parses the wire bytes and compares them against the cached Frame
// view, panicking on divergence. Tests flip it via SetParanoid; it must
// not be toggled while simulations are running.
var paranoid bool

// SetParanoid turns paranoid per-hop re-decode checking on or off.
func SetParanoid(on bool) { paranoid = on }

// EnqueueCall is a sim.ScheduleCall callback that enqueues the packet on
// its NextPort — the shared closure-free "delayed enqueue" step used by
// switch forwarding pipelines and the shell bridge.
func EnqueueCall(v any) {
	packet := v.(*Packet)
	packet.NextPort.Enqueue(packet)
}

// verifyCached re-decodes packet.Buf and compares against the cached
// view. Called at each frame's arrival when paranoid mode is on.
func verifyCached(packet *Packet) {
	var f pkt.Frame
	if err := pkt.DecodeInto(&f, packet.Buf); err != nil {
		panic(fmt.Sprintf("netsim: paranoid re-decode failed: %v", err))
	}
	if !reflect.DeepEqual(&f, packet.F) {
		panic(fmt.Sprintf("netsim: cached frame view diverged from bytes:\ncached %+v\ndecoded %+v", packet.F, &f))
	}
}

// NewPacket parses buf and wraps it. It panics on undecodable frames:
// devices in this simulator only emit well-formed frames, so a failure is
// a bug, not an input condition. The returned packet is pool-backed; see
// the Packet retention rule.
func NewPacket(buf []byte) *Packet {
	p := packetPool.Get().(*Packet)
	if err := pkt.DecodeInto(&p.frame, buf); err != nil {
		panic(fmt.Sprintf("netsim: emitting undecodable frame: %v", err))
	}
	p.Buf = buf
	p.F = &p.frame
	return p
}

// NewPacketCopy parses buf into a pool-backed packet that owns a private
// copy of the bytes: the caller's buffer is free for reuse the moment the
// call returns. The copy lands in the packet's recycled backing array, so
// a pool hit allocates nothing. Panics on undecodable frames like
// NewPacket.
func NewPacketCopy(buf []byte) *Packet {
	p := packetPool.Get().(*Packet)
	p.mem = append(p.mem[:0], buf...)
	return p.decodeMem()
}

// decodeMem makes the frame just written into p.mem the packet's bytes
// and parses it once into the embedded Frame. Panics on undecodable
// frames like NewPacket.
func (p *Packet) decodeMem() *Packet {
	if err := pkt.DecodeInto(&p.frame, p.mem); err != nil {
		panic(fmt.Sprintf("netsim: emitting undecodable frame: %v", err))
	}
	p.Buf = p.mem
	p.F = &p.frame
	return p
}

// materialize encodes a noise packet's view into its recycled buffer,
// CE mark included, so the frame has the bytes a real sender would have
// put on the wire. The view is left as it was; it still describes them.
func (p *Packet) materialize() {
	f := p.F
	p.mem = pkt.AppendUDP(p.mem[:0], f.Src, f.Dst, f.SrcIP, f.DstIP,
		f.SrcPort, f.DstPort, f.Class(), f.TTL, f.IPID, f.Payload)
	if f.ECN == pkt.ECNCE {
		pkt.SetECNCE(p.mem)
	}
	p.Buf = p.mem
}

// Free returns a pool-backed packet for reuse. Callers must prove the
// packet is dead: no device, handler, or scheduled event still references
// it or its Frame. Packets assembled literally (F not pointing at the
// embedded frame) are not pool-managed and Free is a no-op.
func (p *Packet) Free() {
	if p.F != &p.frame {
		return
	}
	mem := p.mem[:0]
	*p = Packet{}
	p.mem = mem
	packetPool.Put(p)
}

// Class returns the packet's traffic class.
func (p *Packet) Class() pkt.TrafficClass { return p.F.Class() }

// WireLen returns the packet's on-wire size in bytes including FCS.
func (p *Packet) WireLen() int { return p.F.WireLen() }

// LinkParams describes one direction of a link.
type LinkParams struct {
	RateBps int64    // line rate, bits per second
	Prop    sim.Time // propagation delay (cable length)
}

// Rate40G is the 40 Gb/s line rate used throughout the paper's fabric.
const Rate40G int64 = 40e9

// SerializationTime returns the time to clock n bytes onto the wire.
func (lp LinkParams) SerializationTime(n int) sim.Time {
	return sim.Time(int64(n) * 8 * int64(sim.Second) / lp.RateBps)
}

// REDConfig configures random early drop on a lossy class queue.
type REDConfig struct {
	MinBytes int     // below this, never drop
	MaxBytes int     // above this, always drop
	PMax     float64 // drop probability at MaxBytes
}

// ECNConfig configures DCQCN-style probabilistic ECN marking.
type ECNConfig struct {
	KMinBytes int
	KMaxBytes int
	PMax      float64
}

// PortConfig describes an egress port's queuing behavior.
type PortConfig struct {
	Link LinkParams
	// QueueBytes bounds each class queue (tail drop past it, even for
	// lossless classes — PFC should prevent reaching it).
	QueueBytes int
	// Lossless marks classes as PFC-protected (no RED).
	Lossless [pkt.NumClasses]bool
	// RED applies to lossy classes when PMax > 0.
	RED REDConfig
	// ECN applies to all classes when PMax > 0.
	ECN ECNConfig
}

// DefaultPortConfig returns the configuration used by datacenter 40G ports:
// 512 KiB per class, RED on lossy classes, ECN marking tuned for DCQCN,
// LTL and RDMA classes lossless.
func DefaultPortConfig() PortConfig {
	var c PortConfig
	c.Link = LinkParams{RateBps: Rate40G, Prop: 15 * sim.Nanosecond}
	c.QueueBytes = 512 << 10
	c.Lossless[pkt.ClassLTL] = true
	c.Lossless[pkt.ClassRDMA] = true
	c.RED = REDConfig{MinBytes: 64 << 10, MaxBytes: 256 << 10, PMax: 0.1}
	c.ECN = ECNConfig{KMinBytes: 30 << 10, KMaxBytes: 120 << 10, PMax: 0.1}
	return c
}

// PortStats aggregates per-port counters. Congestion losses (DropsRED,
// DropsTail) and injected faults (DropsInjected and friends) are counted
// separately so conservation checks can reconcile every frame: frames
// delivered to the peer equal TxFrames minus injected drops plus injected
// duplicates.
type PortStats struct {
	TxFrames   metrics.Counter
	TxBytes    metrics.Counter
	RxFrames   metrics.Counter
	DropsRED   metrics.Counter
	DropsTail  metrics.Counter
	ECNMarks   metrics.Counter
	PFCSent    metrics.Counter
	PFCRecv    metrics.Counter
	QueueDepth metrics.Gauge // bytes, all classes
	QueueDelay *metrics.Histogram

	// Fault-injection counters (see FaultHook): frames eaten, duplicated,
	// corrupted, or delayed on the wire by an installed fault hook. A
	// corrupted frame that no longer parses is dropped by the peer's MAC on
	// its FCS and counted under both CorruptInjected and DropsInjected.
	DropsInjected   metrics.Counter
	DupsInjected    metrics.Counter
	CorruptInjected metrics.Counter
	DelayedInjected metrics.Counter

	// NoiseEnded counts the background frames among RxFrames: they end
	// on the wire into this port instead of reaching its device.
	NoiseEnded metrics.Counter
}

// FaultOp selects the wire-level fault applied to one frame.
type FaultOp int

const (
	// FaultNone delivers the frame normally.
	FaultNone FaultOp = iota
	// FaultDrop eats the frame on the wire.
	FaultDrop
	// FaultDuplicate delivers the frame and an extra copy Delay later.
	FaultDuplicate
	// FaultCorrupt flips bytes (via Corrupt) in a private copy of the
	// frame before delivery. If the mangled frame no longer decodes, the
	// peer's MAC rejects it on FCS and it becomes an injected drop.
	FaultCorrupt
	// FaultDelay holds the frame on the wire an extra Delay. Delaying one
	// frame past the next also reorders: propagation is modeled per-frame,
	// so later frames overtake it.
	FaultDelay
)

// FaultDecision is a fault hook's verdict for one frame.
type FaultDecision struct {
	Op FaultOp
	// Delay is the extra wire delay for FaultDelay, or the offset of the
	// extra copy for FaultDuplicate.
	Delay sim.Time
	// Corrupt mutates a private copy of the frame bytes for FaultCorrupt.
	Corrupt func(buf []byte)
}

// FaultHook inspects each frame as it leaves a port and decides its fate.
// Hooks run at serialization completion, in deterministic event order; they
// must not retain packet.
type FaultHook func(p *Port, packet *Packet) FaultDecision

// Port is one end of a full-duplex link. Egress queuing, PFC (pause
// state and the ingress account, pfc.go) and the transmitter live here;
// receive is a callback into the owning device.
type Port struct {
	dev   Device
	index int // port number within the device
	sim   *sim.Simulation
	// rng is built lazily from rngSeed on the first RED/ECN draw; the
	// seed is drawn at construction so the stream is independent of when
	// (or whether) the port ever needs randomness.
	rng     *rand.Rand
	rngSeed int64
	peer    *Port
	cfg     PortConfig
	fault   FaultHook

	// queues are head-indexed so their capacity recycles: popping
	// advances qhead and an emptied queue rewinds to offset 0, keeping
	// the steady-state enqueue allocation-free.
	queues      [pkt.NumClasses][]*Packet
	qhead       [pkt.NumClasses]int
	queuedBytes [pkt.NumClasses]int
	// nonEmpty has bit c set while class c's queue holds a frame: enqueue
	// sets it and pick clears it when its pop empties the class, so pick
	// visits only occupied classes and never rescans the queues.
	nonEmpty    uint8
	ctrlQueue   []*Packet // PFC / MAC control: bypasses data queues
	ctrlHead    int
	pausedUntil [pkt.NumClasses]sim.Time
	busy        bool
	retry       sim.Timer
	// realQueued counts the queued data frames that are not noise.
	realQueued int
	// pfc is the port's ingress account (pfc.go), nil until the port
	// first holds a frame; pfcStats is where it counts (its switch's),
	// nil for nowhere.
	pfc      *ingressAccount
	pfcStats *PFCStats

	// noise is the port's background traffic (noise.go); nil until a
	// load is started on it.
	noise *portNoise

	// tracer is cached at construction (nil when observability is off),
	// so the hot path pays one nil compare, never a lookup.
	tracer *obs.Tracer

	stats PortStats
}

// Stats returns the port's counters, with its background traffic and its
// peer's brought up to the current instant (the peer's noise counts as
// received here).
func (p *Port) Stats() *PortStats {
	p.sync()
	if p.peer != nil {
		p.peer.sync()
	}
	return &p.stats
}

// SetFaultHook installs (or, with nil, removes) the port's fault hook.
func (p *Port) SetFaultHook(h FaultHook) {
	now := p.catchUp()
	p.fault = h
	p.rearm(now)
}

// Index returns the port's number within its device.
func (p *Port) Index() int { return p.index }

// Device returns the owning device.
func (p *Port) Device() Device { return p.dev }

// Peer returns the port at the other end of the link (nil when unwired).
func (p *Port) Peer() *Port { return p.peer }

// Config returns the port's configuration.
func (p *Port) Config() PortConfig { return p.cfg }

// QueuedBytes returns the bytes currently queued for class c.
func (p *Port) QueuedBytes(c pkt.TrafficClass) int {
	p.sync()
	return p.queuedBytes[c]
}

// rand returns the port's private random stream, materializing it on
// first use.
func (p *Port) rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.rngSeed))
	}
	return p.rng
}

// NewPort creates an unwired port owned by dev.
func NewPort(s *sim.Simulation, dev Device, index int, cfg PortConfig) *Port {
	return newPort(s, dev, index, cfg, s.DrawSeed())
}

// newPort is NewPort with the port's seed drawn by the caller.
func newPort(s *sim.Simulation, dev Device, index int, cfg PortConfig, seed int64) *Port {
	p := &Port{
		dev: dev, index: index, sim: s, rngSeed: seed, cfg: cfg,
		tracer: obs.TracerOf(s),
		stats:  PortStats{QueueDelay: metrics.NewHistogram()},
	}
	if r := obs.RegistryOf(s); r != nil {
		r.Counter("net.tx_frames", "frames", "netsim", "frames serialized onto links", &p.stats.TxFrames)
		r.Counter("net.tx_bytes", "bytes", "netsim", "bytes serialized onto links", &p.stats.TxBytes)
		r.Counter("net.rx_frames", "frames", "netsim", "frames delivered to devices", &p.stats.RxFrames)
		r.Counter("net.drops_red", "frames", "netsim", "RED early drops", &p.stats.DropsRED)
		r.Counter("net.drops_tail", "frames", "netsim", "tail drops at full queues", &p.stats.DropsTail)
		r.Counter("net.ecn_marks", "frames", "netsim", "ECN CE marks applied", &p.stats.ECNMarks)
		r.Counter("net.pfc_sent", "frames", "netsim", "PFC pause frames sent", &p.stats.PFCSent)
		r.Counter("net.pfc_recv", "frames", "netsim", "PFC pause frames received", &p.stats.PFCRecv)
		r.Counter("net.drops_injected", "frames", "netsim", "fault-injected wire drops", &p.stats.DropsInjected)
		r.Histogram("net.queue_delay", "ns", "netsim", "egress queue wait per frame", p.stats.QueueDelay)
	}
	return p
}

// Wire connects a and b as a full-duplex link. Both ports must be unwired.
func Wire(a, b *Port) {
	if a.peer != nil || b.peer != nil {
		panic("netsim: port already wired")
	}
	a.sync()
	b.sync()
	a.peer = b
	b.peer = a
	a.rearm(a.sim.Now())
	b.rearm(b.sim.Now())
}

// Unwire disconnects the link (e.g. failure injection). In-flight frames
// already scheduled for delivery still arrive; queued frames drain to
// nowhere.
func Unwire(a *Port) {
	if a.peer != nil {
		a.sync()
		a.peer.sync()
		a.peer.peer = nil
		a.peer = nil
	}
}

// Enqueue places a data packet on the egress queue, applying RED/tail-drop
// and ECN policy, then kicks the transmitter. It reports whether the packet
// was accepted.
func (p *Port) Enqueue(packet *Packet) bool {
	now := p.catchUp()
	ok := p.enqueue(packet, now)
	p.rearm(now)
	return ok
}

// enqueue is Enqueue at instant now: the current instant for a real
// frame, a noise frame's arrival for background traffic.
func (p *Port) enqueue(packet *Packet, now sim.Time) bool {
	c := packet.Class()
	depth := p.queuedBytes[c]
	size := packet.WireLen()

	if !p.cfg.Lossless[c] && p.cfg.RED.PMax > 0 && depth > p.cfg.RED.MinBytes {
		var pr float64
		if depth >= p.cfg.RED.MaxBytes {
			pr = 1
		} else {
			pr = p.cfg.RED.PMax * float64(depth-p.cfg.RED.MinBytes) /
				float64(p.cfg.RED.MaxBytes-p.cfg.RED.MinBytes)
		}
		if p.rand().Float64() < pr {
			p.stats.DropsRED.Inc()
			p.drop(packet)
			return false
		}
	}
	if depth+size > p.cfg.QueueBytes {
		p.stats.DropsTail.Inc()
		p.drop(packet)
		return false
	}
	if p.cfg.ECN.PMax > 0 && packet.F.IPValid && depth > p.cfg.ECN.KMinBytes {
		var pr float64
		if depth >= p.cfg.ECN.KMaxBytes {
			pr = 1
		} else {
			pr = p.cfg.ECN.PMax * float64(depth-p.cfg.ECN.KMinBytes) /
				float64(p.cfg.ECN.KMaxBytes-p.cfg.ECN.KMinBytes)
		}
		if p.rand().Float64() < pr {
			pkt.SetECNCE(packet.Buf)
			packet.F.ECN = pkt.ECNCE
			p.stats.ECNMarks.Inc()
		}
	}

	packet.EnqueuedAt = now
	if p.qhead[c] == len(p.queues[c]) && p.qhead[c] > 0 {
		p.queues[c] = p.queues[c][:0]
		p.qhead[c] = 0
	}
	p.queues[c] = append(p.queues[c], packet)
	p.nonEmpty |= 1 << c
	p.queuedBytes[c] += size
	if !packet.noise {
		p.realQueued++
	}
	p.stats.QueueDepth.Add(int64(size))
	p.kick(now)
	return true
}

// drop settles a rejected packet's ingress account and recycles it: a
// congestion-dropped frame is dead by definition.
func (p *Port) drop(packet *Packet) {
	releaseHold(packet)
	packet.Free()
}

// EnqueueControl sends a MAC control frame (PFC). Control frames bypass
// data queues and are never paused.
func (p *Port) EnqueueControl(packet *Packet) {
	now := p.catchUp()
	if p.ctrlHead == len(p.ctrlQueue) && p.ctrlHead > 0 {
		p.ctrlQueue = p.ctrlQueue[:0]
		p.ctrlHead = 0
	}
	p.ctrlQueue = append(p.ctrlQueue, packet)
	p.kick(now)
	p.rearm(now)
}

// Pause sets the PFC pause state for class c for duration d (d == 0
// resumes).
func (p *Port) Pause(c pkt.TrafficClass, d sim.Time) {
	now := p.catchUp()
	p.stats.PFCRecv.Inc()
	if d == 0 {
		p.pausedUntil[c] = 0
	} else {
		p.pausedUntil[c] = now + d
	}
	p.kick(now)
	p.rearm(now)
}

// kick starts the transmitter at instant now if the port is idle.
func (p *Port) kick(now sim.Time) {
	if p.busy || p.peer == nil {
		return
	}
	packet, ok := p.pick(now)
	if !ok {
		return
	}
	p.transmit(packet, now)
}

// pick selects the next frame honoring control priority, strict class
// priority (higher class first), and pause state. When only paused traffic
// is available, it notes the earliest resume time for the port's noise
// and, unless all of that traffic is noise, arms a retry then.
func (p *Port) pick(now sim.Time) (*Packet, bool) {
	if p.noise != nil {
		p.noise.resume = 0
	}
	if p.ctrlHead < len(p.ctrlQueue) {
		packet := p.ctrlQueue[p.ctrlHead]
		p.ctrlQueue[p.ctrlHead] = nil
		p.ctrlHead++
		return packet, true
	}
	var earliest sim.Time = -1
	for m := p.nonEmpty; m != 0; {
		c := bits.Len8(m) - 1 // the highest occupied class first
		m &^= 1 << c
		if until := p.pausedUntil[c]; until > now {
			if earliest < 0 || until < earliest {
				earliest = until
			}
			continue
		}
		packet := p.queues[c][p.qhead[c]]
		p.queues[c][p.qhead[c]] = nil
		if p.qhead[c]++; p.qhead[c] == len(p.queues[c]) {
			p.nonEmpty &^= 1 << c
		}
		size := packet.WireLen()
		p.queuedBytes[c] -= size
		if !packet.noise {
			p.realQueued--
		}
		p.stats.QueueDepth.Add(-int64(size))
		p.stats.QueueDelay.Observe(int64(now - packet.EnqueuedAt))
		if p.tracer != nil && packet.Flow != 0 && now > packet.EnqueuedAt {
			p.tracer.Range(packet.Flow, "net.qwait", 0, int64(packet.EnqueuedAt), int64(p.index))
		}
		return packet, true
	}
	if earliest < 0 {
		return nil, false
	}
	if p.noise != nil {
		p.noise.resume = earliest
	}
	if p.noise == nil || p.realQueued > 0 {
		// A pick inside the noise advance runs at a past instant; a class
		// whose pause has already expired since is resumed by the advance
		// itself, so the retry goes no earlier than now.
		p.sim.Cancel(p.retry)
		p.retry = p.sim.ScheduleCall(max(0, earliest-p.sim.Now()), retryKick, p)
	}
	return nil, false
}

// retryKick is the PFC retry: a paused class may have resumed.
func retryKick(v any) {
	p := v.(*Port)
	p.retry = sim.Timer{}
	now := p.catchUp()
	p.kick(now)
	p.rearm(now)
}

// transmit serializes packet onto the wire at instant now and schedules
// delivery. The serialization-done and propagation events run
// closure-free: the packet itself carries the port context through
// sim.ScheduleCall. A frame of the port's own background traffic
// schedules nothing: the port finishes it in line (noise.go).
func (p *Port) transmit(packet *Packet, now sim.Time) {
	p.busy = true
	releaseHold(packet)
	ser := p.cfg.Link.SerializationTime(packet.WireLen())
	p.stats.TxFrames.Inc()
	p.stats.TxBytes.Add(uint64(packet.WireLen()))
	packet.txPort = p
	packet.NextPort = p.peer
	if packet.noise && p.noise != nil {
		p.noise.tx, p.noise.txEnd = packet, now+ser
		return
	}
	if p.tracer != nil && packet.Flow != 0 {
		packet.hopSpan = p.tracer.Start(packet.Flow, "net.hop", 0)
		p.tracer.SetArg(packet.hopSpan, int64(packet.FlowSeq))
	}
	p.sim.ScheduleCall(ser, serializationDone, packet)
}

// serializationDone fires when the last bit of a frame leaves the
// transmitter.
func serializationDone(v any) {
	packet := v.(*Packet)
	p := packet.txPort
	now := p.catchUp()
	p.finish(packet, now)
	p.rearm(now)
}

// finish ends packet's serialization at instant now: the port goes idle,
// the frame starts propagating (unless the link failed mid-flight), and
// the next queued frame is picked up.
func (p *Port) finish(packet *Packet, now sim.Time) {
	peer := packet.NextPort
	p.busy = false
	if peer != nil && peer.peer == p { // link may have failed mid-flight
		p.deliver(peer, packet)
	} else {
		packet.Free() // frame lost with the link
	}
	p.kick(now)
}

// propagationDone completes a frame's flight: a PFC frame ends at the
// receiving port, and the port's device takes any other.
func propagationDone(v any) {
	packet := v.(*Packet)
	peer := packet.NextPort
	peer.stats.RxFrames.Inc()
	if packet.hopSpan != 0 {
		peer.tracer.End(packet.hopSpan)
		packet.hopSpan = 0
	}
	if paranoid {
		verifyCached(packet)
	}
	if packet.F.EtherType == pkt.EtherTypePFC {
		peer.receivePFC(packet)
		return
	}
	peer.dev.HandleFrame(peer, packet)
}

// deliver propagates packet to peer, applying the port's fault hook (if
// any) now that the frame is fully on the wire. A noise frame goes
// through the hook like any other, so every hook draws once per frame,
// and then ends here; a copy the hook duplicates or corrupts gets real
// bytes and propagates as an ordinary frame.
func (p *Port) deliver(peer *Port, packet *Packet) {
	prop := p.cfg.Link.Prop
	if p.fault != nil {
		d := p.fault(p, packet)
		if packet.noise && (d.Op == FaultDuplicate || d.Op == FaultCorrupt) {
			packet.materialize()
		}
		switch d.Op {
		case FaultDrop:
			p.stats.DropsInjected.Inc()
			packet.Free()
			return
		case FaultDuplicate:
			p.stats.DupsInjected.Inc()
			dup := NewPacket(append([]byte(nil), packet.Buf...))
			extra := d.Delay
			if extra <= 0 {
				extra = prop
			}
			dup.NextPort = peer
			p.sim.ScheduleCall(prop+extra, propagationDone, dup)
		case FaultCorrupt:
			p.stats.CorruptInjected.Inc()
			buf := append([]byte(nil), packet.Buf...)
			if d.Corrupt != nil {
				d.Corrupt(buf)
			}
			enq := packet.EnqueuedAt
			packet.Free() // replaced by the mangled copy below
			np := packetPool.Get().(*Packet)
			np.Buf = buf
			np.F = &np.frame
			if err := pkt.DecodeInto(&np.frame, buf); err != nil {
				// The mangled frame fails the peer MAC's FCS check.
				np.Free()
				p.stats.DropsInjected.Inc()
				return
			}
			np.EnqueuedAt = enq
			packet = np
		case FaultDelay:
			p.stats.DelayedInjected.Inc()
			prop += d.Delay
		}
	}
	if packet.noise {
		if paranoid {
			packet.materialize()
			verifyCached(packet)
		}
		peer.stats.RxFrames.Inc()
		peer.stats.NoiseEnded.Inc()
		if nz := p.noise; nz != nil && nz.spare == nil && len(packet.Buf) == 0 {
			nz.spare = packet
		} else {
			packet.Free()
		}
		return
	}
	packet.NextPort = peer
	p.sim.ScheduleCall(prop, propagationDone, packet)
}
