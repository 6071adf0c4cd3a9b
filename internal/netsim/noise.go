package netsim

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Background traffic ("other datacenter traffic ... flowing through the
// same switches", §V-C) is a process owned by each port it loads, not a
// stream of scheduled events. A process knows the time of its next
// arrival and draws the rest from a private stream. The port advances
// its noise in line, up to the current instant, before every operation
// on a real frame (Enqueue, EnqueueControl, Pause, the end of a real
// frame's serialization, the PFC retry) and before every read of its
// counters or queues (Stats, QueuedBytes, Switch.Stats and the obs
// registry's snapshots). Each noise frame still takes its RED and ECN
// draws, waits its turn under strict priority and pause state, and is
// counted in QueueDelay, QueueDepth, TxFrames/TxBytes and the peer's
// RxFrames/NoiseEnded, in time order. An arrival that finds the port
// holding anything but its own noise goes through the same enqueue,
// pick, transmit and finish code as a real frame. An arrival that finds
// it holding nothing else takes none of those steps: it runs in a
// noise-only stretch (stretch), which makes the same draws and counts
// the same values in closed form.
//
// So a port that no real frame touches does no work until something
// reads it. A real frame queued behind a noise frame on the wire is woken
// once, when that frame finishes; one that waits with the transmitter
// idle (paused, or queued while the link was down) is woken at the next
// arrival or pause expiry, whose kick may start it. A port with a fault hook must call the
// hook as each noise frame leaves and propagate any copy the hook makes
// at its own time, so while a hook is installed the port keeps a wake at
// its next noise instant; the wake runs the same advance.
//
// Tie rule. At one instant on one port, a noise arrival comes first; then
// the noise frame on the wire finishes (or, if the transmitter is idle
// with only paused frames queued, a pause expires); then real operations
// run, in event order. A load started at t takes its first arrival at t
// or later.

// noiseProc is a port's background load: Poisson arrivals at a fixed
// mean gap, frame sizes drawn uniformly on [64, 64+n) and clamped to
// pkt.MaxMTU, all from one splitmix64 stream.
type noiseProc struct {
	next  sim.Time // next arrival
	gap   float64  // mean inter-arrival gap, ns
	rng   splitmix
	n     int // size range
	class pkt.TrafficClass
}

// maxTime is the latest representable instant.
const maxTime = sim.Time(1<<63 - 1)

// maxNoiseGap caps one background inter-arrival gap (about 146 years of
// virtual time), so a vanishing util saturates instead of overflowing
// sim.Time.
const maxNoiseGap = sim.Time(1 << 62)

// newNoiseProc starts a load at instant now whose mean gap is gap ns. It
// draws the first gap; arrivals then alternate a size draw and a gap
// draw.
func newNoiseProc(seed uint64, gap float64, class pkt.TrafficClass, meanSize int, now sim.Time) noiseProc {
	pr := noiseProc{gap: gap, rng: splitmix(seed), n: 2*meanSize - 64, class: class}
	pr.next = now + pr.drawGap()
	return pr
}

// splitmix is a splitmix64 stream: eight bytes of state, where a
// math/rand source costs kilobytes.
type splitmix uint64

// Uint64 implements rand.Source.
func (s *splitmix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	return mix64(uint64(*s))
}

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// drawGap draws an exponential gap, truncated to whole nanoseconds.
func (pr *noiseProc) drawGap() sim.Time {
	ns := rand.New(&pr.rng).ExpFloat64() * pr.gap
	if !(ns < float64(maxNoiseGap)) {
		return maxNoiseGap
	}
	return sim.Time(ns)
}

// drawSize draws a frame size before clamping.
func (pr *noiseProc) drawSize() int {
	hi, _ := bits.Mul64(pr.rng.Uint64(), uint64(pr.n))
	return 64 + int(hi)
}

// noiseSeed derives a port's stream from a load's seed and the port's
// identity, so no stream depends on the order in which ports were built.
func noiseSeed(base int64, device string, port int) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(device); i++ {
		h ^= uint64(device[i])
		h *= 1099511628211
	}
	return mix64(uint64(base) ^ mix64(h^uint64(port)))
}

// noiseWireMean is the mean on-wire length of the frames a load with
// this meanSize draws: sizes uniform on [64, 2·meanSize), clamped to
// pkt.MaxMTU, plus the VLAN tag of a tagged class. Frames are spaced by
// it, so the load offers exactly its util.
func noiseWireMean(class pkt.TrafficClass, meanSize int) float64 {
	lo, hi, m := 64.0, float64(2*meanSize-1), float64(pkt.MaxMTU)
	mean := (lo + hi) / 2
	if hi > m {
		mean = ((lo+m)*(m-lo+1)/2 + (hi-m)*m) / (hi - lo + 1)
	}
	if class != pkt.ClassBestEffort {
		mean += pkt.VLANTagLen
	}
	return mean
}

// noisePayload is the all-zero body every background frame's view
// points into; nothing writes to it.
var noisePayload [pkt.MaxMTU]byte

// newNoisePacket builds a synthetic background frame of class on a
// pooled packet. It models cross-traffic from parts of the datacenter
// that are not individually instantiated; the frame is addressed outside
// the instantiated subgraph (broadcast from 02:ee:00:00:00:01, UDP 9→9
// from 255.255.255.254 to .255, TTL 1) and ends on the wire it leaves by.
// size is the frame's length on the wire, clamped to [64, pkt.MaxMTU]; a
// tagged class adds its VLAN tag.
//
// The frame has no bytes: the pooled packet's parsed view is filled
// directly and Buf left empty, so a steady stream of noise allocates,
// encodes and copies nothing. It still occupies its queue, draws RED and
// ECN, serializes, triggers PFC and passes the port's fault hook exactly
// as an encoded frame would (see Packet).
func newNoisePacket(class pkt.TrafficClass, size int) *Packet {
	p := packetPool.Get().(*Packet)
	p.frame = pkt.Frame{
		Dst: pkt.Broadcast, Src: pkt.MAC{0x02, 0xee, 0, 0, 0, 1},
		EtherType: pkt.EtherTypeIPv4,
		IPValid:   true,
		SrcIP:     pkt.IP{255, 255, 255, 254}, DstIP: pkt.IP{255, 255, 255, 255},
		Protocol: pkt.ProtoUDP, TTL: 1,
		UDPValid: true, SrcPort: 9, DstPort: 9,
	}
	p.F = &p.frame
	p.noise = true
	p.shapeNoise(class, size)
	return p
}

// shapeNoise sets what differs between two noise frames: the class, the
// size and the ECN field.
func (p *Packet) shapeNoise(class pkt.TrafficClass, size int) {
	size = max(64, min(size, pkt.MaxMTU))
	n := size - pkt.EthHeaderLen - pkt.IPv4HeaderLen - pkt.UDPHeaderLen - pkt.EthFCSLen
	f := &p.frame
	f.Payload = noisePayload[:n:n]
	f.ECN = pkt.ECNCapable
	f.HasVLAN, f.PCP, f.VLAN = false, 0, 0
	if class != pkt.ClassBestEffort {
		f.HasVLAN, f.PCP, f.VLAN = true, class, 1
	}
}

// portNoise is a port's background traffic: its load and the noise frame
// on its wire.
type portNoise struct {
	proc  noiseProc
	tx    *Packet  // noise frame being serialized; nil otherwise
	txEnd sim.Time // when tx finishes
	// resume is, while the transmitter is idle with only paused frames
	// queued, the earliest pause expiry; 0 otherwise.
	resume   sim.Time
	wake     sim.Timer
	wakeAt   sim.Time         // when wake fires; 0 when none is pending
	injected *metrics.Counter // the switch's count of noise arrivals
	// spare is the packet of a noise frame that ended on this port's
	// wire, kept for the next arrival instead of a trip through the pool.
	spare *Packet
	// quiet is set when an arrival at this port's empty queue can make no
	// RED or ECN draw and is never tail-dropped (see stretch).
	quiet bool
}

// startNoise starts the port's load; a port carries at most one.
func (p *Port) startNoise(pr noiseProc, injected *metrics.Counter) {
	c, cfg := pr.class, p.cfg
	red := !cfg.Lossless[c] && cfg.RED.PMax > 0 && cfg.RED.MinBytes < 0
	ecn := cfg.ECN.PMax > 0 && cfg.ECN.KMinBytes < 0
	quiet := !red && !ecn && noiseWireLen(c, 64+pr.n-1) <= cfg.QueueBytes
	p.noise = &portNoise{proc: pr, injected: injected, quiet: quiet}
	// Registered with the load, so a run without background traffic
	// reports no such series.
	obs.RegistryOf(p.sim).Counter("net.noise_ended", "frames", "netsim",
		"background frames ended on the wire into a port", &p.peer.stats.NoiseEnded)
	p.rearm(p.sim.Now())
}

// catchUp advances the port's noise to the current instant, which it
// returns. Every operation on a real frame starts with it and ends with
// rearm.
func (p *Port) catchUp() sim.Time {
	now := p.sim.Now()
	if p.noise != nil {
		p.noise.advance(p, now)
	}
	return now
}

// rearm keeps the port's wake, if it needs one, after an operation at now.
func (p *Port) rearm(now sim.Time) {
	if p.noise != nil {
		p.noise.arm(p, now)
	}
}

// sync brings the port's noise up to the current instant.
func (p *Port) sync() { p.rearm(p.catchUp()) }

// advance runs the port's noise through now, in the order of the tie
// rule.
func (nz *portNoise) advance(p *Port, now sim.Time) {
	pr := &nz.proc
	for {
		nz.stretch(p, now)
		at := pr.next
		switch {
		case at <= now && (nz.tx == nil || at <= nz.txEnd) && (nz.resume == 0 || at <= nz.resume):
			size := pr.drawSize()
			pr.next = at + pr.drawGap()
			nz.injected.Inc()
			packet := nz.spare
			if packet == nil {
				packet = newNoisePacket(pr.class, size)
			} else {
				nz.spare = nil
				packet.shapeNoise(pr.class, size)
			}
			p.enqueue(packet, at)
		case nz.tx != nil && nz.txEnd <= now:
			packet, t := nz.tx, nz.txEnd
			nz.tx = nil
			p.finish(packet, t)
		case nz.resume != 0 && nz.resume <= now:
			t := nz.resume
			nz.resume = 0
			p.kick(t)
		default:
			return
		}
	}
}

// stretch runs, in closed form, the noise arrivals through now that find
// the port holding nothing but its own noise: no fault hook, paranoid
// mode off, the peer wired, no data or control frame queued, no real
// frame on the wire, no pause in force on the load's class, and the noise
// frame on the wire (if any) ended strictly before the arrival on the
// link it left by. Such an arrival reaches an empty queue at depth 0:
// with quiet set it makes no RED or ECN draw and fits, so enqueue would
// queue it, pick would take it at once with a wait of 0, and transmit
// would start it. The stretch makes the same draws and counts the same
// frames, bytes, wait and depth watermark as that path, but queues
// nothing: while it runs, the frame on the wire is only its end instant.
// If a frame is still on the wire when it stops, the frame gets its
// packet, so the rest of the port sees what transmit would have left.
func (nz *portNoise) stretch(p *Port, now sim.Time) {
	pr := &nz.proc
	c, at := pr.class, pr.next
	if at > now || !nz.quiet || p.fault != nil || paranoid || p.peer == nil || p.nonEmpty != 0 ||
		p.ctrlHead < len(p.ctrlQueue) || nz.resume != 0 || p.pausedUntil[c] > at {
		return
	}
	if p.busy {
		tx := nz.tx
		if tx == nil || nz.txEnd >= at || tx.NextPort != p.peer {
			return
		}
		nz.tx = nil
		p.deliver(p.peer, tx)
	}
	st, peer := &p.stats, &p.peer.stats
	var size int
	var start, end sim.Time
	for {
		size = pr.drawSize()
		pr.next = at + pr.drawGap()
		nz.injected.Inc()
		w := noiseWireLen(c, size)
		st.QueueDepth.Add(int64(w))
		st.QueueDepth.Add(-int64(w))
		st.QueueDelay.Observe(0)
		st.TxFrames.Inc()
		st.TxBytes.Add(uint64(w))
		start, end = at, at+p.cfg.Link.SerializationTime(w)
		// A pause changes only at a real operation, which brings the noise
		// up to its own instant first, so the check on entry covers every
		// arrival here.
		if at = pr.next; at > now || at <= end {
			break
		}
		peer.RxFrames.Inc() // the frame ended before this arrival
		peer.NoiseEnded.Inc()
	}
	if end <= now && end < pr.next {
		peer.RxFrames.Inc()
		peer.NoiseEnded.Inc()
		p.busy = false
		return
	}
	packet := nz.spare
	if packet == nil {
		packet = newNoisePacket(c, size)
	} else {
		nz.spare = nil
		packet.shapeNoise(c, size)
	}
	packet.EnqueuedAt, packet.txPort, packet.NextPort = start, p, p.peer
	nz.tx, nz.txEnd = packet, end
	p.busy = true
}

// noiseWireLen is the on-wire length of a noise frame of class whose
// drawn size is size: shapeNoise's clamp plus a tagged class's VLAN tag.
func noiseWireLen(class pkt.TrafficClass, size int) int {
	w := max(64, min(size, pkt.MaxMTU))
	if class != pkt.ClassBestEffort {
		w += pkt.VLANTagLen
	}
	return w
}

// arm keeps the one wake the port needs, if any: at the next noise
// instant while a fault hook is installed, else at the end of the noise
// frame on the wire while a real frame waits behind it, else at the next
// arrival or pause expiry while real frames wait with the transmitter
// idle.
func (nz *portNoise) arm(p *Port, now sim.Time) {
	at := maxTime
	switch {
	case p.fault != nil:
		at = nz.proc.next
		if nz.tx != nil {
			at = min(at, nz.txEnd)
		}
		if nz.resume != 0 {
			at = min(at, nz.resume)
		}
	case nz.tx != nil && (p.realQueued > 0 || p.ctrlHead < len(p.ctrlQueue)):
		at = nz.txEnd
	case !p.busy && p.peer != nil && (p.realQueued > 0 || p.ctrlHead < len(p.ctrlQueue)):
		// Frames that wait with the transmitter idle (paused, or queued
		// while the link was down) start at the next kick: the next
		// arrival or pause expiry.
		at = nz.proc.next
		if nz.resume != 0 {
			at = min(at, nz.resume)
		}
	}
	if at == maxTime {
		at = 0 // no wake
	}
	if at == nz.wakeAt {
		return
	}
	if nz.wakeAt != 0 {
		p.sim.Cancel(nz.wake)
	}
	if nz.wakeAt = at; at != 0 {
		nz.wake = p.sim.ScheduleCall(at-now, noiseWake, p)
	}
}

// noiseWake is the port's scheduled wake: it advances the noise to now.
func noiseWake(v any) {
	p := v.(*Port)
	p.noise.wakeAt = 0
	p.sync()
}
