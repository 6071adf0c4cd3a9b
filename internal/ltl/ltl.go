// Package ltl implements the Lightweight Transport Layer (paper §V-A), the
// inter-FPGA network protocol at the heart of the Configurable Cloud: an
// ordered, reliable, connection-based transport with statically allocated,
// persistent connections realized as send and receive connection tables,
// encapsulated in UDP/IP and riding a lossless datacenter traffic class.
//
// The engine mirrors the block diagram of Fig. 9:
//
//   - Send Connection Table / Receive Connection Table (static allocation)
//   - Send Frame Queue and Packetizer (message segmentation into MTU frames)
//   - Unack'd Frame Store with ACK/NACK-driven retransmission and a
//     retransmit timeout (50 µs, the production setting)
//   - Ack Generation / Ack Receiver
//   - per-connection DCQCN rate control driven by switch ECN marks
//   - engine-wide bandwidth limiting (token bucket) so a donated FPGA
//     cannot starve its host's network (§V-D)
//
// The engine is transport-only: framing to Ethernet and the bump-in-the-
// wire placement live in internal/shell, which feeds the engine through
// the Wire interface.
package ltl

import (
	"fmt"
	"slices"

	"repro/internal/dcqcn"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Wire is the engine's attachment to the network data path (provided by
// the FPGA shell). Output must accept a fully framed Ethernet packet;
// the buffer is pooled and recycled when Output returns, so
// implementations that defer transmission must copy it.
type Wire interface {
	Output(buf []byte)
	LocalIP() pkt.IP
	LocalMAC() pkt.MAC
}

// The production engine's fixed parameters (§V-A).
const (
	// retransmitTimeout triggers go-back-N retransmission of unACKed
	// frames ("configurable, and is currently set to 50 µsec").
	retransmitTimeout = 50 * sim.Microsecond
	// maxRetries before a connection is declared failed (fast failure
	// detection for reprovisioning).
	maxRetries = 8
	// MTU bounds the LTL payload per frame (IP MTU minus IP/UDP/LTL
	// headers).
	MTU = pkt.MaxMTU - pkt.IPv4HeaderLen - pkt.UDPHeaderLen - pkt.LTLHeaderLen
	// txProc/rxProc model the engine's pipeline latency at 156 MHz.
	txProc = 300 * sim.Nanosecond
	rxProc = 300 * sim.Nanosecond
)

// Config parameterizes an Engine.
type Config struct {
	// Window is the maximum number of unacknowledged frames per
	// connection.
	Window int
	// BandwidthLimitBps caps total engine egress (0 = line rate only).
	BandwidthLimitBps int64
	// DisableNACK turns off reorder-triggered fast retransmission,
	// leaving only the timeout path (ablation: the paper argues NACKs
	// "request timely retransmission ... without waiting for a timeout").
	DisableNACK bool
	// DCQCN enables per-connection end-to-end congestion control.
	DCQCN bool
	// Class is the traffic class LTL frames ride (lossless by default).
	Class pkt.TrafficClass
}

// DefaultConfig matches the production parameters described in the paper.
func DefaultConfig() Config {
	return Config{
		Window: 64,
		DCQCN:  true,
		Class:  pkt.ClassLTL,
	}
}

// Stats aggregates engine counters.
type Stats struct {
	FramesSent      metrics.Counter
	FramesRecv      metrics.Counter
	BytesSent       metrics.Counter
	AcksSent        metrics.Counter
	AcksRecv        metrics.Counter
	NacksSent       metrics.Counter
	NacksRecv       metrics.Counter
	Retransmits     metrics.Counter
	Timeouts        metrics.Counter
	Duplicates      metrics.Counter
	OutOfOrder      metrics.Counter
	CNPsSent        metrics.Counter
	CNPsRecv        metrics.Counter
	MessagesSent    metrics.Counter
	MessagesRecv    metrics.Counter
	ConnFailures    metrics.Counter
	ThrottleStalls  metrics.Counter
	DatagramsSent   metrics.Counter
	DatagramsRecv   metrics.Counter
	MessageRTT      *metrics.Histogram // send -> fully ACKed, ns
	DeliveryLatency *metrics.Histogram // first frame tx -> message delivered remotely (receiver view)
}

// unackedFrame is an entry in the Unack'd Frame Store.
type unackedFrame struct {
	seq     uint32
	payload []byte
	flags   uint8
	sentAt  sim.Time
	// owner, set on the last frame of a SendOwned message, goes to the
	// engine's message-release hook once no frame of the message can be
	// sent again.
	owner any
}

// sendConn is a Send Connection Table entry.
type sendConn struct {
	e          *Engine
	localID    uint16
	remoteIP   pkt.IP
	remoteMAC  pkt.MAC
	remoteConn uint16
	vc         uint8

	nextSeq  uint32
	ackedSeq uint32 // all frames < ackedSeq are acknowledged

	// unacked holds frames in [ackedSeq, nextSeq). Both queues pop from
	// the front by shifting down (slices.Delete), so they keep their
	// backing arrays and appends stop allocating.
	unacked []*unackedFrame
	// sendq holds frames not yet transmitted (beyond the window or
	// awaiting rate tokens).
	sendq []*unackedFrame

	rtxTimer sim.Timer
	// pumpTimer dedupes pending pump wakeups (throttle/pacing stalls).
	pumpTimer sim.Timer
	retries   int
	failed    bool

	rp *dcqcn.ReactionPoint
	// nextTxAt paces transmissions to the DCQCN rate.
	nextTxAt sim.Time

	// completion callbacks keyed by the seq of the message's last frame:
	// invoked when ackedSeq passes it.
	completions map[uint32]func()
	sentMsgAt   map[uint32]sim.Time

	// flow names this connection for the observability layer; msgSpans
	// holds open "ltl.msg" spans keyed like completions (last-frame seq).
	// Both are populated only when tracing is enabled.
	flow     obs.FlowID
	msgSpans map[uint32]obs.SpanID

	onFail func()
}

// recvConn is a Receive Connection Table entry.
type recvConn struct {
	localID  uint16
	remoteIP pkt.IP
	// expectedSeq is the next in-order sequence number.
	expectedSeq uint32
	// assembling accumulates payload until a frame with FlagLast. It is
	// reused for the next message once the handler returns.
	assembling []byte
	firstRxAt  sim.Time
	onMessage  func(payload []byte)
	np         *dcqcn.NotificationPoint
}

// Engine is one FPGA's LTL protocol engine.
type Engine struct {
	cfg  Config
	sim  *sim.Simulation
	wire Wire

	send map[uint16]*sendConn
	recv map[uint16]*recvConn

	// token bucket for engine-wide bandwidth limiting.
	tbTokens   float64
	tbLastFill sim.Time

	// service-datagram receiver (service.go).
	datagram DatagramHandler

	ipID uint16

	// tracer is cached at construction; nil when observability is off.
	tracer *obs.Tracer

	// txFree recycles encoded-frame buffers: each emit reuses a retired
	// buffer, so the steady-state TX path allocates nothing. Buffers are
	// only loaned to the wire for the duration of Output (the shell
	// copies them into a packet).
	txFree []*txBuf
	// rxFree recycles rx dispatch jobs (single-threaded per simulation).
	rxFree []*rxJob
	// frFree recycles Unack'd Frame Store entries once acknowledged.
	frFree []*unackedFrame
	// release, when set, is called once the engine has fully consumed a
	// frame passed to HandleFrame (handlers have run; no payload bytes
	// are retained past the callback). The shell uses it to recycle the
	// backing network packet.
	release func(*pkt.Frame)
	// msgRelease, when set, receives the owner of a SendOwned message
	// once the engine no longer reads the message's payload.
	msgRelease func(owner any)

	Stats Stats
}

// txBuf is one pooled encoded-frame buffer in flight between emit and
// the wire-output event.
type txBuf struct {
	e   *Engine
	buf []byte
}

// txOut fires after the TX pipeline delay: the frame enters the wire and
// the buffer returns to the engine's freelist (Wire.Output must not
// retain the slice).
func txOut(v any) {
	t := v.(*txBuf)
	t.e.wire.Output(t.buf)
	t.e.txFree = append(t.e.txFree, t)
}

// rxJob carries one received frame through the rxProc pipeline delay.
type rxJob struct {
	e       *Engine
	f       *pkt.Frame
	h       pkt.LTLHeader
	payload []byte
}

// dispatchJob fires when a received frame clears the engine's rx
// pipeline; the job is recycled before dispatch so the steady state
// allocates nothing.
func dispatchJob(v any) {
	j := v.(*rxJob)
	e, f, h, payload := j.e, j.f, j.h, j.payload
	j.f, j.payload = nil, nil
	e.rxFree = append(e.rxFree, j)
	e.dispatch(f, h, payload)
	// Dispatch is synchronous about the frame: every handler copies what
	// it keeps, so the backing packet can be recycled now.
	if e.release != nil {
		e.release(f)
	}
}

// New creates an engine bound to wire.
func New(s *sim.Simulation, wire Wire, cfg Config) *Engine {
	if cfg.Window <= 0 {
		panic(fmt.Sprintf("ltl: invalid config %+v", cfg))
	}
	e := &Engine{
		cfg: cfg, sim: s, wire: wire,
		send: make(map[uint16]*sendConn),
		recv: make(map[uint16]*recvConn),
		Stats: Stats{
			MessageRTT:      metrics.NewHistogram(),
			DeliveryLatency: metrics.NewHistogram(),
		},
		tracer: obs.TracerOf(s),
	}
	if r := obs.RegistryOf(s); r != nil {
		r.Counter("ltl.frames_sent", "frames", "ltl", "data frames transmitted (first try)", &e.Stats.FramesSent)
		r.Counter("ltl.frames_recv", "frames", "ltl", "data frames accepted in order", &e.Stats.FramesRecv)
		r.Counter("ltl.bytes_sent", "bytes", "ltl", "framed bytes handed to the wire", &e.Stats.BytesSent)
		r.Counter("ltl.acks_sent", "frames", "ltl", "cumulative ACKs emitted", &e.Stats.AcksSent)
		r.Counter("ltl.acks_recv", "frames", "ltl", "ACKs received", &e.Stats.AcksRecv)
		r.Counter("ltl.nacks_sent", "frames", "ltl", "reorder NACKs emitted", &e.Stats.NacksSent)
		r.Counter("ltl.nacks_recv", "frames", "ltl", "NACKs received", &e.Stats.NacksRecv)
		r.Counter("ltl.retransmits", "frames", "ltl", "frames retransmitted (timeout or NACK)", &e.Stats.Retransmits)
		r.Counter("ltl.timeouts", "events", "ltl", "retransmit-timer expiries", &e.Stats.Timeouts)
		r.Counter("ltl.duplicates", "frames", "ltl", "duplicate data frames re-ACKed", &e.Stats.Duplicates)
		r.Counter("ltl.out_of_order", "frames", "ltl", "frames past a gap (NACK trigger)", &e.Stats.OutOfOrder)
		r.Counter("ltl.cnps_sent", "frames", "ltl", "DCQCN congestion notifications sent", &e.Stats.CNPsSent)
		r.Counter("ltl.cnps_recv", "frames", "ltl", "DCQCN congestion notifications received", &e.Stats.CNPsRecv)
		r.Counter("ltl.messages_sent", "msgs", "ltl", "messages submitted to SendMessage", &e.Stats.MessagesSent)
		r.Counter("ltl.messages_recv", "msgs", "ltl", "messages reassembled and delivered", &e.Stats.MessagesRecv)
		r.Counter("ltl.conn_failures", "conns", "ltl", "connections declared failed after the retry limit", &e.Stats.ConnFailures)
		r.Counter("ltl.throttle_stalls", "events", "ltl", "token-bucket bandwidth-limit stalls", &e.Stats.ThrottleStalls)
		r.Counter("ltl.dgrams_sent", "frames", "ltl", "service datagrams sent", &e.Stats.DatagramsSent)
		r.Counter("ltl.dgrams_recv", "frames", "ltl", "service datagrams received", &e.Stats.DatagramsRecv)
		r.Histogram("ltl.message_rtt", "ns", "ltl", "SendMessage to final ACK", e.Stats.MessageRTT)
		r.Histogram("ltl.delivery_latency", "ns", "ltl", "first frame rx to message delivery", e.Stats.DeliveryLatency)
	}
	return e
}

// emit frames an LTL header + payload in UDP/IP/Ethernet into a pooled
// buffer and schedules it onto the wire after the engine's TX pipeline
// latency. Encoding, scheduling, and hand-off are all allocation-free in
// steady state. The returned slice is valid until the output event fires
// (callers only read its length).
func (e *Engine) emit(dstIP pkt.IP, dstMAC pkt.MAC, h pkt.LTLHeader, payload []byte) []byte {
	var t *txBuf
	if n := len(e.txFree); n > 0 {
		t = e.txFree[n-1]
		e.txFree = e.txFree[:n-1]
	} else {
		t = &txBuf{e: e}
	}
	e.ipID++
	t.buf = pkt.AppendUDPLTL(t.buf[:0], e.wire.LocalMAC(), dstMAC, e.wire.LocalIP(), dstIP,
		pkt.LTLPort, pkt.LTLPort, e.cfg.Class, 64, e.ipID, h, payload)
	e.sim.ScheduleCall(txProc, txOut, t)
	return t.buf
}

// SetFrameRelease installs the hook fired when a frame handed to
// HandleFrame has been fully consumed (dispatch complete, no payload
// bytes retained). Used by the shell to recycle packet buffers.
func (e *Engine) SetFrameRelease(fn func(*pkt.Frame)) { e.release = fn }

// SetMessageRelease installs the hook that hands back the owner of a
// SendOwned message once the engine no longer reads its payload: when
// every frame of the message is acknowledged, or when its connection
// fails. Used by the shell to recycle the Elastic Router message that
// LTL sends, and retransmits, from.
func (e *Engine) SetMessageRelease(fn func(owner any)) { e.msgRelease = fn }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// OpenSend statically allocates a send connection. remoteConn names the
// receive-table entry at the destination engine. onFail (optional) fires
// if the connection exhausts maxRetries — the fast failure-detection hook
// the paper describes for ultra-fast reprovisioning.
func (e *Engine) OpenSend(localID uint16, remoteIP pkt.IP, remoteMAC pkt.MAC, remoteConn uint16, vc uint8, onFail func()) error {
	if _, dup := e.send[localID]; dup {
		return fmt.Errorf("ltl: send connection %d already allocated", localID)
	}
	sc := &sendConn{
		e: e, localID: localID, remoteIP: remoteIP, remoteMAC: remoteMAC,
		remoteConn: remoteConn, vc: vc,
		completions: make(map[uint32]func()),
		sentMsgAt:   make(map[uint32]sim.Time),
		onFail:      onFail,
	}
	if e.cfg.DCQCN {
		sc.rp = dcqcn.NewReactionPoint(e.sim)
	}
	if e.tracer != nil {
		sc.flow = obs.LTLFlow(e.wire.LocalIP().U32(), remoteIP.U32(), localID, remoteConn)
		sc.msgSpans = make(map[uint32]obs.SpanID)
	}
	e.send[localID] = sc
	return nil
}

// OpenRecv statically allocates a receive connection; onMessage receives
// each reassembled message in order. The payload is valid for the
// duration of the call only: the engine reassembles the connection's
// next message into the same buffer, so a handler copies what it keeps.
func (e *Engine) OpenRecv(localID uint16, remoteIP pkt.IP, onMessage func(payload []byte)) error {
	if _, dup := e.recv[localID]; dup {
		return fmt.Errorf("ltl: recv connection %d already allocated", localID)
	}
	rc := &recvConn{localID: localID, remoteIP: remoteIP, onMessage: onMessage}
	if e.cfg.DCQCN {
		rc.np = dcqcn.NewNotificationPoint(e.sim)
	}
	e.recv[localID] = rc
	return nil
}

// Close deallocates a connection pair entry (persistent "until they are
// deallocated").
func (e *Engine) Close(localID uint16) {
	if sc, ok := e.send[localID]; ok {
		e.sim.Cancel(sc.rtxTimer)
		if sc.rp != nil {
			sc.rp.Stop()
		}
		delete(e.send, localID)
	}
	delete(e.recv, localID)
}

// ConnFailed reports whether a send connection has been declared failed.
func (e *Engine) ConnFailed(localID uint16) bool {
	sc, ok := e.send[localID]
	return ok && sc.failed
}

// SendMessage segments payload into LTL Data frames on the given send
// connection. done (optional) is invoked when every frame of the message
// has been acknowledged — the paper's Fig. 10 latency measurement point
// ("until the corresponding ACK for that packet is received"). The
// engine keeps reading payload for retransmissions until then, so the
// caller must not modify it.
func (e *Engine) SendMessage(conn uint16, payload []byte, done func()) error {
	return e.SendOwned(conn, payload, done, nil)
}

// SendOwned is SendMessage for a payload that owner lends the engine:
// once every frame is acknowledged, or the connection fails and drops
// the message, the engine passes owner (if non-nil) to the
// SetMessageRelease hook, after which the payload may be reused. On an
// error return the caller keeps the owner.
func (e *Engine) SendOwned(conn uint16, payload []byte, done func(), owner any) error {
	sc, ok := e.send[conn]
	if !ok {
		return fmt.Errorf("ltl: send connection %d not allocated", conn)
	}
	if sc.failed {
		return fmt.Errorf("ltl: send connection %d failed", conn)
	}
	e.Stats.MessagesSent.Inc()
	n := (len(payload) + MTU - 1) / MTU
	if n == 0 {
		n = 1
	}
	now := e.sim.Now()
	for i := 0; i < n; i++ {
		lo := i * MTU
		hi := lo + MTU
		if hi > len(payload) {
			hi = len(payload)
		}
		var flags uint8
		if i == n-1 {
			flags = pkt.LTLFlagLast
		}
		fr := e.allocFrame()
		*fr = unackedFrame{seq: sc.nextSeq, payload: payload[lo:hi], flags: flags}
		if i == n-1 {
			fr.owner = owner
			if done != nil {
				sc.completions[fr.seq] = done
			}
			sc.sentMsgAt[fr.seq] = now
			if e.tracer != nil {
				id := e.tracer.Start(sc.flow, "ltl.msg", 0)
				e.tracer.SetArg(id, int64(len(payload)))
				sc.msgSpans[fr.seq] = id
			}
		}
		sc.nextSeq++
		sc.sendq = append(sc.sendq, fr)
	}
	e.pump(sc)
	return nil
}

// allocFrame takes an Unack'd Frame Store entry from the freelist.
func (e *Engine) allocFrame() *unackedFrame {
	if n := len(e.frFree); n > 0 {
		fr := e.frFree[n-1]
		e.frFree = e.frFree[:n-1]
		return fr
	}
	return new(unackedFrame)
}

// pump transmits queued frames subject to the window, DCQCN pacing, and
// the engine bandwidth limit.
func (e *Engine) pump(sc *sendConn) {
	now := e.sim.Now()
	sent := 0
	for ; sent < len(sc.sendq); sent++ {
		if len(sc.unacked) >= e.cfg.Window {
			break // window full; ACKs will re-pump
		}
		if sc.nextTxAt > now {
			e.schedulePump(sc, sc.nextTxAt-now)
			break
		}
		fr := sc.sendq[sent]
		size := len(fr.payload) + pkt.LTLHeaderLen + pkt.UDPHeaderLen + pkt.IPv4HeaderLen
		if wait := e.throttle(size); wait > 0 {
			e.Stats.ThrottleStalls.Inc()
			e.schedulePump(sc, wait)
			break
		}
		sc.unacked = append(sc.unacked, fr)
		fr.sentAt = now
		e.transmit(sc, fr)

		// DCQCN pacing: hold the inter-frame gap implied by the current
		// rate.
		if sc.rp != nil {
			gap := sim.Time(int64(size) * 8 * int64(sim.Second) / sc.rp.Rate())
			sc.nextTxAt = now + gap
		}
	}
	sc.sendq = slices.Delete(sc.sendq, 0, sent)
}

// schedulePump arms (at most one) deferred pump for the connection; the
// earliest requested deadline wins.
func (e *Engine) schedulePump(sc *sendConn, d sim.Time) {
	if d < 1 {
		d = 1
	}
	at := e.sim.Now() + d
	if sc.pumpTimer != (sim.Timer{}) {
		if sc.pumpTimer.At() <= at {
			return // an earlier (or equal) wakeup is already armed
		}
		e.sim.Cancel(sc.pumpTimer)
	}
	sc.pumpTimer = e.sim.ScheduleCall(d, pumpFire, sc)
}

// pumpFire is the static deferred-pump callback.
func pumpFire(v any) {
	sc := v.(*sendConn)
	sc.pumpTimer = sim.Timer{}
	sc.e.pump(sc)
}

// throttle implements the engine-wide token bucket; returns how long to
// wait before size bytes may be sent (0 = proceed, tokens consumed).
func (e *Engine) throttle(size int) sim.Time {
	if e.cfg.BandwidthLimitBps <= 0 {
		return 0
	}
	now := e.sim.Now()
	elapsed := now - e.tbLastFill
	e.tbTokens += float64(elapsed) / float64(sim.Second) * float64(e.cfg.BandwidthLimitBps) / 8
	burst := float64(e.cfg.BandwidthLimitBps) / 8 * 100e-6 // 100 µs of burst
	if e.tbTokens > burst {
		e.tbTokens = burst
	}
	e.tbLastFill = now
	if e.tbTokens >= float64(size) {
		e.tbTokens -= float64(size)
		return 0
	}
	need := float64(size) - e.tbTokens
	w := sim.Time(need * 8 / float64(e.cfg.BandwidthLimitBps) * float64(sim.Second))
	if w <= 0 {
		// A sub-nanosecond deficit must still stall (a zero wait would be
		// read as a grant without any tokens being debited).
		w = 1
	}
	return w
}

// transmit frames one LTL Data packet and hands it to the wire after the
// engine's pipeline latency, arming the retransmit timer.
func (e *Engine) transmit(sc *sendConn, fr *unackedFrame) {
	h := pkt.LTLHeader{
		Type: pkt.LTLData, Flags: fr.flags, VC: sc.vc,
		SrcConn: sc.localID, DstConn: sc.remoteConn,
		Seq: fr.seq,
	}
	buf := e.emit(sc.remoteIP, sc.remoteMAC, h, fr.payload)
	e.Stats.FramesSent.Inc()
	e.Stats.BytesSent.Add(uint64(len(buf)))
	if e.tracer != nil {
		e.tracer.Event(sc.flow, "ltl.tx", 0, int64(fr.seq))
	}
	e.armRetransmit(sc)
}

// armRetransmit (re)starts the retransmit timer if frames are in flight.
func (e *Engine) armRetransmit(sc *sendConn) {
	if sc.rtxTimer != (sim.Timer{}) {
		return
	}
	sc.rtxTimer = e.sim.ScheduleCall(retransmitTimeout, rtxFire, sc)
}

// rtxFire is the static retransmit-timer callback.
func rtxFire(v any) {
	sc := v.(*sendConn)
	sc.rtxTimer = sim.Timer{}
	sc.e.onTimeout(sc)
}

// onTimeout retransmits all unACKed frames (go-back-N) and counts strikes
// toward failure detection.
func (e *Engine) onTimeout(sc *sendConn) {
	if len(sc.unacked) == 0 || sc.failed {
		return
	}
	e.Stats.Timeouts.Inc()
	if e.tracer != nil {
		e.tracer.Event(sc.flow, "ltl.timeout", 0, int64(sc.retries+1))
	}
	sc.retries++
	if sc.retries > maxRetries {
		sc.failed = true
		e.Stats.ConnFailures.Inc()
		e.dropFrames(sc)
		if sc.onFail != nil {
			sc.onFail()
		}
		return
	}
	for _, fr := range sc.unacked {
		e.Stats.Retransmits.Inc()
		e.retransmitFrame(sc, fr)
	}
	e.armRetransmit(sc)
}

// dropFrames empties a failed connection's Unack'd Frame Store and send
// queue: nothing is sent on it again, so each dropped message's owner is
// released. Their completions never fire.
func (e *Engine) dropFrames(sc *sendConn) {
	for _, q := range [2][]*unackedFrame{sc.unacked, sc.sendq} {
		for _, fr := range q {
			e.retireFrame(fr)
		}
	}
	sc.unacked, sc.sendq = nil, nil
}

// retireFrame hands fr's message owner (if any) to the release hook and
// returns fr, which no queue holds any more, to the freelist.
func (e *Engine) retireFrame(fr *unackedFrame) {
	if fr.owner != nil && e.msgRelease != nil {
		e.msgRelease(fr.owner)
	}
	*fr = unackedFrame{}
	e.frFree = append(e.frFree, fr)
}

func (e *Engine) retransmitFrame(sc *sendConn, fr *unackedFrame) {
	h := pkt.LTLHeader{
		Type: pkt.LTLData, Flags: fr.flags, VC: sc.vc,
		SrcConn: sc.localID, DstConn: sc.remoteConn,
		Seq: fr.seq,
	}
	e.emit(sc.remoteIP, sc.remoteMAC, h, fr.payload)
	if e.tracer != nil {
		e.tracer.Event(sc.flow, "ltl.rtx", 0, int64(fr.seq))
	}
}

// HandleFrame ingests one LTL-classified frame from the wire (called by
// the shell's tap). Non-LTL payloads are ignored.
func (e *Engine) HandleFrame(f *pkt.Frame) {
	h, payload, err := pkt.DecodeLTL(f.Payload)
	if err != nil {
		if e.release != nil {
			e.release(f)
		}
		return
	}
	var j *rxJob
	if n := len(e.rxFree); n > 0 {
		j = e.rxFree[n-1]
		e.rxFree = e.rxFree[:n-1]
	} else {
		j = &rxJob{e: e}
	}
	j.f, j.h, j.payload = f, h, payload
	e.sim.ScheduleCall(rxProc, dispatchJob, j)
}

// dispatch hands a received frame to its type's handler. A frame of any
// other type, such as the unassigned 4-6 and 8, is dropped.
func (e *Engine) dispatch(f *pkt.Frame, h pkt.LTLHeader, payload []byte) {
	switch h.Type {
	case pkt.LTLData:
		e.onData(f, h, payload)
	case pkt.LTLAck:
		e.onAck(h)
	case pkt.LTLNack:
		e.onNack(h)
	case pkt.LTLCNP:
		e.onCNP(h)
	case pkt.LTLDatagram:
		e.onDatagram(f, h, payload)
	}
}

// onData is the Receive State Machine: in-order delivery, duplicate
// re-ACK, NACK on reorder, ECN-to-CNP conversion.
func (e *Engine) onData(f *pkt.Frame, h pkt.LTLHeader, payload []byte) {
	rc, ok := e.recv[h.DstConn]
	if !ok {
		return
	}
	e.Stats.FramesRecv.Inc()

	// DCQCN notification point: convert switch ECN marks into CNPs.
	if rc.np != nil && f.ECN == pkt.ECNCE {
		flow := uint64(h.SrcConn)<<32 | uint64(f.SrcIP.U32())
		if rc.np.OnMarkedPacket(flow) {
			e.sendCNP(f.SrcIP, f.Src, h.SrcConn, h.DstConn)
		}
	}

	switch {
	case h.Seq == rc.expectedSeq:
		rc.expectedSeq++
		if len(rc.assembling) == 0 {
			rc.firstRxAt = e.sim.Now()
		}
		rc.assembling = append(rc.assembling, payload...)
		if h.Flags&pkt.LTLFlagLast != 0 {
			msg := rc.assembling
			e.Stats.MessagesRecv.Inc()
			e.Stats.DeliveryLatency.Observe(int64(e.sim.Now() - rc.firstRxAt))
			if e.tracer != nil {
				// Same tuple the sender hashed, read off the frame.
				flow := obs.LTLFlow(f.SrcIP.U32(), e.wire.LocalIP().U32(), h.SrcConn, rc.localID)
				e.tracer.Range(flow, "ltl.deliver", 0, int64(rc.firstRxAt), int64(len(msg)))
			}
			if rc.onMessage != nil {
				rc.onMessage(msg)
			}
			rc.assembling = msg[:0]
		}
		e.sendAck(rc, f.SrcIP, f.Src, h.SrcConn)
	case h.Seq < rc.expectedSeq:
		// Duplicate (retransmission of something we already have): re-ACK
		// so the sender's store drains.
		e.Stats.Duplicates.Inc()
		e.sendAck(rc, f.SrcIP, f.Src, h.SrcConn)
	default:
		// Reorder/loss detected: request timely retransmission without
		// waiting for the sender's timeout.
		e.Stats.OutOfOrder.Inc()
		if !e.cfg.DisableNACK {
			e.sendNack(rc, f.SrcIP, f.Src, h.SrcConn)
		}
	}
}

// sendAck emits a cumulative ACK for everything below expectedSeq.
func (e *Engine) sendAck(rc *recvConn, srcIP pkt.IP, srcMAC pkt.MAC, dst uint16) {
	h := pkt.LTLHeader{
		Type:    pkt.LTLAck,
		SrcConn: rc.localID, DstConn: dst,
		Ack: rc.expectedSeq,
	}
	e.Stats.AcksSent.Inc()
	e.emit(srcIP, srcMAC, h, nil)
}

// sendNack asks for retransmission starting at expectedSeq.
func (e *Engine) sendNack(rc *recvConn, srcIP pkt.IP, srcMAC pkt.MAC, dst uint16) {
	h := pkt.LTLHeader{
		Type:    pkt.LTLNack,
		SrcConn: rc.localID, DstConn: dst,
		Ack: rc.expectedSeq,
	}
	e.Stats.NacksSent.Inc()
	e.emit(srcIP, srcMAC, h, nil)
}

// sendCNP emits a DCQCN congestion notification toward the data sender.
func (e *Engine) sendCNP(dstIP pkt.IP, dstMAC pkt.MAC, dstConn, srcConn uint16) {
	h := pkt.LTLHeader{Type: pkt.LTLCNP, SrcConn: srcConn, DstConn: dstConn}
	e.Stats.CNPsSent.Inc()
	e.emit(dstIP, dstMAC, h, nil)
}

// onAck is the Ack Receiver: drain the Unack'd Frame Store up to the
// cumulative ack, fire completions, clear retry strikes, and re-pump.
func (e *Engine) onAck(h pkt.LTLHeader) {
	sc, ok := e.send[h.DstConn]
	if !ok {
		return
	}
	e.Stats.AcksRecv.Inc()
	advanced := false
	for len(sc.unacked) > 0 && seqLess(sc.unacked[0].seq, h.Ack) {
		fr := sc.unacked[0]
		sc.unacked = slices.Delete(sc.unacked, 0, 1)
		sc.ackedSeq = fr.seq + 1
		advanced = true
		if at, ok := sc.sentMsgAt[fr.seq]; ok {
			e.Stats.MessageRTT.Observe(int64(e.sim.Now() - at))
			delete(sc.sentMsgAt, fr.seq)
		}
		if sc.msgSpans != nil {
			if id, ok := sc.msgSpans[fr.seq]; ok {
				delete(sc.msgSpans, fr.seq)
				e.tracer.End(id)
			}
		}
		if done, ok := sc.completions[fr.seq]; ok {
			delete(sc.completions, fr.seq)
			done()
		}
		e.retireFrame(fr)
	}
	if advanced {
		sc.retries = 0
		e.sim.Cancel(sc.rtxTimer)
		sc.rtxTimer = sim.Timer{}
		if len(sc.unacked) > 0 {
			e.armRetransmit(sc)
		}
		e.pump(sc)
	}
}

// onNack retransmits from the requested sequence immediately.
func (e *Engine) onNack(h pkt.LTLHeader) {
	sc, ok := e.send[h.DstConn]
	if !ok {
		return
	}
	e.Stats.NacksRecv.Inc()
	// First treat the NACK's cumulative position like an ACK.
	e.onAck(pkt.LTLHeader{Type: pkt.LTLAck, DstConn: h.DstConn, Ack: h.Ack})
	for _, fr := range sc.unacked {
		if !seqLess(fr.seq, h.Ack) {
			e.Stats.Retransmits.Inc()
			e.retransmitFrame(sc, fr)
		}
	}
	if len(sc.unacked) > 0 {
		e.armRetransmit(sc)
	}
}

// onCNP applies DCQCN rate decrease to the named send connection.
func (e *Engine) onCNP(h pkt.LTLHeader) {
	sc, ok := e.send[h.DstConn]
	if !ok || sc.rp == nil {
		return
	}
	e.Stats.CNPsRecv.Inc()
	sc.rp.OnCNP()
}

// seqLess compares sequence numbers with wraparound (RFC 1982 style).
func seqLess(a, b uint32) bool {
	return int32(a-b) < 0
}

// InFlight reports unacknowledged frames on a connection (for tests).
func (e *Engine) InFlight(conn uint16) int {
	if sc, ok := e.send[conn]; ok {
		return len(sc.unacked)
	}
	return 0
}

// QueuedFrames reports frames not yet transmitted on a connection.
func (e *Engine) QueuedFrames(conn uint16) int {
	if sc, ok := e.send[conn]; ok {
		return len(sc.sendq)
	}
	return 0
}

// SendRate reports the connection's DCQCN-permitted rate in bps (line
// rate when DCQCN is disabled).
func (e *Engine) SendRate(conn uint16) int64 {
	if sc, ok := e.send[conn]; ok && sc.rp != nil {
		return sc.rp.Rate()
	}
	return dcqcn.LineRateBps
}
