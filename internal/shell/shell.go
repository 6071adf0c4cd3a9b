// Package shell models the FPGA shell of Fig. 4: the common I/O and
// board-specific logic that hosts an application role. The shell owns the
// two 40GbE MACs and sits as a bump-in-the-wire between the server's NIC
// and the TOR switch, bridging all traffic while exposing:
//
//   - a network tap for roles to inspect, alter, inject, or consume
//     passing traffic (used by the crypto offload of §IV),
//   - the LTL protocol engine for direct FPGA-to-FPGA messaging,
//   - an Elastic Router connecting Role, PCIe DMA, and LTL (its DRAM
//     port is left unattached: on-chip services call the board's DRAM
//     controller directly),
//   - a role region that LoadRole or Reconfigure fills with one role
//     image, whose PCIe request handler is a Role (remote traffic reaches
//     role logic through the datagram and connection handlers instead),
//   - full/partial reconfiguration semantics (full reconfig briefly drops
//     the link; partial keeps packets flowing),
//   - configuration-scrubbing and SEU recovery (§II-B), and
//   - hop-by-hop PFC on both links, as a two-port switch: a PFC frame
//     arriving on either link pauses that link's egress, and each
//     lossless frame the bridge passes is charged to the port it came in
//     on, whose netsim ingress account pauses the link partner while too
//     many such bytes wait in the shell.
package shell

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/dram"
	"repro/internal/er"
	"repro/internal/ltl"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Direction of traffic through the bridge.
type Direction int

// Bridge directions.
const (
	HostToNet Direction = iota // NIC -> TOR (egress)
	NetToHost                  // TOR -> NIC (ingress)
)

// String names the direction.
func (d Direction) String() string {
	if d == HostToNet {
		return "host->net"
	}
	return "net->host"
}

// Tap is role logic on the bridge datapath. Process may return buf
// unchanged (pass), a re-encoded frame (transform — e.g. encrypt), or nil
// to consume the frame. The returned delay is added to the frame's bridge
// traversal, modeling the tap's hardware pipeline latency (e.g. the
// 11 µs AES-CBC-SHA1 pipeline of §IV).
type Tap interface {
	Process(dir Direction, buf []byte, f *pkt.Frame) (out []byte, delay sim.Time)
}

// Role is the PCIe request handler of the role image loaded into the
// shell's role region. It processes one host request and must eventually
// call respond exactly once (asynchronously via the simulation is fine).
// Remote traffic reaches role logic through the handlers the shell
// installs instead (SetServiceHandler, OpenRemoteRecv).
type Role func(payload []byte, respond func([]byte))

// The shell's fixed datapath parameters (§III).
const (
	// bridgeLatency is the store-and-forward latency of the bridge/bypass
	// pipeline (dominated by the 40G MAC/PHY pair).
	bridgeLatency = 270 * sim.Nanosecond
	// pcieLatency is the one-way DMA latency between host software and
	// the role.
	pcieLatency = 900 * sim.Nanosecond
	// pcieBps is the DMA bandwidth (one PCIe Gen3 x8 direction: 8 GB/s).
	pcieBps = 64e9
	// partialReconfigTime reconfigures the role slot with the bridge up.
	partialReconfigTime = 20 * sim.Millisecond
)

// Config parameterizes a shell instance.
type Config struct {
	// ScrubInterval is the configuration-scrubbing period ("roughly every
	// 30 seconds").
	ScrubInterval sim.Time
	// FullReconfigTime is the link-down window of a full reconfiguration.
	FullReconfigTime sim.Time
	// Slots partitions the role region into vFPGA slots for
	// multi-tenancy (slots.go). Count < 2 keeps the single-role shell.
	Slots SlotConfig

	LTL ltl.Config
	ER  er.Config
}

// DefaultConfig returns production-like shell parameters.
func DefaultConfig() Config {
	return Config{
		ScrubInterval:    30 * sim.Second,
		FullReconfigTime: 200 * sim.Millisecond,
		LTL:              ltl.DefaultConfig(),
		ER:               er.DefaultConfig(),
	}
}

// PCIeTime is the one-way DMA time of an n-byte transfer: the fixed
// latency plus serialization at the PCIe Gen3 x8 rate.
func PCIeTime(n int) sim.Time {
	return pcieLatency + sim.Time(int64(n)*8*int64(sim.Second)/pcieBps)
}

// Stats aggregates shell counters.
type Stats struct {
	Bridged      metrics.Counter // frames passed NIC<->TOR
	Tapped       metrics.Counter // frames transformed by a tap
	Consumed     metrics.Counter // frames consumed by a tap
	LTLConsumed  metrics.Counter // LTL frames terminated here
	DroppedDown  metrics.Counter // frames lost while the bridge was down
	SEUs         metrics.Counter
	ScrubPasses  metrics.Counter
	ScrubRepairs metrics.Counter
	RoleHangs    metrics.Counter
	Reconfigs    metrics.Counter
	PCIeReqs     metrics.Counter
	RemoteReqs   metrics.Counter
	DgramsSent   metrics.Counter // role->remote service datagrams (service plane)
	DgramsRecv   metrics.Counter // remote->role service datagrams delivered
}

// Shell is one FPGA's shell instance. It implements netsim.Interposer and
// ltl.Wire.
type Shell struct {
	cfg    Config
	sim    *sim.Simulation
	hostID int
	ip     pkt.IP
	mac    pkt.MAC

	hostPort *netsim.Port // faces the NIC
	netPort  *netsim.Port // faces the TOR

	// Engine is the shell's LTL protocol engine.
	Engine *ltl.Engine
	// Router is the on-chip Elastic Router.
	Router *er.Router
	// DRAM is the board's DDR3 channel; on-chip services (the KV store)
	// call its controller directly.
	DRAM *dram.Controller

	termPCIe   *er.Terminal
	termRole   *er.Terminal
	termRemote *er.Terminal

	// role is the loaded image's PCIe handler (nil: it takes no PCIe
	// requests); loaded records that a role image occupies the region.
	role     Role
	loaded   bool
	roleUp   bool
	roleHung bool
	taps     []Tap

	bridgeUp     bool
	goldenLoaded bool
	failed       bool // hard failure: down until Repair, no auto-recovery

	// OnScrubRepair, if set, is called whenever a scrub pass repairs a
	// hung role — lets fault harnesses measure wedge-to-recovery latency.
	OnScrubRepair func()

	// lossRate injects egress frame loss on the TOR link (fault
	// injection: an unstable 40G link like the one §II-B replaced).
	lossRate float64
	lossRng  *rand.Rand

	// service-datagram receiver (service.go).
	serviceHandler func(fromHost int, kind uint8, payload []byte)
	// dgramIngress records that the engine-side datagram receiver is
	// installed (shared by the global handler and slot handlers).
	dgramIngress bool
	// scratch is the reused encode buffer for every message the shell
	// builds for an ER terminal's Send (service datagrams and remote
	// connection messages), which copies it into flits before returning.
	scratch []byte

	// ltlInflight tracks network packets loaned to the LTL engine
	// (HandleFrame); the engine's frame-release hook recycles them.
	ltlInflight map[*pkt.Frame]*netsim.Packet

	// vFPGA slots (slots.go): slot state, datagram-kind routing, and
	// the multi-tenancy counters. Empty on single-role shells.
	slots    []*vSlot
	kindSlot map[uint8]int
	Tenant   TenantStats

	// remote request plumbing: connection id -> handler.
	remoteRecv map[uint16]func(payload []byte)
	// remoteDone holds per-connection FIFO completion callbacks (LTL
	// messages on one connection complete in order).
	remoteDone map[uint16][]func()
	// pending PCIe responses keyed by request id.
	pcieWaiters map[uint64]func([]byte)
	nextReqID   uint64

	// tracer is cached at construction; nil when observability is off.
	tracer *obs.Tracer

	Stats Stats
}

// New creates a shell for the host with the given id; its LTL engine
// shares the host's IP (distinguished by the LTL UDP port), exactly as a
// bump-in-the-wire shares the server's network identity.
func New(s *sim.Simulation, hostID int, portCfg netsim.PortConfig, cfg Config) *Shell {
	if cfg.Slots.Count >= 2 && cfg.ER.VCs < slotVCBase+cfg.Slots.Count {
		// Each vFPGA slot gets its own ER service virtual channel on top
		// of the VCService/VCLease pair.
		cfg.ER.VCs = slotVCBase + cfg.Slots.Count
	}
	sh := &Shell{
		cfg: cfg, sim: s, hostID: hostID,
		ip:  netsim.HostIP(hostID),
		mac: netsim.HostMAC(hostID),

		bridgeUp:     true,
		goldenLoaded: true,
		remoteRecv:   make(map[uint16]func([]byte)),
		remoteDone:   make(map[uint16][]func()),
		pcieWaiters:  make(map[uint64]func([]byte)),
		tracer:       obs.TracerOf(s),
	}
	sh.hostPort = netsim.NewPort(s, sh, 0, portCfg)
	sh.netPort = netsim.NewPort(s, sh, 1, portCfg)
	sh.Engine = ltl.New(s, sh, cfg.LTL)
	sh.ltlInflight = make(map[*pkt.Frame]*netsim.Packet)
	sh.Engine.SetFrameRelease(sh.releaseLTLFrame)
	sh.Engine.SetMessageRelease(releaseERMessage)

	sh.Router = er.New(s, cfg.ER)
	sh.Router.ObsID = hostID
	if r := obs.RegistryOf(s); r != nil {
		r.Counter("shell.bridged", "frames", "shell", "frames bridged NIC<->TOR", &sh.Stats.Bridged)
		r.Counter("shell.tapped", "frames", "shell", "frames transformed by a tap", &sh.Stats.Tapped)
		r.Counter("shell.consumed", "frames", "shell", "frames consumed by a tap", &sh.Stats.Consumed)
		r.Counter("shell.ltl_consumed", "frames", "shell", "LTL frames terminated at the engine", &sh.Stats.LTLConsumed)
		r.Counter("shell.dropped_down", "frames", "shell", "frames lost while the bridge was down", &sh.Stats.DroppedDown)
		r.Counter("shell.seus", "events", "shell", "injected configuration upsets", &sh.Stats.SEUs)
		r.Counter("shell.scrub_passes", "events", "shell", "configuration scrub passes", &sh.Stats.ScrubPasses)
		r.Counter("shell.scrub_repairs", "events", "shell", "hung roles repaired by scrubbing", &sh.Stats.ScrubRepairs)
		r.Counter("shell.role_hangs", "events", "shell", "role wedges from SEUs", &sh.Stats.RoleHangs)
		r.Counter("shell.reconfigs", "events", "shell", "role reconfigurations", &sh.Stats.Reconfigs)
		r.Counter("shell.pcie_reqs", "reqs", "shell", "host->role requests over PCIe DMA", &sh.Stats.PCIeReqs)
		r.Counter("shell.remote_reqs", "reqs", "shell", "role->remote messages entering LTL", &sh.Stats.RemoteReqs)
		r.Counter("shell.dgrams_sent", "dgrams", "shell", "role->remote service datagrams", &sh.Stats.DgramsSent)
		r.Counter("shell.dgrams_recv", "dgrams", "shell", "remote->role service datagrams delivered", &sh.Stats.DgramsRecv)
	}
	buf := cfg.ER.BufFlits
	sh.termPCIe = er.NewTerminal(s, sh.Router, er.PortPCIe, er.PortPCIe, buf)
	sh.termRole = er.NewTerminal(s, sh.Router, er.PortRole, er.PortRole, buf)
	sh.termRemote = er.NewTerminal(s, sh.Router, er.PortRemote, er.PortRemote, buf)

	sh.termRole.OnMessage = sh.onRoleMessage
	sh.termRemote.OnMessage = sh.onRemoteMessage
	sh.termPCIe.OnMessage = sh.onPCIeMessage
	sh.DRAM = dram.New(s, dram.DefaultConfig())

	sh.initSlots()

	if cfg.ScrubInterval > 0 {
		s.Every(cfg.ScrubInterval, cfg.ScrubInterval, sh.scrub)
	}
	return sh
}

// DeviceName implements netsim.Device.
func (sh *Shell) DeviceName() string { return fmt.Sprintf("fpga%d", sh.hostID) }

// HostPort implements netsim.Interposer.
func (sh *Shell) HostPort() *netsim.Port { return sh.hostPort }

// NetPort implements netsim.Interposer.
func (sh *Shell) NetPort() *netsim.Port { return sh.netPort }

// LocalIP implements ltl.Wire.
func (sh *Shell) LocalIP() pkt.IP { return sh.ip }

// LocalMAC implements ltl.Wire.
func (sh *Shell) LocalMAC() pkt.MAC { return sh.mac }

// HostID returns the host this shell fronts.
func (sh *Shell) HostID() int { return sh.hostID }

// SetEgressLossRate makes the TOR-side link drop the given fraction of
// outgoing frames — fault injection for the LTL loss-recovery experiment.
func (sh *Shell) SetEgressLossRate(p float64) {
	sh.lossRate = p
	if sh.lossRng == nil {
		sh.lossRng = sh.sim.NewRand()
	}
}

// Output implements ltl.Wire: LTL frames enter the network on the TOR
// side after the bridge pipeline.
func (sh *Shell) Output(buf []byte) {
	if !sh.bridgeUp {
		sh.Stats.DroppedDown.Inc()
		return
	}
	if sh.lossRate > 0 && sh.lossRng.Float64() < sh.lossRate {
		return // flaky link ate the frame
	}
	// Copy-in: the engine's TX buffers are pooled and recycled as soon as
	// Output returns, so the packet must own its bytes.
	packet := netsim.NewPacketCopy(buf)
	if sh.tracer != nil && packet.F.IsLTL() {
		// Stamp the flow so every fabric hop can hang spans off the
		// packet: the flow tuple is recomputed from header fields alone,
		// matching what the LTL engines hash on both ends.
		if h, _, err := pkt.DecodeLTL(packet.F.Payload); err == nil {
			packet.Flow = obs.LTLFlow(packet.F.SrcIP.U32(), packet.F.DstIP.U32(), h.SrcConn, h.DstConn)
			packet.FlowSeq = uint64(h.Seq)
		}
	}
	packet.NextPort = sh.netPort
	sh.sim.ScheduleCall(bridgeLatency, netsim.EnqueueCall, packet)
}

// releaseLTLFrame is the engine's frame-release hook: the loaned packet
// is dead once the engine has dispatched it, so it returns to the pool.
func (sh *Shell) releaseLTLFrame(f *pkt.Frame) {
	if p, ok := sh.ltlInflight[f]; ok {
		delete(sh.ltlInflight, f)
		p.Free()
	}
}

// AddTap appends a tap to the bridge datapath (taps run in order).
func (sh *Shell) AddTap(t Tap) { sh.taps = append(sh.taps, t) }

// HandleFrame implements netsim.Device: the bridge. A bridged lossless
// frame is charged to the port it arrived on until it leaves the far
// side's queue.
func (sh *Shell) HandleFrame(p *netsim.Port, packet *netsim.Packet) {
	if !sh.bridgeUp {
		sh.Stats.DroppedDown.Inc()
		packet.Free()
		return
	}

	var dir Direction
	var fwd *netsim.Port
	if p == sh.hostPort {
		dir, fwd = HostToNet, sh.netPort
	} else {
		dir, fwd = NetToHost, sh.hostPort
	}

	// LTL frames addressed to this node terminate in the protocol engine.
	// The packet is loaned to the engine across its rx pipeline delay;
	// the frame-release hook recycles it once dispatch completes.
	if dir == NetToHost && packet.F.IsLTL() && packet.F.DstIP == sh.ip {
		sh.Stats.LTLConsumed.Inc()
		sh.ltlInflight[packet.F] = packet
		sh.Engine.HandleFrame(packet.F)
		return
	}

	buf := packet.Buf
	f := packet.F
	var tapDelay sim.Time
	for _, tap := range sh.taps {
		out, delay := tap.Process(dir, buf, f)
		tapDelay += delay
		if out == nil {
			sh.Stats.Consumed.Inc()
			packet.Free()
			return
		}
		if &out[0] != &buf[0] || len(out) != len(buf) {
			sh.Stats.Tapped.Inc()
			buf = out
			nf, err := pkt.Decode(buf)
			if err != nil {
				panic(fmt.Sprintf("shell: tap produced undecodable frame: %v", err))
			}
			f = nf
		}
	}
	sh.Stats.Bridged.Inc()

	out := packet
	if f != packet.F {
		// A tap rewrote the frame; the original is dead.
		out = &netsim.Packet{Buf: buf, F: f}
		packet.Free()
	}
	p.Hold(out, fwd)
	out.NextPort = fwd
	sh.sim.ScheduleCall(bridgeLatency+tapDelay, netsim.EnqueueCall, out)
}

// ---- Role slot ----

// LoadRole loads a role image and marks it serving, with r as its PCIe
// request handler (nil: the role takes no PCIe requests). Loading is
// instantaneous; use Reconfigure to model the reconfiguration window.
func (sh *Shell) LoadRole(r Role) {
	sh.role = r
	sh.loaded = true
	sh.roleUp = true
	sh.roleHung = false
}

// RoleUp reports whether the role slot is serving requests.
func (sh *Shell) RoleUp() bool { return sh.roleUp && !sh.roleHung }

// Reconfigure loads newRole. Full reconfiguration drops the bridge for
// FullReconfigTime ("Full FPGA reconfiguration briefly brings down this
// network link"); partial reconfiguration keeps packets flowing.
func (sh *Shell) Reconfigure(partial bool, newRole Role) {
	sh.Stats.Reconfigs.Inc()
	sh.roleUp = false
	dur := sh.cfg.FullReconfigTime
	if partial {
		dur = partialReconfigTime
	} else {
		sh.bridgeUp = false
	}
	sh.sim.Schedule(dur, func() {
		if sh.failed {
			return // died mid-reconfig; Repair owns recovery
		}
		sh.bridgeUp = true
		sh.LoadRole(newRole)
	})
}

// PowerCycle models the management-path recovery of §II: the known-good
// golden image reloads, the role slot empties, and the link returns.
func (sh *Shell) PowerCycle() {
	sh.bridgeUp = false
	sh.unloadRole()
	sh.failSlots()
	sh.sim.Schedule(sh.cfg.FullReconfigTime, func() {
		if sh.failed {
			return // died mid-cycle; Repair owns recovery
		}
		sh.bridgeUp = true
		sh.goldenLoaded = true
	})
}

// Fail hard-kills the FPGA (the §II-B "hard failure" class: board or
// datacenter-network issues needing manual intervention). The bridge goes
// down, the role slot empties, and nothing auto-recovers until Repair.
func (sh *Shell) Fail() {
	sh.failed = true
	sh.bridgeUp = false
	sh.unloadRole()
	sh.failSlots()
}

// unloadRole empties the role region.
func (sh *Shell) unloadRole() {
	sh.role = nil
	sh.loaded = false
	sh.roleUp = false
	sh.roleHung = false
}

// Repair models the manual fix/replacement of a hard-failed board: the
// golden image reloads and the bridge returns after a full reconfiguration.
func (sh *Shell) Repair() {
	if !sh.failed {
		return
	}
	sh.failed = false
	sh.sim.Schedule(sh.cfg.FullReconfigTime, func() {
		if sh.failed {
			return
		}
		sh.bridgeUp = true
		sh.goldenLoaded = true
	})
}

// Failed reports whether the shell is hard-failed (down until Repair).
func (sh *Shell) Failed() bool { return sh.failed }

// BridgeUp reports whether the NIC<->TOR bridge is currently passing
// traffic.
func (sh *Shell) BridgeUp() bool { return sh.bridgeUp }

// InjectSEU flips configuration bits. With probability hangRole the role
// wedges until the next scrub pass (the paper observed one such hang).
func (sh *Shell) InjectSEU(hangRole bool) {
	sh.Stats.SEUs.Inc()
	if hangRole && sh.roleUp {
		sh.roleHung = true
		sh.Stats.RoleHangs.Inc()
	}
}

// scrub is the periodic configuration scrubber: it repairs flipped bits
// and recovers hung roles automatically.
func (sh *Shell) scrub() {
	if sh.failed {
		return // no scrubbing on a dead board
	}
	sh.Stats.ScrubPasses.Inc()
	if sh.roleHung {
		sh.roleHung = false
		sh.Stats.ScrubRepairs.Inc()
		if sh.OnScrubRepair != nil {
			sh.OnScrubRepair()
		}
	}
}

// ---- Local (PCIe) acceleration path ----

// pcieHeaderLen prefixes PCIe ER messages with a request id.
const pcieHeaderLen = 8

func encodeReq(id uint64, payload []byte) []byte {
	buf := make([]byte, pcieHeaderLen+len(payload))
	binary.BigEndian.PutUint64(buf, id)
	copy(buf[pcieHeaderLen:], payload)
	return buf
}

func decodeReq(buf []byte) (id uint64, payload []byte) {
	return binary.BigEndian.Uint64(buf), buf[pcieHeaderLen:]
}

// PCIeCall sends a request from host software to the role over the PCIe
// DMA engine and the ER, invoking reply with the role's response. It
// models DMA latency and bandwidth in both directions, and errors when
// the role is down or takes no PCIe requests.
func (sh *Shell) PCIeCall(payload []byte, reply func([]byte)) error {
	if !sh.RoleUp() || sh.role == nil {
		return fmt.Errorf("shell %d: role not available", sh.hostID)
	}
	sh.Stats.PCIeReqs.Inc()
	sh.nextReqID++
	id := sh.nextReqID
	sh.pcieWaiters[id] = reply
	dma := PCIeTime(len(payload))
	msg := encodeReq(id, payload)
	sh.sim.Schedule(dma, func() {
		sh.termPCIe.Send(er.PortRole, 0, msg)
	})
	return nil
}

// onRoleMessage delivers ER messages addressed to the role slot. Requests
// from the PCIe DMA engine carry the request header and get the respond
// plumbing; deliveries from the Remote (LTL) port dispatch to the handler
// registered for their receive connection, and the message is recycled
// when the handler returns.
func (sh *Shell) onRoleMessage(m *er.Message) {
	if m.SrcNode == er.PortRemote {
		conn := binary.BigEndian.Uint16(m.Payload)
		if conn == dgramConn {
			sh.onRoleDgram(m)
			return
		}
		if h := sh.remoteRecv[conn]; h != nil {
			h(m.Payload[2:])
		}
		er.FreeMessage(m)
		return
	}
	if !sh.RoleUp() || sh.role == nil {
		return // a hung, empty or PCIe-less role slot swallows requests
	}
	id, payload := decodeReq(m.Payload)
	back := m.SrcNode
	vc := m.VC
	sh.role(payload, func(resp []byte) {
		sh.termRole.Send(back, vc, encodeReq(id, resp))
	})
}

// onPCIeMessage completes host-side waiters (role responses surfacing
// through the DMA engine).
func (sh *Shell) onPCIeMessage(m *er.Message) {
	id, payload := decodeReq(m.Payload)
	reply, ok := sh.pcieWaiters[id]
	if !ok {
		return
	}
	delete(sh.pcieWaiters, id)
	sh.sim.Schedule(PCIeTime(len(payload)), func() { reply(payload) })
}

// ---- Remote (LTL) acceleration path ----

// remote messages between shells carry the target receive-connection id in
// the LTL connection tables themselves; the ER message toward the Remote
// port carries a 2-byte connection id prefix.

// OpenRemoteSend allocates an LTL send connection toward a remote shell.
func (sh *Shell) OpenRemoteSend(conn uint16, remoteHost int, remoteConn uint16) error {
	if conn == dgramConn || remoteConn == dgramConn {
		return fmt.Errorf("shell %d: connection id %#x is reserved for service datagrams", sh.hostID, dgramConn)
	}
	return sh.Engine.OpenSend(conn, netsim.HostIP(remoteHost), netsim.HostMAC(remoteHost), remoteConn, 0, nil)
}

// OpenRemoteRecv allocates an LTL receive connection; handler receives
// each message after it crosses the ER from the Remote port to the Role.
// As for service datagrams, the payload is valid for the duration of the
// call only: its buffer carries a later message once the handler
// returns, so a handler copies what it keeps.
func (sh *Shell) OpenRemoteRecv(conn uint16, fromHost int, handler func(payload []byte)) error {
	if conn == dgramConn {
		return fmt.Errorf("shell %d: connection id %#x is reserved for service datagrams", sh.hostID, dgramConn)
	}
	err := sh.Engine.OpenRecv(conn, netsim.HostIP(fromHost), func(payload []byte) {
		// Deliver through the ER: Remote -> Role, modeling the on-chip hop.
		sh.termRemote.Send(er.PortRole, VCLease, sh.appendConnMsg(conn, payload))
	})
	if err == nil {
		sh.remoteRecv[conn] = handler
	}
	return err
}

// appendConnMsg builds a connection message (2-byte connection id, then
// the payload) in the shell's scratch buffer for an ER terminal's Send.
func (sh *Shell) appendConnMsg(conn uint16, payload []byte) []byte {
	sh.scratch = binary.BigEndian.AppendUint16(sh.scratch[:0], conn)
	sh.scratch = append(sh.scratch, payload...)
	return sh.scratch
}

// releaseERMessage is the LTL engine's message-release hook: the ER
// message a role-originated LTL message was sent from is recycled once
// the engine stops reading it.
func releaseERMessage(owner any) { er.FreeMessage(owner.(*er.Message)) }

// onRemoteMessage moves role-originated messages into the LTL engine
// (Role -> Remote direction). The engine sends and retransmits straight
// from the ER message, which it hands back to releaseERMessage once the
// message is acknowledged or its connection fails.
func (sh *Shell) onRemoteMessage(m *er.Message) {
	conn := binary.BigEndian.Uint16(m.Payload)
	if conn == dgramConn {
		sh.onRemoteDgram(m)
		return
	}
	payload := m.Payload[2:]
	sh.Stats.RemoteReqs.Inc()
	var done func()
	if q := sh.remoteDone[conn]; len(q) > 0 {
		done = q[0]
		sh.remoteDone[conn] = slices.Delete(q, 0, 1)
	}
	if err := sh.Engine.SendOwned(conn, payload, done, m); err != nil {
		er.FreeMessage(m)
		if done != nil {
			done()
		}
	}
}

// SendRemote sends payload from the role to the remote shell on an
// already-open send connection, crossing the on-chip ER and the LTL
// engine. done (optional) fires when the message is fully ACKed. The
// payload is copied into ER flits before SendRemote returns, so the
// caller may reuse its buffer at once.
//
// SendRemote on one connection completes in order, so completion
// callbacks are queued FIFO per connection.
func (sh *Shell) SendRemote(conn uint16, payload []byte, done func()) {
	if done != nil {
		sh.remoteDone[conn] = append(sh.remoteDone[conn], done)
	}
	sh.termRole.Send(er.PortRemote, VCLease, sh.appendConnMsg(conn, payload))
}
