package netsim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Host models a server's NIC-facing side of the fabric. The CPU, software
// stack latency, and PCIe are modeled in internal/host; this type is just
// the network attachment: a single NIC port, UDP demultiplexing, and a
// configurable protocol-stack traversal latency representing the cost the
// paper contrasts LTL against ("the time to get through the host's
// networking stack").
type Host struct {
	ID  int
	sim *sim.Simulation
	nic *Port

	// StackLatency is applied on both send and receive for traffic that
	// traverses the host software stack.
	StackLatency sim.Time

	handlers map[uint16]func(*pkt.Frame)
	// DefaultHandler receives frames with no registered UDP handler.
	DefaultHandler func(*Packet)

	ipidNext uint16

	Sent     metrics.Counter
	Received metrics.Counter
}

// HostStackLatency is the default one-way kernel/driver traversal time.
// Measured datacenter OS stacks of the paper's era took several
// microseconds per direction; LTL's advantage rests on skipping this.
const HostStackLatency = 5 * sim.Microsecond

// HostNICQueueBytes is the minimum egress buffering a host NIC gets: the
// OS qdisc plus ring buffers effectively backpressure sending software, so
// a host almost never tail-drops its own traffic locally.
const HostNICQueueBytes = 4 << 20

// NewHost creates a host with one NIC port using cfg.
func NewHost(s *sim.Simulation, id int, cfg PortConfig) *Host {
	if cfg.QueueBytes < HostNICQueueBytes {
		cfg.QueueBytes = HostNICQueueBytes
	}
	cfg.RED.PMax = 0 // hosts backpressure software rather than RED-drop
	h := &Host{
		ID: id, sim: s, StackLatency: HostStackLatency,
		handlers: make(map[uint16]func(*pkt.Frame)),
	}
	h.nic = NewPort(s, h, 0, cfg)
	return h
}

// DeviceName implements Device.
func (h *Host) DeviceName() string { return fmt.Sprintf("host%d", h.ID) }

// NIC returns the host's network port.
func (h *Host) NIC() *Port { return h.nic }

// IP returns the host's address (derived from its ID).
func (h *Host) IP() pkt.IP { return HostIP(h.ID) }

// MAC returns the host's Ethernet address (derived from its ID).
func (h *Host) MAC() pkt.MAC { return HostMAC(h.ID) }

// HostIP maps a host ID to its IPv4 address.
func HostIP(id int) pkt.IP {
	return pkt.IPFromU32(0x0a000000 + uint32(id))
}

// HostID recovers a host ID from an address produced by HostIP
// (ok=false for foreign addresses).
func HostID(ip pkt.IP) (int, bool) {
	v := ip.U32()
	if v < 0x0a000000 || v >= 0x0b000000 {
		return 0, false
	}
	return int(v - 0x0a000000), true
}

// HostMAC maps a host ID to its Ethernet address.
func HostMAC(id int) pkt.MAC {
	return pkt.MAC{0x02, 0x00, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

// HandleFrame implements Device: frames are demultiplexed to a
// registered UDP handler after the receive-side stack latency.
func (h *Host) HandleFrame(_ *Port, packet *Packet) {
	h.Received.Inc()
	if packet.F.UDPValid {
		if fn, ok := h.handlers[packet.F.DstPort]; ok {
			// The handler retains packet.F past this call (it runs after
			// the stack latency), so the packet is never recycled here.
			packet.dispatch = fn
			h.sim.ScheduleCall(h.StackLatency, dispatchUDP, packet)
			return
		}
	}
	if h.DefaultHandler != nil {
		h.DefaultHandler(packet) // may retain; not recycled
		return
	}
	packet.Free() // no listener: a closed port swallows the frame
}

// dispatchUDP delivers a received datagram to its registered handler
// after the receive-side stack traversal.
func dispatchUDP(v any) {
	packet := v.(*Packet)
	packet.dispatch(packet.F)
}

// RegisterUDP installs a handler for datagrams to the given port.
func (h *Host) RegisterUDP(port uint16, fn func(*pkt.Frame)) {
	h.handlers[port] = fn
}

// SendUDP emits a UDP datagram through the software stack (incurring
// StackLatency) and the NIC.
func (h *Host) SendUDP(dst pkt.IP, srcPort, dstPort uint16, class pkt.TrafficClass, payload []byte) {
	h.ipidNext++
	id := h.ipidNext
	h.sim.Schedule(h.StackLatency, func() {
		h.sendRaw(dst, srcPort, dstPort, class, id, payload)
	})
}

// SendUDPRaw emits a datagram bypassing the software stack (used by
// hardware-path models colocated with the host).
func (h *Host) SendUDPRaw(dst pkt.IP, srcPort, dstPort uint16, class pkt.TrafficClass, payload []byte) {
	h.ipidNext++
	h.sendRaw(dst, srcPort, dstPort, class, h.ipidNext, payload)
}

func (h *Host) sendRaw(dst pkt.IP, srcPort, dstPort uint16, class pkt.TrafficClass, id uint16, payload []byte) {
	dstMAC := pkt.Broadcast
	if hid, ok := HostID(dst); ok {
		dstMAC = HostMAC(hid)
	}
	buf := pkt.EncodeUDP(h.MAC(), dstMAC, h.IP(), dst, srcPort, dstPort, class, 64, id, payload)
	h.Sent.Inc()
	h.nic.Enqueue(NewPacket(buf))
}
