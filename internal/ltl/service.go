package ltl

import (
	"repro/internal/pkt"
)

// Service datagrams are the engine's connection-less plane: the frame
// class network services hosted on the FPGA (the KV cache and the RPC NIC
// roles) terminate at line rate, without the host and without a
// connection-table entry per client, and the class svclb's hedge cancels
// ride. They carry payloads whose loss the service-level protocol
// tolerates end to end — a lost GET is retried or times out at the
// client, exactly like a lost memcached UDP request, and a lost cancel
// only wastes the loser's service time. They are never retransmitted by
// LTL and consume no window or sequencing state, which is what lets one
// shard serve thousands of clients.
//
// On the wire a service datagram is an LTL frame of type LTLDatagram;
// the VC field carries the application-assigned kind (e.g. KV request,
// KV response, RPC ingress). Inside the FPGA these frames traverse the
// Elastic Router on the service virtual channel, separated from the
// lease/connection plane (see internal/shell).

// DatagramHandler receives incoming service datagrams. src is the
// sending engine's IP; kind is the application-assigned class byte.
type DatagramHandler func(src pkt.IP, kind uint8, payload []byte)

// SetDatagramHandler installs the engine's service-datagram receiver
// (nil drops incoming service datagrams).
func (e *Engine) SetDatagramHandler(h DatagramHandler) { e.datagram = h }

// SendDatagram emits one service datagram toward a remote engine. No
// connection state is consulted or created; delivery is best-effort and
// unordered with respect to every other frame class.
func (e *Engine) SendDatagram(dstIP pkt.IP, dstMAC pkt.MAC, kind uint8, payload []byte) {
	h := pkt.LTLHeader{Type: pkt.LTLDatagram, VC: kind}
	e.Stats.DatagramsSent.Inc()
	e.emit(dstIP, dstMAC, h, payload)
}

// onDatagram delivers an incoming service datagram to the handler.
func (e *Engine) onDatagram(f *pkt.Frame, h pkt.LTLHeader, payload []byte) {
	e.Stats.DatagramsRecv.Inc()
	if e.datagram != nil {
		e.datagram(f.SrcIP, h.VC, payload)
	}
}
