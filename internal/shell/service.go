package shell

import (
	"encoding/binary"

	"repro/internal/er"
	"repro/internal/netsim"
)

// Service-datagram plumbing: the shell-level face of LTL's connection-less
// data plane (internal/ltl/service.go). Network services terminated on the
// FPGA — the KV cache shard, the RPC NIC — exchange request/response
// payloads as service datagrams, so a shard can serve an arbitrary client
// population with zero connection-table entries and zero host round-trips.
//
// On chip, the two planes ride separate ER virtual channels between the
// Role and Remote ports:
//
//	VC 0 (VCService): service datagrams (this file),
//	VC 1 (VCLease):   the lease/connection plane (SendRemote and
//	                  OpenRemoteRecv deliveries).
//
// The split means an incast burst of KV requests queues behind other
// service traffic, not behind the reliable connections the HaaS control
// plane and svclb pools depend on — and er.Stats.VCFlits makes the
// separation auditable.
const (
	// VCService is the ER virtual channel carrying service datagrams
	// between the Role and Remote ports.
	VCService = 0
	// VCLease is the ER virtual channel carrying the connection/lease
	// plane on the same port pair.
	VCLease = 1
)

// dgramConn is the reserved connection-id prefix marking an ER message on
// the Role<->Remote path as a service datagram rather than connection
// traffic. Real connections may not use it (OpenRemoteRecv/OpenRemoteSend
// reject it).
const dgramConn uint16 = 0xFFFF

// dgramHeaderLen prefixes the ER message: 2-byte marker, 1-byte kind,
// 4-byte peer host id (destination on Role->Remote, source on
// Remote->Role).
const dgramHeaderLen = 7

func encodeDgram(kind uint8, host int, payload []byte) []byte {
	return appendDgram(nil, kind, host, payload)
}

// appendDgram encodes a service datagram into dst's storage. The ER
// terminal copies message payloads into flit-owned buffers at Send time,
// so the send paths below build datagrams in the per-shell scratch
// buffer (the allocating encodeDgram remains for paths that must retain
// the message, e.g. a throttled slot send).
func appendDgram(dst []byte, kind uint8, host int, payload []byte) []byte {
	dst = append(dst[:0], 0, 0, kind, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(dst, dgramConn)
	binary.BigEndian.PutUint32(dst[3:], uint32(host))
	return append(dst, payload...)
}

// SendDatagram sends a connection-less service datagram from the role to
// the role on a remote shell: Role -> ER (VCService) -> LTL -> fabric.
// Delivery is best-effort; services own their own timeout/retry story.
func (sh *Shell) SendDatagram(remoteHost int, kind uint8, payload []byte) {
	sh.Stats.DgramsSent.Inc()
	sh.scratch = appendDgram(sh.scratch, kind, remoteHost, payload)
	sh.termRole.Send(er.PortRemote, VCService, sh.scratch)
}

// SetServiceHandler installs the role's receiver for incoming service
// datagrams (nil drops them). Each datagram crosses the ER from the
// Remote port to the Role on VCService before the handler sees it — the
// on-chip hop a real shard's request pipeline pays.
func (sh *Shell) SetServiceHandler(h func(fromHost int, kind uint8, payload []byte)) {
	sh.serviceHandler = h
	if h == nil {
		if len(sh.kindSlot) == 0 {
			sh.Engine.SetDatagramHandler(nil)
			sh.dgramIngress = false
		}
		return
	}
	sh.ensureDgramIngress()
}

// onRoleDgram completes the Remote -> Role delivery of a service datagram.
// The ER message is recycled on return: datagram handlers receive the
// payload for the duration of the call only and must copy what they keep.
func (sh *Shell) onRoleDgram(m *er.Message) {
	defer er.FreeMessage(m)
	if len(m.Payload) < dgramHeaderLen {
		return
	}
	sh.Stats.DgramsRecv.Inc()
	kind := m.Payload[2]
	from := int(binary.BigEndian.Uint32(m.Payload[3:]))
	if si, ok := sh.kindSlot[kind]; ok {
		// Tenant traffic: delivered to (or swallowed by) the bound slot.
		sh.dispatchSlotDgram(si, from, kind, m.Payload[dgramHeaderLen:])
		return
	}
	if sh.serviceHandler == nil {
		return
	}
	if sh.loaded && !sh.RoleUp() {
		// A hung or reconfiguring role swallows datagrams like any other
		// request; a shell that never loaded a role (a client end)
		// delivers.
		return
	}
	sh.serviceHandler(from, kind, m.Payload[dgramHeaderLen:])
}

// onRemoteDgram completes the Role -> Remote direction: the datagram
// leaves the chip through the LTL engine. SendDatagram encodes the frame
// synchronously, so the ER message is recycled on return.
func (sh *Shell) onRemoteDgram(m *er.Message) {
	defer er.FreeMessage(m)
	if len(m.Payload) < dgramHeaderLen {
		return
	}
	kind := m.Payload[2]
	dst := int(binary.BigEndian.Uint32(m.Payload[3:]))
	sh.Engine.SendDatagram(netsim.HostIP(dst), netsim.HostMAC(dst), kind, m.Payload[dgramHeaderLen:])
}
