package ltl

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Dynamic connection establishment. The paper's connections are
// "statically allocated, persistent ... until they are deallocated";
// HaaS-style managers allocate them out of band. For services that cannot
// pre-share table indices, LTL also carries a three-frame handshake:
//
//	SETUP      requester -> responder   (proposes requester's send conn)
//	SETUP-ACK  responder -> requester   (returns the allocated recv conn)
//	TEARDOWN   either direction         (deallocates)
//
// The SETUP payload carries the proposed reverse-path connection id so a
// full-duplex pair can be built in one round trip.

// AcceptFunc decides whether to accept an inbound SETUP from remoteIP and
// returns the message handler for the new receive connection. Returning
// nil refuses the connection.
type AcceptFunc func(remoteIP pkt.IP, vc uint8) func(payload []byte)

// Listen installs the engine's SETUP acceptor (nil disables dynamic
// setup, the default).
func (e *Engine) Listen(accept AcceptFunc) { e.accept = accept }

// pendingDial tracks an in-flight SETUP.
type pendingDial struct {
	localID uint16
	timer   sim.Timer
	done    func(err error)
}

// Dial dynamically opens a send connection to a remote engine: it
// allocates a local send-table slot, performs the handshake, and invokes
// done with nil on success (after which SendMessage(localID, ...) works)
// or an error on refusal/timeout.
func (e *Engine) Dial(localID uint16, remoteIP pkt.IP, remoteMAC pkt.MAC, vc uint8, done func(err error)) error {
	if _, dup := e.send[localID]; dup {
		return fmt.Errorf("ltl: send connection %d already allocated", localID)
	}
	if _, dup := e.dials[localID]; dup {
		return fmt.Errorf("ltl: dial %d already in flight", localID)
	}
	pd := &pendingDial{localID: localID, done: done}
	e.dials[localID] = pd

	h := pkt.LTLHeader{Type: pkt.LTLSetup, VC: vc, SrcConn: localID}
	payload := make([]byte, 2)
	binary.BigEndian.PutUint16(payload, localID)
	e.emit(remoteIP, remoteMAC, h, payload)

	pd.timer = e.sim.Schedule(e.cfg.RetransmitTimeout*sim.Time(e.cfg.MaxRetries), func() {
		delete(e.dials, localID)
		if done != nil {
			done(fmt.Errorf("ltl: dial %d to %v timed out", localID, remoteIP))
		}
	})
	// Remember the peer so the SETUP-ACK can finish allocation.
	e.dialPeers[localID] = dialPeer{ip: remoteIP, mac: remoteMAC, vc: vc}
	return nil
}

type dialPeer struct {
	ip  pkt.IP
	mac pkt.MAC
	vc  uint8
}

// onSetup handles an inbound SETUP frame.
func (e *Engine) onSetup(f *pkt.Frame, h pkt.LTLHeader) {
	if e.accept == nil {
		return // dynamic setup disabled: silently drop, like a closed port
	}
	handler := e.accept(f.SrcIP, h.VC)
	if handler == nil {
		return
	}
	// Allocate a receive-table slot in the dynamic range.
	id := e.nextDynRecv
	if id < dynConnBase {
		id = dynConnBase
	}
	for {
		if _, used := e.recv[id]; !used {
			break
		}
		id++
		if id < dynConnBase { // wrapped
			id = dynConnBase
		}
	}
	e.nextDynRecv = id + 1
	if err := e.OpenRecv(id, f.SrcIP, handler); err != nil {
		return
	}
	// SETUP-ACK: tell the requester which recv conn to target.
	// DstConn echoes the requester's dial id; Ack carries our slot.
	reply := pkt.LTLHeader{
		Type: pkt.LTLSetupAck, VC: h.VC,
		SrcConn: id, DstConn: h.SrcConn,
		Ack: uint32(id),
	}
	e.emit(f.SrcIP, f.Src, reply, nil)
}

// dynConnBase is where dynamically allocated receive ids start, leaving
// the low range for static allocation.
const dynConnBase = 0x8000

// onSetupAck completes a pending dial.
func (e *Engine) onSetupAck(h pkt.LTLHeader) {
	pd, ok := e.dials[h.DstConn]
	if !ok {
		return
	}
	delete(e.dials, h.DstConn)
	e.sim.Cancel(pd.timer)
	peer := e.dialPeers[h.DstConn]
	delete(e.dialPeers, h.DstConn)
	err := e.OpenSend(pd.localID, peer.ip, peer.mac, uint16(h.Ack), peer.vc, nil)
	if pd.done != nil {
		pd.done(err)
	}
}

// Teardown deallocates a connection locally and notifies the peer so its
// table entry frees too.
func (e *Engine) Teardown(localID uint16) {
	sc, ok := e.send[localID]
	if ok {
		h := pkt.LTLHeader{Type: pkt.LTLTeardown, SrcConn: localID, DstConn: sc.remoteConn}
		e.emit(sc.remoteIP, sc.remoteMAC, h, nil)
	}
	e.Close(localID)
}

// onTeardown frees the referenced receive connection.
func (e *Engine) onTeardown(h pkt.LTLHeader) {
	delete(e.recv, h.DstConn)
}
