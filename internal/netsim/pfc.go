package netsim

import (
	"repro/internal/metrics"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Priority Flow Control (802.1Qbb) lives in the port, the one object
// every device shares, so a switch, a host and the FPGA shell take part
// in it the same way:
//
//   - A PFC frame ends at the port it arrives on and pauses that port's
//     egress for the classes it names (propagationDone); no device
//     receives one.
//   - A device that forwards a lossless frame charges it to the port it
//     arrived on (Hold) until the frame leaves, or is dropped at, an
//     egress queue. Past pfcXoffBytes of one class held, the port pauses
//     its link partner's class for pfcPauseQuanta, re-sends the pause at
//     half its life while the account stays above pfcXonBytes, and
//     resumes the partner the instant the account drains below it.

// The ingress thresholds and the quanta every pause advertises.
const (
	pfcXoffBytes   = 96 << 10
	pfcXonBytes    = 48 << 10
	pfcPauseQuanta = 0xffff
)

// PFCStats counts a device's ingress PFC accounts.
type PFCStats struct {
	PFCIssued   metrics.Counter // pause frames sent, refreshes included
	PFCResumed  metrics.Counter // resume frames sent
	IngressHold metrics.Gauge   // bytes held across the device's ingress accounts
}

// ingressAccount is a port's share of PFC: per class, the bytes that
// arrived on the port and still wait in its device, and whether the port
// has paused its link partner's class. A port builds it when it first
// holds a frame.
type ingressAccount struct {
	held   [pkt.NumClasses]int
	paused [pkt.NumClasses]bool
}

// Hold charges packet, which arrived on p and is forwarded toward egress,
// to p's ingress account when its class is lossless at egress. The charge
// is settled when the frame leaves, or is dropped at, an egress queue.
func (p *Port) Hold(packet *Packet, egress *Port) {
	class := packet.Class()
	if !egress.cfg.Lossless[class] {
		return
	}
	if p.pfc == nil {
		p.pfc = new(ingressAccount)
	}
	a := p.pfc
	size := packet.WireLen()
	a.held[class] += size
	if p.pfcStats != nil {
		p.pfcStats.IngressHold.Add(int64(size))
	}
	packet.ingress = p
	packet.held = true
	if !a.paused[class] && a.held[class] > pfcXoffBytes {
		a.paused[class] = true
		p.sendPause(class, pfcPauseQuanta)
		p.armPauseRefresh(class)
	}
}

// HeldBytes reports the bytes of class c that arrived on p and still wait
// in its device.
func (p *Port) HeldBytes(c pkt.TrafficClass) int {
	if p.pfc == nil {
		return 0
	}
	return p.pfc.held[c]
}

// releaseHold settles a held packet's ingress account.
func releaseHold(packet *Packet) {
	if !packet.held {
		return
	}
	packet.held = false
	p := packet.ingress
	a := p.pfc
	class, size := packet.Class(), packet.WireLen()
	a.held[class] -= size
	if p.pfcStats != nil {
		p.pfcStats.IngressHold.Add(int64(-size))
	}
	if a.paused[class] && a.held[class] < pfcXonBytes {
		a.paused[class] = false
		p.sendPause(class, 0) // resume
		if p.pfcStats != nil {
			p.pfcStats.PFCResumed.Inc()
		}
	}
}

// sendPause emits a PFC frame out p, back toward the sender.
func (p *Port) sendPause(class pkt.TrafficClass, quanta uint16) {
	var f pkt.PFCFrame
	f.Enabled[class] = true
	f.Quanta[class] = quanta
	src := pkt.MAC{0x02, 0xff, byte(p.index), 0, 0, 0}
	p.EnqueueControl(NewPacket(pkt.EncodePFC(src, f)))
	p.stats.PFCSent.Inc()
	if quanta != 0 && p.pfcStats != nil {
		p.pfcStats.PFCIssued.Inc()
	}
}

// armPauseRefresh re-sends the pause at half its life while the account
// stays paused, so the partner's pause does not expire under sustained
// congestion.
func (p *Port) armPauseRefresh(class pkt.TrafficClass) {
	life := pauseQuantaToTime(pfcPauseQuanta, p.cfg.Link.RateBps)
	p.sim.Schedule(life/2, func() {
		if p.pfc.paused[class] {
			p.sendPause(class, pfcPauseQuanta)
			p.armPauseRefresh(class)
		}
	})
}

// receivePFC ends a PFC frame at p: each class it names pauses p's
// egress for its quanta, or resumes it at quanta 0.
func (p *Port) receivePFC(packet *Packet) {
	if f, ok := pkt.DecodePFC(packet.F.Payload); ok {
		for c := range pkt.NumClasses {
			if f.Enabled[c] {
				p.Pause(pkt.TrafficClass(c), pauseQuantaToTime(f.Quanta[c], p.cfg.Link.RateBps))
			}
		}
	}
	packet.Free()
}

// pauseQuantaToTime converts a PFC quanta count into wall time at rate.
func pauseQuantaToTime(quanta uint16, rateBps int64) sim.Time {
	return sim.Time(int64(quanta) * pkt.PauseQuantumBits * int64(sim.Second) / rateBps)
}
