package ltl

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// FuzzHandleFrame feeds arbitrary bytes into a live engine pair as the
// LTL payload of a well-formed UDP frame — the exact surface a corrupting
// fault injector (or a hostile peer) reaches. The engine must never
// panic, no matter what header type, connection id, sequence number, or
// truncation the bytes decode to, including frames that legitimately
// match an open connection mid-stream.
func FuzzHandleFrame(f *testing.F) {
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLData, SrcConn: 1, DstConn: 1, Seq: 0}, []byte("seed")))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLData, SrcConn: 1, DstConn: 1, Seq: 7, Flags: 0xff}, []byte("gap")))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLAck, DstConn: 1, Ack: 1 << 30}, nil))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLNack, DstConn: 1, Seq: 2}, nil))
	// The unassigned types 4-6 and 8, which the engine drops.
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: 4, SrcConn: 9, VC: 3}, nil))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: 5, SrcConn: 1, DstConn: 9}, nil))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: 6, DstConn: 1}, nil))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: 8, VC: 2}, []byte{0, 0, 0, 9}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLCNP, DstConn: 1}, nil))
	// Service datagrams as the network services send them (kind in the VC
	// byte). Payloads are hand-built kvcache/rpcnic wire encodings — built
	// as raw bytes here since those packages sit above ltl — plus
	// truncated and corrupt variants: the engine must hand any of these to
	// the datagram handler without panicking.
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x20}, // kvcache GET
		[]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3, 'k', 'e', 'y', 0, 0}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x20}, // kvcache PUT
		[]byte{2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 'k', 0, 2, 'v', 'v'}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x21}, // kvcache hit reply
		[]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 'v', 'v'}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x30}, // rpcnic ingress
		[]byte{0xA7, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 2, 'a', 'b'}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x20}, // truncated: keyLen runs past end
		[]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x20}, // kvcache multi-get, 2 keys
		[]byte{7, 0, 0, 0, 0, 0, 0, 0, 4, 2, 0, 2, 'k', '0', 0, 2, 'k', '1'}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x21}, // multi-get reply: hit + miss
		[]byte{8, 0, 0, 0, 0, 0, 0, 0, 4, 2, 1, 0, 2, 'v', 'v', 0, 0, 0}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x20}, // multi-get: count/table length mismatch
		[]byte{7, 0, 0, 0, 0, 0, 0, 0, 4, 3, 0, 2, 'k', '0'}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x30}, // rpcnic ingress: argLen past end
		[]byte{0xA7, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0xFF, 0xFF}))
	f.Add(pkt.EncodeLTL(pkt.LTLHeader{Type: pkt.LTLDatagram, VC: 0x7F}, nil)) // unknown kind, empty
	f.Add([]byte{pkt.LTLMagic})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPayload = pkt.MaxMTU - pkt.IPv4HeaderLen - pkt.UDPHeaderLen
		if len(data) > maxPayload {
			data = data[:maxPayload]
		}
		s := sim.New(1)
		a, b, wa, wb := pair(s, DefaultConfig(), sim.Microsecond)
		// Datagram handlers on both ends so fuzzed LTLDatagram frames take
		// the full dispatch path, not the no-handler drop.
		a.SetDatagramHandler(func(pkt.IP, uint8, []byte) {})
		b.SetDatagramHandler(func(pkt.IP, uint8, []byte) {})
		if err := a.OpenSend(1, wb.ip, wb.mac, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.OpenRecv(1, wa.ip, func([]byte) {}); err != nil {
			t.Fatal(err)
		}

		// Put real traffic in flight so the fuzzed frame can collide with
		// live sequence/ACK state, then inject it in both directions.
		a.SendMessage(1, make([]byte, 3000), nil)
		s.RunFor(2 * sim.Microsecond)
		inject := func(e *Engine, srcIP, dstIP pkt.IP, srcMAC, dstMAC pkt.MAC) {
			buf := pkt.EncodeUDP(srcMAC, dstMAC, srcIP, dstIP,
				pkt.LTLPort, pkt.LTLPort, pkt.ClassLTL, 64, 0, data)
			fr, err := pkt.Decode(buf)
			if err != nil {
				t.Fatalf("own encoding failed to decode: %v", err)
			}
			e.HandleFrame(fr)
		}
		inject(b, wa.ip, wb.ip, wa.mac, wb.mac)
		inject(a, wb.ip, wa.ip, wb.mac, wa.mac)
		s.RunFor(sim.Millisecond)

		// The engine survives further use. A fuzzed ACK or NACK may
		// have upset conn 1's sequence state until it failed, so an
		// error return is fine; only a panic is a failure. No frame
		// closes the connection: unassigned types are dropped
		// (TestUnassignedFrameTypeDropped).
		a.SendMessage(1, []byte("after"), nil)
		s.RunFor(sim.Millisecond)
	})
}
