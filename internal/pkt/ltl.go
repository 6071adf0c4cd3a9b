package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The LTL header rides as the first bytes of the UDP payload on every
// inter-FPGA message (paper §V-A: "uses UDP for frame encapsulation and IP
// for routing packets across the datacenter network"). The layout is:
//
//	byte 0     magic (0xC2, "Catapult v2")
//	byte 1     type
//	byte 2     flags
//	byte 3     virtual channel
//	bytes 4-5  source connection id
//	bytes 6-7  destination connection id
//	bytes 8-11 sequence number
//	bytes 12-15 acknowledgement number
//	bytes 16-17 payload length
//	bytes 18-19 credit grant (flits)
//
// followed by the message payload for Data frames.
const (
	LTLHeaderLen = 20
	LTLMagic     = 0xC2
)

// LTLType enumerates LTL frame types.
type LTLType uint8

// LTL frame types. Connections are statically allocated (§V-A), so no
// type sets one up or tears one down; 4-6 and 8 are unassigned, and an
// engine drops a frame of an unassigned type.
const (
	LTLData     LTLType = 1 // ordered payload frame
	LTLAck      LTLType = 2 // cumulative acknowledgement
	LTLNack     LTLType = 3 // out-of-order detected; request retransmit from Ack
	LTLCNP      LTLType = 7 // DCQCN congestion notification packet
	LTLDatagram LTLType = 9 // connection-less service datagram (unreliable data plane)
)

// String returns the frame type mnemonic.
func (t LTLType) String() string {
	switch t {
	case LTLData:
		return "DATA"
	case LTLAck:
		return "ACK"
	case LTLNack:
		return "NACK"
	case LTLCNP:
		return "CNP"
	case LTLDatagram:
		return "DGRAM"
	default:
		return fmt.Sprintf("LTLType(%d)", uint8(t))
	}
}

// LTL flag bits.
const (
	LTLFlagLast uint8 = 1 << 0 // last frame of a message
	LTLFlagECN  uint8 = 1 << 1 // receiver saw ECN-CE on the data path
)

// LTLHeader is the decoded LTL frame header.
type LTLHeader struct {
	Type       LTLType
	Flags      uint8
	VC         uint8
	SrcConn    uint16
	DstConn    uint16
	Seq        uint32
	Ack        uint32
	PayloadLen uint16
	Credits    uint16
}

// ErrNotLTL is returned when the UDP payload does not carry an LTL header.
var ErrNotLTL = errors.New("pkt: not an LTL frame")

// EncodeLTL serializes the header followed by payload. PayloadLen is
// filled from len(payload).
func EncodeLTL(h LTLHeader, payload []byte) []byte {
	buf := make([]byte, LTLHeaderLen+len(payload))
	putLTL(buf, h, payload)
	return buf
}

// putLTL writes the header, with PayloadLen from len(payload), and the
// payload into buf, which must hold LTLHeaderLen+len(payload) bytes.
func putLTL(buf []byte, h LTLHeader, payload []byte) {
	buf[0] = LTLMagic
	buf[1] = uint8(h.Type)
	buf[2] = h.Flags
	buf[3] = h.VC
	binary.BigEndian.PutUint16(buf[4:], h.SrcConn)
	binary.BigEndian.PutUint16(buf[6:], h.DstConn)
	binary.BigEndian.PutUint32(buf[8:], h.Seq)
	binary.BigEndian.PutUint32(buf[12:], h.Ack)
	binary.BigEndian.PutUint16(buf[16:], uint16(len(payload)))
	binary.BigEndian.PutUint16(buf[18:], h.Credits)
	copy(buf[LTLHeaderLen:], payload)
}

// DecodeLTL parses an LTL frame from a UDP payload, returning the header
// and the message payload (aliasing buf).
func DecodeLTL(buf []byte) (LTLHeader, []byte, error) {
	var h LTLHeader
	if len(buf) < LTLHeaderLen || buf[0] != LTLMagic {
		return h, nil, ErrNotLTL
	}
	h.Type = LTLType(buf[1])
	h.Flags = buf[2]
	h.VC = buf[3]
	h.SrcConn = binary.BigEndian.Uint16(buf[4:])
	h.DstConn = binary.BigEndian.Uint16(buf[6:])
	h.Seq = binary.BigEndian.Uint32(buf[8:])
	h.Ack = binary.BigEndian.Uint32(buf[12:])
	h.PayloadLen = binary.BigEndian.Uint16(buf[16:])
	h.Credits = binary.BigEndian.Uint16(buf[18:])
	if int(h.PayloadLen) > len(buf)-LTLHeaderLen {
		return h, nil, ErrTruncated
	}
	return h, buf[LTLHeaderLen : LTLHeaderLen+int(h.PayloadLen)], nil
}

// AppendUDPLTL appends a complete Ethernet(+VLAN)/IPv4/UDP frame carrying
// an LTL header and payload to dst and returns the extended slice. The
// output is byte-identical to EncodeUDP(..., EncodeLTL(h, payload)) but
// builds the frame in place, so a recycled dst makes the TX path
// allocation-free.
func AppendUDPLTL(dst []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16,
	class TrafficClass, ttl uint8, ipID uint16, h LTLHeader, payload []byte) []byte {
	dst, ltl := appendUDPHeaders(dst, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort,
		class, ttl, ipID, LTLHeaderLen+len(payload))
	putLTL(ltl, h, payload)
	return dst
}
