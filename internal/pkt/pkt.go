// Package pkt implements the wire formats carried by the simulated
// datacenter fabric: Ethernet II (with optional 802.1Q VLAN/priority tags),
// IPv4, UDP, IEEE 802.1Qbb Priority Flow Control frames, and the LTL
// (Lightweight Transport Layer) header that the paper encapsulates in UDP.
//
// Frames are encoded to and decoded from real byte slices — the FPGA shell,
// the switches, and the LTL engine all operate on these bytes, exactly as
// the hardware operates on wire bits. IPv4 header checksums are computed
// and verified.
package pkt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the MAC in standard colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// PFCMAC is the 802.1Qbb destination address for PAUSE/PFC frames.
var PFCMAC = MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x01}

// IP is an IPv4 address.
type IP [4]byte

// String formats the address in dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// U32 returns the address as a big-endian uint32.
func (ip IP) U32() uint32 { return binary.BigEndian.Uint32(ip[:]) }

// IPFromU32 builds an address from a big-endian uint32.
func IPFromU32(v uint32) IP {
	var ip IP
	binary.BigEndian.PutUint32(ip[:], v)
	return ip
}

// EtherTypes used by the simulation.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeVLAN uint16 = 0x8100
	EtherTypePFC  uint16 = 0x8808 // MAC control (PAUSE / PFC)
)

// IP protocol numbers.
const (
	ProtoUDP uint8 = 17
	ProtoTCP uint8 = 6
)

// LTLPort is the UDP port LTL traffic is addressed to.
const LTLPort uint16 = 51000

// Sizes of the fixed headers, in bytes.
const (
	EthHeaderLen  = 14
	VLANTagLen    = 4
	IPv4HeaderLen = 20
	UDPHeaderLen  = 8
	EthFCSLen     = 4 // frame check sequence, accounted in wire size
	// MaxMTU is the largest IP datagram the fabric carries (standard 1500B).
	MaxMTU = 1500
)

// TrafficClass identifies one of 8 priority classes (802.1p PCP values).
type TrafficClass uint8

// Traffic classes used by the Configurable Cloud. LTL rides in a lossless
// class provisioned like RDMA/FCoE; ordinary host TCP traffic is lossy.
const (
	ClassBestEffort TrafficClass = 0 // baseline host TCP/UDP, lossy (RED)
	ClassLTL        TrafficClass = 3 // LTL, lossless (PFC-protected)
	ClassRDMA       TrafficClass = 4 // background RDMA-like lossless traffic
	NumClasses                   = 8
)

// Frame is a fully parsed Ethernet frame. Payload points into the decoded
// buffer region after all recognized headers.
type Frame struct {
	Dst, Src MAC
	// HasVLAN indicates an 802.1Q tag was present; PCP carries its 3-bit
	// priority, which the switches map to a TrafficClass.
	HasVLAN   bool
	PCP       TrafficClass
	VLAN      uint16
	EtherType uint16

	// IPv4 fields (valid when EtherType == EtherTypeIPv4).
	IPValid  bool
	SrcIP    IP
	DstIP    IP
	Protocol uint8
	TTL      uint8
	ECN      uint8 // 2-bit ECN field; 0b11 = congestion experienced
	IPID     uint16

	// UDP fields (valid when Protocol == ProtoUDP).
	UDPValid aBool
	SrcPort  uint16
	DstPort  uint16

	Payload []byte
}

// aBool is a plain bool; the named type exists only to keep the field
// grouping in Frame self-describing in godoc.
type aBool = bool

// ECN codepoints (RFC 3168).
const (
	ECNNotCapable uint8 = 0
	ECNCapable    uint8 = 2
	ECNCE         uint8 = 3 // congestion experienced
)

// Class returns the frame's traffic class: the VLAN PCP when tagged,
// otherwise best-effort.
func (f *Frame) Class() TrafficClass {
	if f.HasVLAN {
		return f.PCP
	}
	return ClassBestEffort
}

// IsLTL reports whether the frame is an LTL datagram (UDP to LTLPort).
func (f *Frame) IsLTL() bool {
	return f.IPValid && f.UDPValid && f.DstPort == LTLPort
}

// WireLen returns the frame's size on the wire in bytes, including the FCS,
// as used for serialization-time computation.
func (f *Frame) WireLen() int {
	n := EthHeaderLen + EthFCSLen
	if f.HasVLAN {
		n += VLANTagLen
	}
	if f.IPValid {
		n += IPv4HeaderLen
		if f.UDPValid {
			n += UDPHeaderLen
		}
	}
	return n + len(f.Payload)
}

// Errors returned by Decode.
var (
	ErrTruncated   = errors.New("pkt: truncated frame")
	ErrBadChecksum = errors.New("pkt: bad IPv4 header checksum")
	ErrBadVersion  = errors.New("pkt: not IPv4")
)

// EncodeUDP builds a complete Ethernet(+VLAN)/IPv4/UDP frame carrying
// payload in a fresh buffer. A VLAN tag is emitted whenever
// class != ClassBestEffort so that switches can classify the frame.
func EncodeUDP(srcMAC, dstMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16,
	class TrafficClass, ttl uint8, ipID uint16, payload []byte) []byte {
	return AppendUDP(nil, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, class, ttl, ipID, payload)
}

// AppendUDP appends the frame EncodeUDP would build to dst and returns
// the extended slice. It allocates only when dst lacks the capacity, so
// encoding into a recycled buffer is free.
func AppendUDP(dst []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16,
	class TrafficClass, ttl uint8, ipID uint16, payload []byte) []byte {
	dst, body := appendUDPHeaders(dst, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort,
		class, ttl, ipID, len(payload))
	copy(body, payload)
	return dst
}

// appendUDPHeaders extends dst by one Ethernet(+VLAN)/IPv4/UDP frame with
// a bodyLen-byte UDP payload, writes every header byte, and returns the
// extended slice plus the payload region for the caller to fill. The
// header fields the simulator leaves zero (IPv4 flags and fragment
// offset, UDP checksum) are written too, so stale bytes in a recycled dst
// never leak into the frame.
func appendUDPHeaders(dst []byte, srcMAC, dstMAC MAC, srcIP, dstIP IP, srcPort, dstPort uint16,
	class TrafficClass, ttl uint8, ipID uint16, bodyLen int) ([]byte, []byte) {

	hasVLAN := class != ClassBestEffort
	n := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + bodyLen
	if hasVLAN {
		n += VLANTagLen
	}
	base := len(dst)
	if cap(dst)-base < n {
		grown := make([]byte, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	buf := dst[base:]

	off := 0
	copy(buf[off:], dstMAC[:])
	copy(buf[off+6:], srcMAC[:])
	off += 12
	if hasVLAN {
		binary.BigEndian.PutUint16(buf[off:], EtherTypeVLAN)
		tci := uint16(class)<<13 | 1 // VLAN id 1
		binary.BigEndian.PutUint16(buf[off+2:], tci)
		off += 4
	}
	binary.BigEndian.PutUint16(buf[off:], EtherTypeIPv4)
	off += 2

	ip := buf[off : off+IPv4HeaderLen]
	ip[0] = 0x45 // v4, IHL 5
	ip[1] = uint8(ECNCapable)
	binary.BigEndian.PutUint16(ip[2:], uint16(IPv4HeaderLen+UDPHeaderLen+bodyLen))
	binary.BigEndian.PutUint16(ip[4:], ipID)
	binary.BigEndian.PutUint16(ip[6:], 0) // flags, fragment offset
	ip[8] = ttl
	ip[9] = ProtoUDP
	binary.BigEndian.PutUint16(ip[10:], 0) // checksum sums over zero
	copy(ip[12:], srcIP[:])
	copy(ip[16:], dstIP[:])
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip))
	off += IPv4HeaderLen

	udp := buf[off : off+UDPHeaderLen]
	binary.BigEndian.PutUint16(udp[0:], srcPort)
	binary.BigEndian.PutUint16(udp[2:], dstPort)
	binary.BigEndian.PutUint16(udp[4:], uint16(UDPHeaderLen+bodyLen))
	// UDP checksum 0 (unused): datacenter links carry their own FCS and
	// LTL has its own integrity expectations; matches common RoCE practice.
	binary.BigEndian.PutUint16(udp[6:], 0)
	off += UDPHeaderLen
	return dst, buf[off:]
}

// SetECNCE rewrites the ECN field of an encoded IPv4 frame to
// "congestion experienced" and fixes up the header checksum. It is the
// switch-side ECN marking operation used by DCQCN. Non-IP frames are
// returned unmodified.
func SetECNCE(buf []byte) {
	off, ok := ipHeaderOffset(buf)
	if !ok {
		return
	}
	ip := buf[off : off+IPv4HeaderLen]
	ip[1] = (ip[1] &^ 0x3) | ECNCE
	binary.BigEndian.PutUint16(ip[10:], 0)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip))
}

func ipHeaderOffset(buf []byte) (int, bool) {
	if len(buf) < EthHeaderLen {
		return 0, false
	}
	off := 12
	et := binary.BigEndian.Uint16(buf[off:])
	off += 2
	if et == EtherTypeVLAN {
		if len(buf) < off+4 {
			return 0, false
		}
		et = binary.BigEndian.Uint16(buf[off+2:])
		off += 4
	}
	if et != EtherTypeIPv4 || len(buf) < off+IPv4HeaderLen {
		return 0, false
	}
	return off, true
}

// Decode parses an encoded frame. It validates the IPv4 checksum and
// returns a Frame whose Payload aliases buf.
func Decode(buf []byte) (*Frame, error) {
	f := &Frame{}
	if err := DecodeInto(f, buf); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses an encoded frame into a caller-provided Frame,
// overwriting it completely. It is Decode without the allocation, for
// callers that embed the Frame in a pooled carrier. On error the Frame's
// contents are unspecified.
func DecodeInto(f *Frame, buf []byte) error {
	*f = Frame{}
	if len(buf) < EthHeaderLen {
		return ErrTruncated
	}
	copy(f.Dst[:], buf[0:6])
	copy(f.Src[:], buf[6:12])
	off := 12
	f.EtherType = binary.BigEndian.Uint16(buf[off:])
	off += 2
	if f.EtherType == EtherTypeVLAN {
		if len(buf) < off+4 {
			return ErrTruncated
		}
		tci := binary.BigEndian.Uint16(buf[off:])
		f.HasVLAN = true
		f.PCP = TrafficClass(tci >> 13)
		f.VLAN = tci & 0x0fff
		f.EtherType = binary.BigEndian.Uint16(buf[off+2:])
		off += 4
	}
	if f.EtherType == EtherTypePFC {
		f.Payload = buf[off:]
		return nil
	}
	if f.EtherType != EtherTypeIPv4 {
		f.Payload = buf[off:]
		return nil
	}
	if len(buf) < off+IPv4HeaderLen {
		return ErrTruncated
	}
	ip := buf[off : off+IPv4HeaderLen]
	if ip[0]>>4 != 4 {
		return ErrBadVersion
	}
	if ipChecksum(ip) != 0 {
		return ErrBadChecksum
	}
	f.IPValid = true
	f.ECN = ip[1] & 0x3
	totalLen := int(binary.BigEndian.Uint16(ip[2:]))
	f.IPID = binary.BigEndian.Uint16(ip[4:])
	f.TTL = ip[8]
	f.Protocol = ip[9]
	copy(f.SrcIP[:], ip[12:16])
	copy(f.DstIP[:], ip[16:20])
	if totalLen < IPv4HeaderLen || off+totalLen > len(buf) {
		return ErrTruncated
	}
	body := buf[off+IPv4HeaderLen : off+totalLen]
	if f.Protocol == ProtoUDP {
		if len(body) < UDPHeaderLen {
			return ErrTruncated
		}
		f.UDPValid = true
		f.SrcPort = binary.BigEndian.Uint16(body[0:])
		f.DstPort = binary.BigEndian.Uint16(body[2:])
		ulen := int(binary.BigEndian.Uint16(body[4:]))
		if ulen < UDPHeaderLen || ulen > len(body) {
			return ErrTruncated
		}
		f.Payload = body[UDPHeaderLen:ulen]
	} else {
		f.Payload = body
	}
	return nil
}

// ipChecksum computes the Internet checksum over an IPv4 header. Computing
// it over a header containing the correct checksum yields zero.
func ipChecksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i:]))
	}
	if len(h)%2 == 1 {
		sum += uint32(h[len(h)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
