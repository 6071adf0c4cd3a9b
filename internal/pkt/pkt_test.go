package pkt

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	macA = MAC{0x02, 0, 0, 0, 0, 0xaa}
	macB = MAC{0x02, 0, 0, 0, 0, 0xbb}
	ipA  = IP{10, 0, 0, 1}
	ipB  = IP{10, 0, 1, 2}
)

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte("hello configurable cloud")
	buf := EncodeUDP(macA, macB, ipA, ipB, 1234, LTLPort, ClassLTL, 64, 77, payload)
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Src != macA || f.Dst != macB {
		t.Errorf("MACs: %v -> %v", f.Src, f.Dst)
	}
	if !f.HasVLAN || f.PCP != ClassLTL {
		t.Errorf("VLAN/PCP: has=%v pcp=%d", f.HasVLAN, f.PCP)
	}
	if !f.IPValid || f.SrcIP != ipA || f.DstIP != ipB {
		t.Errorf("IP: %v -> %v valid=%v", f.SrcIP, f.DstIP, f.IPValid)
	}
	if f.TTL != 64 || f.IPID != 77 || f.Protocol != ProtoUDP {
		t.Errorf("TTL/ID/proto: %d/%d/%d", f.TTL, f.IPID, f.Protocol)
	}
	if !f.UDPValid || f.SrcPort != 1234 || f.DstPort != LTLPort {
		t.Errorf("UDP: %d -> %d", f.SrcPort, f.DstPort)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Errorf("payload mismatch: %q", f.Payload)
	}
	if !f.IsLTL() {
		t.Error("IsLTL() = false")
	}
	if f.Class() != ClassLTL {
		t.Errorf("Class() = %d", f.Class())
	}
}

func TestBestEffortHasNoVLAN(t *testing.T) {
	buf := EncodeUDP(macA, macB, ipA, ipB, 5, 6, ClassBestEffort, 64, 0, nil)
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.HasVLAN {
		t.Error("best-effort frame should be untagged")
	}
	if f.Class() != ClassBestEffort {
		t.Errorf("Class() = %d", f.Class())
	}
}

func TestWireLen(t *testing.T) {
	payload := make([]byte, 100)
	buf := EncodeUDP(macA, macB, ipA, ipB, 1, 2, ClassLTL, 64, 0, payload)
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := EthHeaderLen + VLANTagLen + IPv4HeaderLen + UDPHeaderLen + EthFCSLen + 100
	if f.WireLen() != want {
		t.Errorf("WireLen = %d, want %d", f.WireLen(), want)
	}
	if len(buf)+EthFCSLen != want {
		t.Errorf("encoded len %d + FCS != WireLen %d", len(buf), want)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	buf := EncodeUDP(macA, macB, ipA, ipB, 1, 2, ClassBestEffort, 64, 0, []byte("x"))
	// Corrupt a byte inside the IP header (the TTL).
	buf[EthHeaderLen+8] ^= 0xff
	if _, err := Decode(buf); err != ErrBadChecksum {
		t.Fatalf("Decode of corrupted header: err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf := EncodeUDP(macA, macB, ipA, ipB, 1, 2, ClassLTL, 64, 0, []byte("payload"))
	for _, n := range []int{0, 5, EthHeaderLen - 1, EthHeaderLen + 3, len(buf) - 3} {
		if _, err := Decode(buf[:n]); err == nil {
			t.Errorf("Decode(%d bytes) succeeded, want error", n)
		}
	}
}

func TestSetECNCE(t *testing.T) {
	for _, class := range []TrafficClass{ClassBestEffort, ClassLTL} {
		buf := EncodeUDP(macA, macB, ipA, ipB, 1, 2, class, 64, 0, []byte("abc"))
		SetECNCE(buf)
		f, err := Decode(buf)
		if err != nil {
			t.Fatalf("class %d: decode after ECN mark: %v", class, err)
		}
		if f.ECN != ECNCE {
			t.Errorf("class %d: ECN = %d, want CE", class, f.ECN)
		}
		if !bytes.Equal(f.Payload, []byte("abc")) {
			t.Errorf("class %d: payload damaged", class)
		}
	}
}

func TestSetECNCENonIP(t *testing.T) {
	buf := EncodePFC(macA, PFCFrame{})
	cp := append([]byte(nil), buf...)
	SetECNCE(buf) // must not touch non-IP frames
	if !bytes.Equal(buf, cp) {
		t.Error("SetECNCE modified a non-IP frame")
	}
}

func TestLTLRoundTrip(t *testing.T) {
	h := LTLHeader{
		Type: LTLData, Flags: LTLFlagLast, VC: 2,
		SrcConn: 100, DstConn: 200, Seq: 0xdeadbeef, Ack: 42, Credits: 16,
	}
	payload := []byte("ltl message body")
	buf := EncodeLTL(h, payload)
	got, body, err := DecodeLTL(buf)
	if err != nil {
		t.Fatal(err)
	}
	h.PayloadLen = uint16(len(payload))
	if got != h {
		t.Errorf("header: got %+v, want %+v", got, h)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload: %q", body)
	}
}

func TestLTLDecodeErrors(t *testing.T) {
	if _, _, err := DecodeLTL([]byte{1, 2, 3}); err != ErrNotLTL {
		t.Errorf("short buf: err = %v", err)
	}
	buf := EncodeLTL(LTLHeader{Type: LTLData}, []byte("abcd"))
	buf[0] = 0x00 // wrong magic
	if _, _, err := DecodeLTL(buf); err != ErrNotLTL {
		t.Errorf("bad magic: err = %v", err)
	}
	buf = EncodeLTL(LTLHeader{Type: LTLData}, []byte("abcd"))
	if _, _, err := DecodeLTL(buf[:LTLHeaderLen+2]); err != ErrTruncated {
		t.Errorf("truncated payload: err = %v", err)
	}
}

func TestLTLTypeString(t *testing.T) {
	for ty, want := range map[LTLType]string{
		LTLData: "DATA", LTLAck: "ACK", LTLNack: "NACK", LTLSetup: "SETUP",
		LTLSetupAck: "SETUP-ACK", LTLTeardown: "TEARDOWN", LTLCNP: "CNP",
		LTLType(99): "LTLType(99)",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

func TestLTLInsideUDP(t *testing.T) {
	inner := EncodeLTL(LTLHeader{Type: LTLData, Seq: 7, SrcConn: 1, DstConn: 2}, []byte("nested"))
	wire := EncodeUDP(macA, macB, ipA, ipB, LTLPort, LTLPort, ClassLTL, 64, 0, inner)
	f, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsLTL() {
		t.Fatal("frame not recognized as LTL")
	}
	h, body, err := DecodeLTL(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seq != 7 || string(body) != "nested" {
		t.Errorf("inner frame: %+v %q", h, body)
	}
}

func TestPFCRoundTrip(t *testing.T) {
	var in PFCFrame
	in.Enabled[int(ClassLTL)] = true
	in.Quanta[int(ClassLTL)] = 0xffff
	in.Enabled[0] = true
	in.Quanta[0] = 0 // resume class 0
	buf := EncodePFC(macA, in)
	if !IsPFC(buf) {
		t.Fatal("IsPFC = false")
	}
	f, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.EtherType != EtherTypePFC || f.Dst != PFCMAC {
		t.Errorf("EtherType=%#x dst=%v", f.EtherType, f.Dst)
	}
	out, ok := DecodePFC(f.Payload)
	if !ok {
		t.Fatal("DecodePFC failed")
	}
	if out != in {
		t.Errorf("PFC round trip: got %+v, want %+v", out, in)
	}
}

func TestDecodePFCRejects(t *testing.T) {
	if _, ok := DecodePFC([]byte{0, 0}); ok {
		t.Error("short body accepted")
	}
	body := make([]byte, PFCBodyLen)
	if _, ok := DecodePFC(body); ok {
		t.Error("wrong opcode accepted")
	}
}

func TestIsPFCRejectsData(t *testing.T) {
	buf := EncodeUDP(macA, macB, ipA, ipB, 1, 2, ClassLTL, 64, 0, nil)
	if IsPFC(buf) {
		t.Error("data frame classified as PFC")
	}
}

func TestIPHelpers(t *testing.T) {
	ip := IP{192, 168, 1, 10}
	if ip.String() != "192.168.1.10" {
		t.Errorf("String = %s", ip)
	}
	if IPFromU32(ip.U32()) != ip {
		t.Error("U32 round trip failed")
	}
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("MAC String = %s", m)
	}
}

// Property: UDP encode/decode round-trips arbitrary payloads and fields.
func TestPropertyUDPRoundTrip(t *testing.T) {
	f := func(src, dst [6]byte, sip, dip [4]byte, sp, dp uint16, cls uint8, payload []byte) bool {
		if len(payload) > MaxMTU-IPv4HeaderLen-UDPHeaderLen {
			payload = payload[:MaxMTU-IPv4HeaderLen-UDPHeaderLen]
		}
		class := TrafficClass(cls % NumClasses)
		buf := EncodeUDP(MAC(src), MAC(dst), IP(sip), IP(dip), sp, dp, class, 64, 1, payload)
		fr, err := Decode(buf)
		if err != nil {
			return false
		}
		return fr.Src == MAC(src) && fr.Dst == MAC(dst) &&
			fr.SrcIP == IP(sip) && fr.DstIP == IP(dip) &&
			fr.SrcPort == sp && fr.DstPort == dp &&
			fr.Class() == class && bytes.Equal(fr.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// Property: LTL header encode/decode is the identity.
func TestPropertyLTLRoundTrip(t *testing.T) {
	f := func(ty, flags, vc uint8, sc, dc uint16, seq, ack uint32, credits uint16, payload []byte) bool {
		h := LTLHeader{
			Type: LTLType(ty), Flags: flags, VC: vc, SrcConn: sc, DstConn: dc,
			Seq: seq, Ack: ack, Credits: credits,
		}
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		buf := EncodeLTL(h, payload)
		got, body, err := DecodeLTL(buf)
		if err != nil {
			return false
		}
		h.PayloadLen = uint16(len(payload))
		return got == h && bytes.Equal(body, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestPropertyDecodeNoPanic(t *testing.T) {
	f := func(buf []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", buf, r)
			}
		}()
		Decode(buf)
		DecodeLTL(buf)
		DecodePFC(buf)
		IsPFC(buf)
		SetECNCE(append([]byte(nil), buf...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumAlgorithm(t *testing.T) {
	// RFC 1071 example-style check: header with correct checksum sums to 0.
	buf := EncodeUDP(macA, macB, ipA, ipB, 9, 9, ClassBestEffort, 17, 3, []byte("zz"))
	ip := buf[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	if ipChecksum(ip) != 0 {
		t.Fatalf("checksum over valid header = %#x, want 0", ipChecksum(ip))
	}
}

// TestAppendUDPLTLMatchesEncode pins the fused zero-alloc TX encoder to
// the composed EncodeUDP(EncodeLTL(...)) reference, including on a dirty
// recycled buffer (stale bytes must not leak into the reserved fields).
func TestAppendUDPLTLMatchesEncode(t *testing.T) {
	srcMAC, dstMAC := MAC{1, 2, 3, 4, 5, 6}, MAC{7, 8, 9, 10, 11, 12}
	srcIP, dstIP := IP{10, 0, 0, 1}, IP{10, 0, 0, 2}
	payloads := [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xA5}, 900)}
	classes := []TrafficClass{ClassBestEffort, ClassLTL}
	h := LTLHeader{Type: LTLData, Flags: LTLFlagLast, VC: 3,
		SrcConn: 0x1234, DstConn: 0x5678, Seq: 99, Ack: 7, Credits: 42}
	dirty := bytes.Repeat([]byte{0xFF}, 2048)
	for _, class := range classes {
		for _, p := range payloads {
			want := EncodeUDP(srcMAC, dstMAC, srcIP, dstIP, LTLPort, LTLPort,
				class, 64, 0xBEEF, EncodeLTL(h, p))
			got := AppendUDPLTL(dirty[:0], srcMAC, dstMAC, srcIP, dstIP, LTLPort, LTLPort,
				class, 64, 0xBEEF, h, p)
			if !bytes.Equal(got, want) {
				t.Fatalf("class=%v len(payload)=%d: fused encoder diverges from EncodeUDP∘EncodeLTL", class, len(p))
			}
		}
	}
}

// TestAppendUDPMatchesEncode: appending to a prefix yields the prefix
// followed by EncodeUDP's frame, untagged and tagged, even when the
// spare capacity holds stale bytes, and the appended frame decodes.
func TestAppendUDPMatchesEncode(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 300)
	prefix := []byte("prefix")
	for _, class := range []TrafficClass{ClassBestEffort, ClassRDMA} {
		want := EncodeUDP(macA, macB, ipA, ipB, 9, 10, class, 64, 0xBEEF, payload)
		dirty := bytes.Repeat([]byte{0xFF}, 2048)
		dst := append(dirty[:0], prefix...)
		got := AppendUDP(dst, macA, macB, ipA, ipB, 9, 10, class, 64, 0xBEEF, payload)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("class %d: AppendUDP(prefix) != prefix + EncodeUDP", class)
		}
		var f Frame
		if err := DecodeInto(&f, got[len(prefix):]); err != nil {
			t.Fatalf("class %d: decode: %v", class, err)
		}
		if f.Class() != class || f.SrcIP != ipA || f.DstIP != ipB || f.DstPort != 10 ||
			f.IPID != 0xBEEF || !bytes.Equal(f.Payload, payload) {
			t.Fatalf("class %d: round trip lost fields: %+v", class, f)
		}
	}
}

// TestAppendUDPNoAllocs: with enough capacity in dst, encoding allocates
// nothing.
func TestAppendUDPNoAllocs(t *testing.T) {
	payload := make([]byte, 1400)
	buf := make([]byte, 0, MaxMTU+EthHeaderLen+VLANTagLen)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendUDP(buf[:0], macA, macB, ipA, ipB, 9, 9, ClassRDMA, 1, 0, payload)
	})
	if allocs != 0 {
		t.Fatalf("AppendUDP into a sized buffer: %v allocs/op, want 0", allocs)
	}
}
