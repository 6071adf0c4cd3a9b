package rpcnic

import (
	"encoding/binary"
	"errors"
)

// Service-datagram kinds used by the RPC NIC (LTL datagram kind byte).
const (
	// KindIngress carries a caller's serialized RPC to the dispatcher.
	KindIngress uint8 = 0x30
	// KindWork carries a decoded request from the dispatcher to a backend.
	KindWork uint8 = 0x31
	// KindWorkResp carries a backend's result back to the dispatcher.
	KindWorkResp uint8 = 0x32
	// KindReply carries the response from the dispatcher to the caller.
	KindReply uint8 = 0x33
)

// RPC methods and their backend service times (fixed hardware pipelines
// at the backend role; see methodTime).
const (
	MethodEcho = 1
	MethodHash = 2
	MethodRank = 3
)

// Wire bounds, so corrupt length fields cannot drive allocation.
const MaxArgBytes = 16 << 10

// Req is one serialized RPC as it arrives from a caller:
//
//	byte 0      magic (0xA7)
//	byte 1      version (1)
//	byte 2      method
//	byte 3      flags (reserved, must decode but is uninterpreted)
//	bytes 4-11  request id
//	bytes 12-13 argument length
//	...         arguments
type Req struct {
	Method byte
	Flags  byte
	ID     uint64
	Args   []byte
}

const (
	reqMagic   = 0xA7
	reqVersion = 1
)

// Decode errors.
var (
	ErrNotRPC    = errors.New("rpcnic: bad magic or version")
	ErrTruncated = errors.New("rpcnic: truncated message")
	ErrOversized = errors.New("rpcnic: argument length exceeds wire bounds")
	ErrBadMethod = errors.New("rpcnic: unknown method")
)

// AppendReq serializes one RPC request into dst's storage — zero-alloc
// for senders with a reused scratch buffer (LTL's SendDatagram copies
// synchronously, so one buffer per sender suffices). Pass a nil dst for
// a fresh buffer.
func AppendReq(dst []byte, r Req) []byte {
	dst = append(dst, reqMagic, reqVersion, r.Method, r.Flags,
		byte(r.ID>>56), byte(r.ID>>48), byte(r.ID>>40), byte(r.ID>>32),
		byte(r.ID>>24), byte(r.ID>>16), byte(r.ID>>8), byte(r.ID),
		byte(len(r.Args)>>8), byte(len(r.Args)))
	return append(dst, r.Args...)
}

// DecodeReq parses a serialized RPC, validating every field before
// slicing; it never panics on corrupt input. This is the work the
// dispatcher offloads: on the FPGA it is a fixed pipeline, in host
// software it is CPU time on the request path.
func DecodeReq(buf []byte) (Req, error) {
	var r Req
	if len(buf) < 14 {
		return r, ErrTruncated
	}
	if buf[0] != reqMagic || buf[1] != reqVersion {
		return r, ErrNotRPC
	}
	r.Method = buf[2]
	if r.Method < MethodEcho || r.Method > MethodRank {
		return r, ErrBadMethod
	}
	r.Flags = buf[3]
	r.ID = binary.BigEndian.Uint64(buf[4:])
	al := int(binary.BigEndian.Uint16(buf[12:]))
	if al > MaxArgBytes {
		return r, ErrOversized
	}
	if len(buf) < 14+al {
		return r, ErrTruncated
	}
	r.Args = buf[14 : 14+al]
	return r, nil
}

// Resp is one RPC response:
//
//	byte 0      magic
//	byte 1      status (0 ok, 1 error)
//	byte 2      method
//	bytes 3-10  request id
//	bytes 11-12 result length
//	...         result
type Resp struct {
	Status byte
	Method byte
	ID     uint64
	Ret    []byte
}

// AppendResp serializes one response into dst's storage (see
// AppendReq).
func AppendResp(dst []byte, r Resp) []byte {
	dst = append(dst, reqMagic, r.Status, r.Method,
		byte(r.ID>>56), byte(r.ID>>48), byte(r.ID>>40), byte(r.ID>>32),
		byte(r.ID>>24), byte(r.ID>>16), byte(r.ID>>8), byte(r.ID),
		byte(len(r.Ret)>>8), byte(len(r.Ret)))
	return append(dst, r.Ret...)
}

// DecodeResp parses a response with the same corruption tolerance as
// DecodeReq.
func DecodeResp(buf []byte) (Resp, error) {
	var r Resp
	if len(buf) < 13 {
		return r, ErrTruncated
	}
	if buf[0] != reqMagic {
		return r, ErrNotRPC
	}
	r.Status = buf[1]
	r.Method = buf[2]
	r.ID = binary.BigEndian.Uint64(buf[3:])
	rl := int(binary.BigEndian.Uint16(buf[11:]))
	if rl > MaxArgBytes {
		return r, ErrOversized
	}
	if len(buf) < 13+rl {
		return r, ErrTruncated
	}
	r.Ret = buf[13 : 13+rl]
	return r, nil
}
