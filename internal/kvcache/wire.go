package kvcache

import (
	"encoding/binary"
	"errors"
)

// Service-datagram kinds used by the KV cache (carried in the LTL
// datagram kind byte; see internal/ltl/service.go).
const (
	// KindReq carries a GET/PUT request toward a shard.
	KindReq uint8 = 0x20
	// KindResp carries a shard's reply back to the client.
	KindResp uint8 = 0x21
)

// Request operations and reply codes (first byte of the payload).
const (
	OpGet     = 1 // request: read Key
	OpPut     = 2 // request: write Key = Val
	RespHit   = 3 // reply: Key present, Val attached
	RespMiss  = 4 // reply: Key absent (or displaced under pressure)
	RespPut   = 5 // reply: Put applied
	RespError = 6 // reply: request was undecodable or oversized
	OpMGet    = 7 // request: batched read of up to MaxMultiKeys keys
	RespMGet  = 8 // reply: per-key hit flags and values for an OpMGet
)

// MaxMultiKeys bounds the keys in one multi-get datagram (the batch FIFO
// depth a hardware pipeline would provision).
const MaxMultiKeys = 16

// Wire-format bounds. They exist so a corrupt length field can never make
// the decoder allocate unbounded memory: anything larger is an encoding
// error, matching the fixed-width key/value FIFOs a hardware pipeline
// would have.
const (
	MaxKeyBytes = 256
	MaxValBytes = 4 << 10
)

// Req is one GET/PUT request:
//
//	byte 0      op
//	bytes 1-8   request id
//	bytes 9-10  key length
//	...         key
//	next 2      value length (0 for GET)
//	...         value
type Req struct {
	Op  byte
	ID  uint64
	Key []byte
	Val []byte
}

// Resp is one shard reply:
//
//	byte 0      op (RespHit/RespMiss/RespPut/RespError)
//	bytes 1-8   request id
//	bytes 9-10  value length (nonzero only for RespHit)
//	...         value
type Resp struct {
	Op  byte
	ID  uint64
	Val []byte
}

// Decode errors.
var (
	ErrTruncated = errors.New("kvcache: truncated message")
	ErrOversized = errors.New("kvcache: key or value exceeds wire bounds")
	ErrBadOp     = errors.New("kvcache: unknown op")
)

// AppendReq serializes a request into dst's storage (the zero-alloc send
// path: clients reuse one encode buffer per request). Pass a nil dst for
// a fresh buffer.
func AppendReq(dst []byte, r Req) []byte {
	dst = append(dst, r.Op)
	dst = appendUint64(dst, r.ID)
	dst = appendUint16(dst, uint16(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = appendUint16(dst, uint16(len(r.Val)))
	return append(dst, r.Val...)
}

func appendUint16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// DecodeReq parses a request, validating every length field before
// slicing. It never panics on corrupt input.
func DecodeReq(buf []byte) (Req, error) {
	var r Req
	if len(buf) < 13 {
		return r, ErrTruncated
	}
	r.Op = buf[0]
	if r.Op != OpGet && r.Op != OpPut {
		return r, ErrBadOp
	}
	r.ID = binary.BigEndian.Uint64(buf[1:])
	kl := int(binary.BigEndian.Uint16(buf[9:]))
	if kl == 0 || kl > MaxKeyBytes {
		return r, ErrOversized
	}
	if len(buf) < 11+kl+2 {
		return r, ErrTruncated
	}
	r.Key = buf[11 : 11+kl]
	off := 11 + kl
	vl := int(binary.BigEndian.Uint16(buf[off:]))
	if vl > MaxValBytes {
		return r, ErrOversized
	}
	if len(buf) < off+2+vl {
		return r, ErrTruncated
	}
	r.Val = buf[off+2 : off+2+vl]
	return r, nil
}

// AppendResp serializes a reply into dst's storage (the zero-alloc shard
// reply path).
func AppendResp(dst []byte, r Resp) []byte {
	dst = append(dst, r.Op)
	dst = appendUint64(dst, r.ID)
	dst = appendUint16(dst, uint16(len(r.Val)))
	return append(dst, r.Val...)
}

// DecodeResp parses a reply with the same corruption tolerance as
// DecodeReq.
func DecodeResp(buf []byte) (Resp, error) {
	var r Resp
	if len(buf) < 11 {
		return r, ErrTruncated
	}
	r.Op = buf[0]
	if r.Op < RespHit || r.Op > RespError {
		return r, ErrBadOp
	}
	r.ID = binary.BigEndian.Uint64(buf[1:])
	vl := int(binary.BigEndian.Uint16(buf[9:]))
	if vl > MaxValBytes {
		return r, ErrOversized
	}
	if len(buf) < 11+vl {
		return r, ErrTruncated
	}
	r.Val = buf[11 : 11+vl]
	return r, nil
}

// MReq is one batched multi-get request (OpMGet):
//
//	byte 0      op (OpMGet)
//	bytes 1-8   request id
//	byte 9      key count (1..MaxMultiKeys)
//	per key:    2-byte key length, key bytes
type MReq struct {
	ID   uint64
	Keys [][]byte
}

// MResp is the batched reply (RespMGet):
//
//	byte 0      op (RespMGet)
//	bytes 1-8   request id
//	byte 9      key count
//	per key:    1-byte hit flag, 2-byte value length, value bytes
//
// Values appear in request key order (the batch pipeline drains in order).
type MResp struct {
	ID   uint64
	Hits []bool
	Vals [][]byte
}

// ErrBadCount reports a multi-get count outside 1..MaxMultiKeys.
var ErrBadCount = errors.New("kvcache: multi-get key count out of range")

// AppendMReq serializes a batched request into dst's storage.
func AppendMReq(dst []byte, r MReq) []byte {
	dst = append(dst, OpMGet)
	dst = appendUint64(dst, r.ID)
	dst = append(dst, byte(len(r.Keys)))
	for _, k := range r.Keys {
		dst = appendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	return dst
}

// DecodeMReq parses a batched request with the same corruption tolerance
// as DecodeReq. Returned keys alias buf.
func DecodeMReq(buf []byte) (MReq, error) {
	var r MReq
	if len(buf) < 10 {
		return r, ErrTruncated
	}
	if buf[0] != OpMGet {
		return r, ErrBadOp
	}
	r.ID = binary.BigEndian.Uint64(buf[1:])
	n := int(buf[9])
	if n < 1 || n > MaxMultiKeys {
		return r, ErrBadCount
	}
	off := 10
	for i := 0; i < n; i++ {
		if len(buf) < off+2 {
			return r, ErrTruncated
		}
		kl := int(binary.BigEndian.Uint16(buf[off:]))
		if kl == 0 || kl > MaxKeyBytes {
			return r, ErrOversized
		}
		off += 2
		if len(buf) < off+kl {
			return r, ErrTruncated
		}
		r.Keys = append(r.Keys, buf[off:off+kl])
		off += kl
	}
	return r, nil
}

// AppendMResp serializes a batched reply into dst's storage. Hits and
// Vals must be the same length.
func AppendMResp(dst []byte, r MResp) []byte {
	dst = append(dst, RespMGet)
	dst = appendUint64(dst, r.ID)
	dst = append(dst, byte(len(r.Hits)))
	for i, hit := range r.Hits {
		if hit {
			dst = append(dst, 1)
			dst = appendUint16(dst, uint16(len(r.Vals[i])))
			dst = append(dst, r.Vals[i]...)
		} else {
			dst = append(dst, 0)
			dst = appendUint16(dst, 0)
		}
	}
	return dst
}

// DecodeMResp parses a batched reply. Returned values alias buf.
func DecodeMResp(buf []byte) (MResp, error) {
	var r MResp
	if len(buf) < 10 {
		return r, ErrTruncated
	}
	if buf[0] != RespMGet {
		return r, ErrBadOp
	}
	r.ID = binary.BigEndian.Uint64(buf[1:])
	n := int(buf[9])
	if n < 1 || n > MaxMultiKeys {
		return r, ErrBadCount
	}
	off := 10
	for i := 0; i < n; i++ {
		if len(buf) < off+3 {
			return r, ErrTruncated
		}
		hit := buf[off] != 0
		vl := int(binary.BigEndian.Uint16(buf[off+1:]))
		if vl > MaxValBytes {
			return r, ErrOversized
		}
		off += 3
		if len(buf) < off+vl {
			return r, ErrTruncated
		}
		r.Hits = append(r.Hits, hit)
		if hit {
			r.Vals = append(r.Vals, buf[off:off+vl])
		} else {
			r.Vals = append(r.Vals, nil)
		}
		off += vl
	}
	return r, nil
}

// keyHash is FNV-1a over the key — the same cheap multiply/xor pipeline a
// shard's hash unit would implement, used both for shard selection at the
// client and set selection in the store.
func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
