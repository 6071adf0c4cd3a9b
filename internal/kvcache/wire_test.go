package kvcache

import (
	"bytes"
	"testing"
)

func TestReqRoundTrip(t *testing.T) {
	for _, r := range []Req{
		{Op: OpGet, ID: 1, Key: []byte("k")},
		{Op: OpPut, ID: 0xDEADBEEFCAFE, Key: bytes.Repeat([]byte{0xA5}, MaxKeyBytes), Val: bytes.Repeat([]byte{7}, MaxValBytes)},
		{Op: OpPut, ID: 42, Key: []byte("key"), Val: nil},
	} {
		got, err := DecodeReq(AppendReq(nil, r))
		if err != nil {
			t.Fatalf("DecodeReq(%+v): %v", r, err)
		}
		if got.Op != r.Op || got.ID != r.ID || !bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Val, r.Val) {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestRespRoundTrip(t *testing.T) {
	for _, r := range []Resp{
		{Op: RespHit, ID: 9, Val: []byte("value")},
		{Op: RespMiss, ID: 10},
		{Op: RespPut, ID: 11},
		{Op: RespError, ID: 12},
	} {
		got, err := DecodeResp(AppendResp(nil, r))
		if err != nil {
			t.Fatalf("DecodeResp(%+v): %v", r, err)
		}
		if got.Op != r.Op || got.ID != r.ID || !bytes.Equal(got.Val, r.Val) {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestDecodeReqRejectsCorrupt(t *testing.T) {
	good := AppendReq(nil, Req{Op: OpPut, ID: 1, Key: []byte("key"), Val: []byte("val")})
	cases := map[string][]byte{
		"empty":        nil,
		"short header": good[:5],
		"bad op":       append([]byte{99}, good[1:]...),
		"zero keyLen":  {OpGet, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0},
		"truncated key": func() []byte {
			b := append([]byte(nil), good...)
			return b[:12]
		}(),
		"huge valLen": func() []byte {
			b := append([]byte(nil), good...)
			off := 11 + 3 // keyLen 3
			b[off], b[off+1] = 0xFF, 0xFF
			return b
		}(),
	}
	for name, buf := range cases {
		if _, err := DecodeReq(buf); err == nil {
			t.Errorf("%s: DecodeReq accepted corrupt input", name)
		}
	}
}

func TestDecodeRespRejectsCorrupt(t *testing.T) {
	good := AppendResp(nil, Resp{Op: RespHit, ID: 1, Val: []byte("val")})
	cases := map[string][]byte{
		"empty":  nil,
		"short":  good[:3],
		"bad op": append([]byte{OpGet}, good[1:]...),
		"truncated val": func() []byte {
			b := append([]byte(nil), good...)
			return b[:len(b)-1]
		}(),
	}
	for name, buf := range cases {
		if _, err := DecodeResp(buf); err == nil {
			t.Errorf("%s: DecodeResp accepted corrupt input", name)
		}
	}
}
