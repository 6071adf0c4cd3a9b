package rpcnic

import (
	"bytes"
	"testing"
)

// FuzzDecodeReq asserts the dispatcher's decoder never panics on corrupt
// ingress and that accepted requests survive a re-encode round trip.
func FuzzDecodeReq(f *testing.F) {
	f.Add(AppendReq(nil, Req{Method: MethodEcho, ID: 1}))
	f.Add(AppendReq(nil, Req{Method: MethodHash, ID: 2, Args: []byte("args")}))
	f.Add(AppendReq(nil, Req{Method: MethodRank, ID: 3, Args: bytes.Repeat([]byte{5}, MaxArgBytes)}))
	f.Add([]byte{reqMagic, reqVersion, MethodEcho, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Add([]byte{reqMagic, reqVersion, MethodHash, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 8, 'a', 'b'}) // argLen past end
	f.Add(AppendReq(nil, Req{Method: MethodRank, ID: 4, Args: []byte("tail")})[:14])           // args truncated off
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReq(data)
		if err != nil {
			return
		}
		if r.Method < MethodEcho || r.Method > MethodRank || len(r.Args) > MaxArgBytes {
			t.Fatalf("accepted out-of-bounds request: %+v", r)
		}
		r2, err := DecodeReq(AppendReq(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if r2.Method != r.Method || r2.Flags != r.Flags || r2.ID != r.ID || !bytes.Equal(r2.Args, r.Args) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
	})
}

// FuzzDecodeResp mirrors FuzzDecodeReq for the response decoder.
func FuzzDecodeResp(f *testing.F) {
	f.Add(AppendResp(nil, Resp{Status: 0, Method: MethodEcho, ID: 1, Ret: []byte("r")}))
	f.Add(AppendResp(nil, Resp{Status: 1, Method: MethodRank, ID: 2}))
	f.Add([]byte{reqMagic, 0, MethodEcho, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Add([]byte{reqMagic, 0, MethodHash, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 'r'}) // retLen past end
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResp(data)
		if err != nil {
			return
		}
		if len(r.Ret) > MaxArgBytes {
			t.Fatalf("accepted oversized result: %d", len(r.Ret))
		}
		r2, err := DecodeResp(AppendResp(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted response failed: %v", err)
		}
		if r2.Status != r.Status || r2.Method != r.Method || r2.ID != r.ID || !bytes.Equal(r2.Ret, r.Ret) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
	})
}
