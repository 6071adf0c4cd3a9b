package kvcache

import (
	"bytes"
	"testing"
)

// FuzzDecodeReq asserts the shard-side decoder never panics and that
// every accepted request re-encodes to an equivalent message.
func FuzzDecodeReq(f *testing.F) {
	f.Add(AppendReq(nil, Req{Op: OpGet, ID: 1, Key: []byte("key")}))
	f.Add(AppendReq(nil, Req{Op: OpPut, ID: 2, Key: []byte("key"), Val: []byte("value")}))
	f.Add(AppendReq(nil, Req{Op: OpPut, ID: 3, Key: bytes.Repeat([]byte{1}, MaxKeyBytes), Val: bytes.Repeat([]byte{2}, MaxValBytes)}))
	f.Add([]byte{})
	f.Add([]byte{OpGet, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReq(data)
		if err != nil {
			return
		}
		if len(r.Key) == 0 || len(r.Key) > MaxKeyBytes || len(r.Val) > MaxValBytes {
			t.Fatalf("accepted out-of-bounds request: %d key, %d val", len(r.Key), len(r.Val))
		}
		r2, err := DecodeReq(AppendReq(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if r2.Op != r.Op || r2.ID != r.ID || !bytes.Equal(r2.Key, r.Key) || !bytes.Equal(r2.Val, r.Val) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
	})
}

// FuzzDecodeResp mirrors FuzzDecodeReq for the client-side decoder.
func FuzzDecodeResp(f *testing.F) {
	f.Add(AppendResp(nil, Resp{Op: RespHit, ID: 1, Val: []byte("value")}))
	f.Add(AppendResp(nil, Resp{Op: RespMiss, ID: 2}))
	f.Add(AppendResp(nil, Resp{Op: RespError, ID: 3}))
	f.Add([]byte{RespHit, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResp(data)
		if err != nil {
			return
		}
		if len(r.Val) > MaxValBytes {
			t.Fatalf("accepted oversized value: %d", len(r.Val))
		}
		r2, err := DecodeResp(AppendResp(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted response failed: %v", err)
		}
		if r2.Op != r.Op || r2.ID != r.ID || !bytes.Equal(r2.Val, r.Val) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
	})
}

// FuzzDecodeMReq covers the batched multi-get request decoder: bad
// counts, truncated key tables, and per-key length fields running past
// the buffer must all reject cleanly, and accepted batches must survive
// a re-encode round trip key for key.
func FuzzDecodeMReq(f *testing.F) {
	f.Add(AppendMReq(nil, MReq{ID: 1, Keys: [][]byte{[]byte("key")}}))
	f.Add(AppendMReq(nil, MReq{ID: 2, Keys: [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}}))
	f.Add(AppendMReq(nil, MReq{ID: 3, Keys: func() [][]byte {
		ks := make([][]byte, MaxMultiKeys)
		for i := range ks {
			ks[i] = bytes.Repeat([]byte{byte(i)}, MaxKeyBytes)
		}
		return ks
	}()}))
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 0})                      // count 0
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, MaxMultiKeys + 1})       // count too large
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 3, 'k', 'e', 'y'}) // second key missing
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0xFF, 0xFF})          // key length past end
	f.Add([]byte{OpMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0})                // zero-length key
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeMReq(data)
		if err != nil {
			return
		}
		if len(r.Keys) < 1 || len(r.Keys) > MaxMultiKeys {
			t.Fatalf("accepted out-of-range batch: %d keys", len(r.Keys))
		}
		for _, k := range r.Keys {
			if len(k) == 0 || len(k) > MaxKeyBytes {
				t.Fatalf("accepted out-of-bounds key: %d bytes", len(k))
			}
		}
		r2, err := DecodeMReq(AppendMReq(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if r2.ID != r.ID || len(r2.Keys) != len(r.Keys) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
		for i := range r.Keys {
			if !bytes.Equal(r2.Keys[i], r.Keys[i]) {
				t.Fatalf("key %d mismatch after re-encode", i)
			}
		}
	})
}

// FuzzDecodeMResp mirrors FuzzDecodeMReq for the batched reply decoder,
// including hit entries whose value length disagrees with the buffer.
func FuzzDecodeMResp(f *testing.F) {
	f.Add(AppendMResp(nil, MResp{ID: 1, Hits: []bool{true}, Vals: [][]byte{[]byte("val")}}))
	f.Add(AppendMResp(nil, MResp{ID: 2, Hits: []bool{true, false, true},
		Vals: [][]byte{[]byte("v0"), nil, []byte("v2")}}))
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 0})                // count 0
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0xFF, 0xFF}) // value length past end
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0})       // second entry missing
	f.Add([]byte{RespMGet, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 2, 'v'})  // value truncated
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeMResp(data)
		if err != nil {
			return
		}
		if len(r.Hits) < 1 || len(r.Hits) > MaxMultiKeys || len(r.Vals) != len(r.Hits) {
			t.Fatalf("accepted malformed batch reply: %d hits, %d vals", len(r.Hits), len(r.Vals))
		}
		for i, v := range r.Vals {
			if len(v) > MaxValBytes {
				t.Fatalf("accepted oversized value: %d bytes", len(v))
			}
			if !r.Hits[i] && len(v) != 0 {
				t.Fatalf("miss entry %d carries a value", i)
			}
		}
		r2, err := DecodeMResp(AppendMResp(nil, r))
		if err != nil {
			t.Fatalf("re-decode of accepted reply failed: %v", err)
		}
		if r2.ID != r.ID || len(r2.Hits) != len(r.Hits) {
			t.Fatalf("re-encode mismatch: %+v vs %+v", r2, r)
		}
		for i := range r.Vals {
			if r2.Hits[i] != r.Hits[i] || !bytes.Equal(r2.Vals[i], r.Vals[i]) {
				t.Fatalf("entry %d mismatch after re-encode", i)
			}
		}
	})
}
