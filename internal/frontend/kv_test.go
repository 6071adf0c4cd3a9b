package frontend_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/frontend"
	"repro/internal/loadgen"
	"repro/internal/sim"
)

func kvReplayConfig(expect int) frontend.Config {
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.Replay
	cfg.Expect = expect
	cfg.KV.Enabled = true
	cfg.KV.Keys = 128
	return cfg
}

// TestKVEndpointOverHTTP drives a mixed rank/dnn/kv script over a real
// listener: the kv pipeline must answer every request exactly once, with
// some GETs hitting (PUTs seed the keyspace), and the same script must
// replay to the same digest across runs.
func TestKVEndpointOverHTTP(t *testing.T) {
	script := loadgen.ScriptMix(11, 4000, 30*sim.Millisecond,
		[]loadgen.Mix{{Pipeline: "rank", Weight: 0.3}, {Pipeline: "kv", Weight: 0.7}})
	kvTotal := 0
	for _, r := range script {
		if r.Pipeline == "kv" {
			kvTotal++
		}
	}
	if kvTotal < 20 {
		t.Fatalf("script too small: %d kv requests", kvTotal)
	}

	run := func(clients int) (loadgen.Result, frontend.Stats) {
		f := frontend.New(kvReplayConfig(len(script)))
		srv := httptest.NewServer(frontend.NewHandler(f))
		defer srv.Close()
		defer f.Close()
		res := loadgen.Run(loadgen.Config{BaseURL: srv.URL, Clients: clients}, script)
		return res, f.Stats()
	}

	res, stats := run(4)
	if res.Lost != 0 || res.Dup != 0 || res.Errors != 0 {
		t.Fatalf("conservation violated: %+v", res)
	}
	kv, ok := stats.Pipelines["kv"]
	if !ok {
		t.Fatalf("no kv pipeline in stats: %+v", stats)
	}
	if int(kv.Ingress) != kvTotal {
		t.Fatalf("kv ingress %d != scripted %d", kv.Ingress, kvTotal)
	}
	if kv.Completed+kv.Shed != kv.Ingress {
		t.Fatalf("kv conservation: completed %d + shed %d != ingress %d",
			kv.Completed, kv.Shed, kv.Ingress)
	}
	if kv.Completed == 0 {
		t.Fatal("no kv completions")
	}

	// Determinism across runs and connection counts.
	res2, _ := run(1)
	if res2.Digest != res.Digest || res2.OK != res.OK {
		t.Fatalf("kv replay diverged: %d/%d vs %d/%d", res.Digest, res.OK, res2.Digest, res2.OK)
	}
}

// TestKVHitReported checks the wire contract: a PUT then a GET of the
// same seq-derived key must report hit=true in the response body.
func TestKVHitReported(t *testing.T) {
	cfg := kvReplayConfig(2)
	cfg.KV.PutEvery = 2 // seq 0 -> PUT, seq 1 -> GET
	cfg.KV.Keys = 1     // every seq maps to key 0
	f := frontend.New(cfg)
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()
	defer f.Close()

	type out struct {
		resp frontend.Resp
		code int
	}
	ch := make(chan out, 2)
	for seq := 0; seq < 2; seq++ {
		go func(seq int) {
			body, _ := json.Marshal(map[string]any{"seq": seq, "at_ns": seq * 1000, "total": 2})
			r, err := http.Post(srv.URL+"/v1/kv", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				ch <- out{}
				return
			}
			defer r.Body.Close()
			var resp frontend.Resp
			_ = json.NewDecoder(r.Body).Decode(&resp)
			ch <- out{resp, r.StatusCode}
		}(seq)
	}
	bySeq := map[uint64]out{}
	for i := 0; i < 2; i++ {
		o := <-ch
		bySeq[o.resp.Seq] = o
	}
	if o := bySeq[0]; o.code != http.StatusOK || !o.resp.Admitted || o.resp.Hit {
		t.Fatalf("PUT response wrong: %+v code %d", o.resp, o.code)
	}
	if o := bySeq[1]; o.code != http.StatusOK || !o.resp.Admitted || !o.resp.Hit {
		t.Fatalf("GET after PUT should hit: %+v code %d", o.resp, o.code)
	}
}

// TestKVDisabledReturns404: without KV enabled the route stays closed.
func TestKVDisabledReturns404(t *testing.T) {
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.Replay
	cfg.Expect = 1
	f := frontend.New(cfg)
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()
	defer f.Close()

	r, err := http.Post(srv.URL+"/v1/kv", "application/json",
		bytes.NewReader([]byte(`{"seq":0,"at_ns":0,"total":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("kv disabled: got %d, want 404", r.StatusCode)
	}
}
