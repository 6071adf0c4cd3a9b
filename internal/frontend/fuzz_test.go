package frontend_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/loadgen"
	"repro/internal/sim"
)

// FuzzHandler throws arbitrary methods, paths and bodies at one shared
// real-time service. Every request must be answered within a wall
// deadline with one of the handler's documented statuses, and
// /v1/stats must still decode afterwards. The idle driver sleeps
// between inputs, so the shared service costs nothing while the fuzzer
// mutates.
func FuzzHandler(f *testing.F) {
	script := loadgen.ScriptMix(5, 4000, 10*sim.Millisecond, []loadgen.Mix{
		{Pipeline: "rank", Weight: 1}, {Pipeline: "dnn", Weight: 1}, {Pipeline: "kv", Weight: 1},
	})
	seeded := map[string]bool{}
	for _, r := range script {
		if seeded[r.Pipeline] {
			continue
		}
		seeded[r.Pipeline] = true
		body, err := json.Marshal(map[string]any{"seq": r.Seq, "at_ns": int64(r.At), "total": len(script)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(http.MethodPost, "/v1/"+r.Pipeline, body)
	}
	if len(seeded) != 3 {
		f.Fatalf("script seeded %d pipelines, want rank, dnn and kv", len(seeded))
	}
	f.Add(http.MethodGet, "/v1/stats", []byte(nil))
	f.Add(http.MethodGet, "/healthz", []byte(nil))
	f.Add(http.MethodPost, "/healthz", []byte(nil))
	f.Add(http.MethodGet, "/v1/rank", []byte(nil))
	f.Add(http.MethodPost, "/v1/nope", []byte(`{"seq":1}`))
	for _, b := range []string{"", "{", "null", "[1,2]", `{"seq":-1}`, `{"seq":"x"}`, `{"seq":1,"at_ns":-5,"total":-1}`} {
		f.Add(http.MethodPost, "/v1/dnn", []byte(b))
	}
	f.Add(http.MethodPost, "/v1/rank", []byte(`{"seq":1,"pad":"`+strings.Repeat("x", 70<<10)+`"}`))

	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.RealTime
	cfg.BackgroundLoad = 0
	cfg.Dilation = 0.1
	cfg.KV.Enabled = true
	svc := frontend.New(cfg)
	f.Cleanup(svc.Close)
	h := frontend.NewHandler(svc)

	serve := func(t *testing.T, r *http.Request) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(w, r)
		}()
		select {
		case <-done:
			return w
		case <-time.After(5 * time.Second):
			t.Fatalf("%s %s: no answer within 5s", r.Method, r.URL.Path)
			return nil
		}
	}

	f.Fuzz(func(t *testing.T, method, p string, body []byte) {
		r, err := http.NewRequest(method, "http://frontend.test"+p, bytes.NewReader(body))
		if err != nil {
			t.Skip("not a well-formed request")
		}
		// The mux answers a non-canonical path with a redirect to its
		// canonical form; only canonical paths reach the handlers.
		clean := path.Clean(r.URL.Path)
		if strings.HasSuffix(r.URL.Path, "/") && clean != "/" {
			clean += "/"
		}
		if r.URL.Path == "" || clean != r.URL.Path {
			t.Skip("non-canonical path")
		}
		w := serve(t, r)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusServiceUnavailable:
		default:
			t.Fatalf("%q %q: status %d, body %q", method, p, w.Code, w.Body.String())
		}

		sw := serve(t, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st frontend.Stats
		if err := json.NewDecoder(sw.Body).Decode(&st); err != nil || sw.Code != http.StatusOK {
			t.Fatalf("after %q %q: stats status %d: %v", method, p, sw.Code, err)
		}
		if st.Mode != "realtime" || len(st.Pipelines) != 3 {
			t.Fatalf("after %q %q: stats %+v", method, p, st)
		}
	})
}
