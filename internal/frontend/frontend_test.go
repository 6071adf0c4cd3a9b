package frontend_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/frontend"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/sim"
)

func replayConfig(expect int) frontend.Config {
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.Replay
	cfg.Expect = expect
	cfg.Telemetry = true
	cfg.SpanLimit = 2048
	return cfg
}

// runReplay serves one script through a real HTTP server with the given
// client concurrency and returns the load generator's digest plus the
// service's telemetry JSONL.
func runReplay(t *testing.T, script []loadgen.Req, clients int) (loadgen.Result, []byte) {
	t.Helper()
	f := frontend.New(replayConfig(len(script)))
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()
	defer f.Close()

	res := loadgen.Run(loadgen.Config{BaseURL: srv.URL, Clients: clients}, script)
	if res.Lost != 0 || res.Dup != 0 || res.Errors != 0 {
		t.Fatalf("conservation violated: lost=%d dup=%d errors=%d", res.Lost, res.Dup, res.Errors)
	}
	if res.OK+res.Shed != res.Sent {
		t.Fatalf("OK %d + shed %d != sent %d", res.OK, res.Shed, res.Sent)
	}
	var b bytes.Buffer
	if err := obs.EncodeAll(&b, []*obs.Record{f.Telemetry("det-test")}); err != nil {
		t.Fatalf("encode telemetry: %v", err)
	}
	return res, b.Bytes()
}

// TestReplayDeterminismThroughHTTP is the service-boundary determinism
// guarantee: same seed + same script ⇒ identical response digests and
// byte-identical telemetry JSONL, across repeated runs and across client
// concurrency (1 connection vs 8 delivering the script in scrambled
// interleavings).
func TestReplayDeterminismThroughHTTP(t *testing.T) {
	script := loadgen.Script(7, 4000, 40*sim.Millisecond, 0.6)
	if len(script) < 50 {
		t.Fatalf("script too small: %d", len(script))
	}

	type run struct {
		res  loadgen.Result
		tele []byte
	}
	var runs []run
	for _, clients := range []int{1, 8, 8} {
		res, tele := runReplay(t, script, clients)
		runs = append(runs, run{res, tele})
	}
	base := runs[0]
	if base.res.OK == 0 {
		t.Fatal("no requests completed")
	}
	for i, r := range runs[1:] {
		if r.res.Digest != base.res.Digest {
			t.Errorf("run %d digest %x != base %x", i+1, r.res.Digest, base.res.Digest)
		}
		if r.res.OK != base.res.OK || r.res.Shed != base.res.Shed {
			t.Errorf("run %d ok/shed %d/%d != base %d/%d",
				i+1, r.res.OK, r.res.Shed, base.res.OK, base.res.Shed)
		}
		if !bytes.Equal(r.tele, base.tele) {
			t.Errorf("run %d telemetry differs from base (%d vs %d bytes)",
				i+1, len(r.tele), len(base.tele))
		}
	}
	if len(base.tele) == 0 || !bytes.Contains(base.tele, []byte("frontend.rank.ingress")) {
		t.Errorf("telemetry missing frontend metrics: %d bytes", len(base.tele))
	}
}

// TestRealTimeEndToEnd is the live-traffic race test: frontend in
// real-time mode on a real listener, N concurrent open-loop clients,
// zero lost or duplicated responses, clean shutdown. Run under -race
// this exercises every handler/driver/sim-thread handoff.
func TestRealTimeEndToEnd(t *testing.T) {
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.RealTime
	// No fabric noise: real-time pacing needs the sim to keep up with
	// the wall clock, and noise event volume is pure drag here. The slow
	// dilation and roomy deadline give the sim headroom on loaded or
	// race-instrumented machines — the lag-shedding path stays covered
	// by TestServiceSubmitLagSheds in svclb, where it is deterministic.
	cfg.BackgroundLoad = 0
	cfg.Dilation = 0.05
	cfg.Rank.Deadline = 20 * sim.Millisecond
	cfg.DNN.Deadline = 20 * sim.Millisecond
	f := frontend.New(cfg)
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()

	script := loadgen.Script(21, 1500, 60*sim.Millisecond, 0.5)
	res := loadgen.Run(loadgen.Config{
		BaseURL: srv.URL, Clients: 8, RealTime: true, Dilation: cfg.Dilation,
	}, script)

	if res.Lost != 0 || res.Dup != 0 || res.Errors != 0 {
		t.Fatalf("conservation violated: lost=%d dup=%d errors=%d (sent %d)",
			res.Lost, res.Dup, res.Errors, res.Sent)
	}
	if res.OK == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
	if res.OK+res.Shed != res.Sent {
		t.Fatalf("OK %d + shed %d != sent %d", res.OK, res.Shed, res.Sent)
	}

	st := f.Stats()
	if st.Mode != "realtime" {
		t.Errorf("stats mode = %q", st.Mode)
	}
	var completed uint64
	for _, ps := range st.Pipelines {
		completed += ps.Completed
	}
	if completed != uint64(res.OK) {
		t.Errorf("server completed %d != client OK %d", completed, res.OK)
	}

	f.Close()
	f.Close() // idempotent

	// After close the service refuses new work instead of hanging.
	resp, err := http.Post(srv.URL+"/v1/rank", "application/json",
		strings.NewReader(`{"seq":0}`))
	if err != nil {
		t.Fatalf("post after close: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post after close: status %d, want 503", resp.StatusCode)
	}
}

// TestRealTimeConcurrentClose races in-flight traffic against shutdown:
// every handler must still get exactly one answer (some may be 503).
func TestRealTimeConcurrentClose(t *testing.T) {
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.RealTime
	cfg.BackgroundLoad = 0
	f := frontend.New(cfg)
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()

	var wg sync.WaitGroup
	answered := make([]bool, 64)
	for i := range answered {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"seq":%d}`, i)
			resp, err := http.Post(srv.URL+"/v1/dnn", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			resp.Body.Close()
			answered[i] = true
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	f.Close()
	wg.Wait()
	for i, ok := range answered {
		if !ok {
			t.Fatalf("request %d got no HTTP answer at all", i)
		}
	}
}

// TestReplayCloseBeforeScriptCompletes: a partial script must not hang
// its handlers when the service shuts down.
func TestReplayCloseBeforeScriptCompletes(t *testing.T) {
	cfg := replayConfig(2)
	cfg.Telemetry = false
	f := frontend.New(cfg)
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/rank", "application/json",
			strings.NewReader(`{"seq":0,"at_ns":1000,"total":2}`))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond)
	f.Close()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Errorf("partial-script request got status %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler hung after Close")
	}
}

// TestHTTPSurface covers the non-happy-path HTTP contract.
func TestHTTPSurface(t *testing.T) {
	cfg := replayConfig(1)
	cfg.Telemetry = false
	f := frontend.New(cfg)
	defer f.Close()
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()

	get := func(path string) *http.Response {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp := get("/v1/stats")
	var st frontend.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.Mode != "replay" || len(st.Pipelines) != 2 {
		t.Errorf("stats = %+v", st)
	}

	// Malformed body: 400.
	r2, err := http.Post(srv.URL+"/v1/rank", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", r2.StatusCode)
	}

	// Wrong method: the Go 1.22 pattern router answers 405.
	r3, err := http.Get(srv.URL + "/v1/rank")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on pipeline status %d, want 405", r3.StatusCode)
	}

	// Inconsistent script total: answered with an error, not buffered.
	r4, err := http.Post(srv.URL+"/v1/dnn", "application/json",
		strings.NewReader(`{"seq":5,"at_ns":0,"total":99}`))
	if err != nil {
		t.Fatal(err)
	}
	var rr frontend.Resp
	if err := json.NewDecoder(r4.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if rr.Error == "" {
		t.Errorf("inconsistent total accepted: %+v", rr)
	}
}

// TestReplayVirtualClockAdvances pins that the replay run actually
// advanced virtual time to (and past) the scripted arrivals.
func TestReplayVirtualClockAdvances(t *testing.T) {
	script := loadgen.Script(3, 2000, 10*sim.Millisecond, 1.0)
	f := frontend.New(replayConfig(len(script)))
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()
	defer f.Close()

	res := loadgen.Run(loadgen.Config{BaseURL: srv.URL, Clients: 2}, script)
	if res.Lost != 0 || res.OK == 0 {
		t.Fatalf("bad run: %+v", res)
	}
	last := script[len(script)-1].At
	if now := f.Sim().Now(); now < last {
		t.Errorf("virtual clock %v did not reach last arrival %v", now, last)
	}
	if res.VirtP50 <= 0 || res.VirtP99 < res.VirtP50 {
		t.Errorf("virtual percentiles p50=%v p99=%v", res.VirtP50, res.VirtP99)
	}
}

// postWithin POSTs body to url and returns the status and decoded
// response, failing the test (instead of hanging it) when no answer
// comes within the wall deadline.
func postWithin(t *testing.T, url, body string, deadline time.Duration) (int, frontend.Resp) {
	t.Helper()
	type answer struct {
		code int
		resp frontend.Resp
		err  error
	}
	ch := make(chan answer, 1)
	go func() {
		r, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			ch <- answer{err: err}
			return
		}
		defer r.Body.Close()
		var a answer
		a.code = r.StatusCode
		a.err = json.NewDecoder(r.Body).Decode(&a.resp)
		ch <- a
	}()
	select {
	case a := <-ch:
		if a.err != nil {
			t.Fatalf("POST %s: %v", body, a.err)
		}
		return a.code, a.resp
	case <-time.After(deadline):
		t.Fatalf("POST %s: no answer within %v", body, deadline)
		return 0, frontend.Resp{}
	}
}

// TestReplayFarArrivalAnswered: a replay arrival past ReplayHorizon is
// answered with an error at once instead of running the simulation out
// to it. The server is closed only once answered: a wedged driver would
// hang Close too.
func TestReplayFarArrivalAnswered(t *testing.T) {
	cfg := replayConfig(0)
	cfg.Telemetry = false
	f := frontend.New(cfg)
	srv := httptest.NewServer(frontend.NewHandler(f))
	code, resp := postWithin(t, srv.URL+"/v1/rank",
		`{"seq":1,"at_ns":4611686018427387904,"total":1}`, 5*time.Second)
	if code != http.StatusServiceUnavailable || resp.Error == "" {
		t.Errorf("far arrival: status %d, resp %+v; want 503 with an error", code, resp)
	}
	code, _ = postWithin(t, srv.URL+"/v1/rank",
		fmt.Sprintf(`{"seq":2,"at_ns":%d,"total":1}`, int64(frontend.ReplayHorizon)), 5*time.Second)
	if code != http.StatusServiceUnavailable {
		t.Errorf("arrival at the horizon: status %d, want 503", code)
	}
	srv.Close()
	f.Close()
}

// TestReplayRefusedRequestCompletesScript: a script request refused at
// submission (here an arrival at the horizon) still counts toward the
// script's length, so the rest of the script runs and is answered
// without waiting for Close.
func TestReplayRefusedRequestCompletesScript(t *testing.T) {
	cfg := replayConfig(0)
	cfg.Telemetry = false
	cfg.BackgroundLoad = 0
	f := frontend.New(cfg)
	srv := httptest.NewServer(frontend.NewHandler(f))
	defer srv.Close()
	defer f.Close()

	type answer struct {
		code int
		resp frontend.Resp
	}
	first := make(chan answer, 1)
	go func() {
		r, err := http.Post(srv.URL+"/v1/dnn", "application/json",
			strings.NewReader(`{"seq":1,"at_ns":1000,"total":2}`))
		if err != nil {
			t.Error(err)
			first <- answer{}
			return
		}
		defer r.Body.Close()
		var a answer
		a.code = r.StatusCode
		if err := json.NewDecoder(r.Body).Decode(&a.resp); err != nil {
			t.Error(err)
		}
		first <- a
	}()
	code, _ := postWithin(t, srv.URL+"/v1/dnn",
		fmt.Sprintf(`{"seq":2,"at_ns":%d,"total":2}`, int64(frontend.ReplayHorizon)), 5*time.Second)
	if code != http.StatusServiceUnavailable {
		t.Errorf("arrival at the horizon: status %d, want 503", code)
	}
	select {
	case a := <-first:
		if a.code != http.StatusOK || !a.resp.Admitted {
			t.Errorf("valid request of the script: status %d, resp %+v; want 200 admitted", a.code, a.resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the rest of the script was not answered after a refused request")
	}
}
