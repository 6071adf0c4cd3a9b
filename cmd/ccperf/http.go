package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/frontend"
)

// httpMix is the live tier: the frontend in real-time mode behind a real
// loopback socket, driven open loop by a Poisson script over a fixed set
// of persistent HTTP/1.1 connections.
type httpMix struct {
	cfg    frontend.Config
	rate   float64       // scripted requests per wall second
	warmup time.Duration // scripted load played and discarded first
	slo    time.Duration // answered 200 within this of the scheduled send
	conns  int
	builds int
}

// mix is the script's pipeline mix (cumulative shares).
var mix = []struct {
	pipe string
	upTo float64
}{{"rank", 0.4}, {"dnn", 0.7}, {"kv", 1.0}}

func newHTTPMix(quick bool) httpMix {
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.RealTime
	cfg.Dilation = 1
	cfg.BackgroundLoad = 0
	cfg.KV.Enabled = true
	h := httpMix{cfg: cfg, rate: 300, warmup: 500 * time.Millisecond, slo: 25 * time.Millisecond, conns: 2, builds: 101}
	if quick {
		h.warmup, h.builds = 100*time.Millisecond, 5
	}
	return h
}

// httpStages split a served request's wall latency (lat) into the stages
// it passed. Per request, lat = sched_late + conn_wait + transport +
// handler, and handler = virt_lat + pacing, so the stages' means add up
// exactly; their medians need not.
var httpStages = []struct {
	name, unit string
	f          func(reqTiming) time.Duration
}{
	{"lat", "ms", func(t reqTiming) time.Duration { return t.done.Sub(t.sched) }},
	// The generator handed the request over late (timer or scheduler delay).
	{"sched_late", "ms", func(t reqTiming) time.Duration { return t.enq.Sub(t.sched) }},
	// Both connections were busy with earlier requests.
	{"conn_wait", "ms", func(t reqTiming) time.Duration { return t.pick.Sub(t.enq) }},
	// Client write, loopback, server read and dispatch, response back.
	{"transport", "ms", func(t reqTiming) time.Duration { return t.done.Sub(t.pick) - t.handler }},
	// The frontend's handler, up to writing the status line.
	{"handler", "ms", func(t reqTiming) time.Duration { return t.handler }},
	// The modelled latency inside the simulated datacenter (virtual).
	{"virt_lat", "vms", func(t reqTiming) time.Duration { return t.virt }},
	// Handler time not explained by the model: waiting for the paced
	// clock, JSON, and handing the request to the simulation goroutine.
	{"pacing", "ms", func(t reqTiming) time.Duration { return t.handler - t.virt }},
}

// scripted is one request of the open-loop script.
type scripted struct {
	seq  uint64
	pipe string
	at   time.Duration // scheduled send, from the start of the script
}

// makeScript draws Poisson arrivals at rate per second for dur, with seqs
// counting up from seq0.
func makeScript(rng *rand.Rand, rate float64, dur time.Duration, seq0 uint64) []scripted {
	var out []scripted
	at := time.Duration(0)
	for seq := seq0; ; seq++ {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			return out
		}
		u := rng.Float64()
		pipe := mix[len(mix)-1].pipe
		for _, m := range mix {
			if u < m.upTo {
				pipe = m.pipe
				break
			}
		}
		out = append(out, scripted{seq: seq, pipe: pipe, at: at})
	}
}

// handlerHeader carries the server-side handler time back to the client,
// so the client splits each request's wall time without shared memory.
const handlerHeader = "X-Ccperf-Handler-Ns"

// timedHandler wraps the frontend's handler and stamps how long it ran
// before writing its status line.
func timedHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&timedWriter{ResponseWriter: w, start: time.Now()}, r)
	})
}

type timedWriter struct {
	http.ResponseWriter
	start time.Time
	wrote bool
}

func (w *timedWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.Header().Set(handlerHeader, strconv.FormatInt(int64(time.Since(w.start)), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *timedWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// liveServer is one frontend instance served on a loopback listener.
type liveServer struct {
	f    *frontend.Service
	srv  *http.Server
	addr string
	done chan struct{} // closed when Serve has returned
}

func serve(cfg frontend.Config) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := frontend.New(cfg)
	s := &liveServer{
		f:    f,
		srv:  &http.Server{Handler: timedHandler(frontend.NewHandler(f)), ReadHeaderTimeout: 10 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the server, waits for its goroutine, and drains the frontend.
func (s *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // on timeout, Close below still tears down
	_ = s.srv.Close()
	<-s.done
	s.f.Close()
}

// conn is one persistent client connection; requests on it are serial.
type conn struct {
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	broken error // after a transport error every later request fails
}

// reqTiming is one scripted request's outcome and wall-clock split.
type reqTiming struct {
	out      httpOutcome
	sched    time.Time     // when the script said to send it
	enq      time.Time     // when the generator handed it to the connections
	pick     time.Time     // when a connection began writing it
	done     time.Time     // when its response had been read
	handler  time.Duration // server-side handler time
	virt     time.Duration // modelled latency (admitted requests only)
	admitted bool
}

// do sends one request and reads its response.
func (c *conn) do(r scripted, t *reqTiming) {
	t.out.sent = r.seq
	if c.broken != nil {
		t.out.err = c.broken
		return
	}
	fail := func(err error) {
		c.broken = err
		t.out.err = err
	}
	body := `{"seq":` + strconv.FormatUint(r.seq, 10) + `}`
	_ = c.c.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(c.bw, "POST /v1/%s HTTP/1.1\r\nHost: ccperf\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		r.pipe, len(body), body)
	if err := c.bw.Flush(); err != nil {
		fail(fmt.Errorf("write: %w", err))
		return
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		fail(fmt.Errorf("read response: %w", err))
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.done = time.Now()
	if err != nil {
		fail(fmt.Errorf("read body: %w", err))
		return
	}
	t.out.status = resp.StatusCode
	var fr frontend.Resp
	if err := json.Unmarshal(b, &fr); err != nil {
		t.out.err = fmt.Errorf("decode body: %w", err)
		return
	}
	t.out.got = fr.Seq
	t.admitted = resp.StatusCode == http.StatusOK && fr.Admitted
	t.virt = time.Duration(fr.LatencyNs)
	ns, _ := strconv.ParseInt(resp.Header.Get(handlerHeader), 10, 64)
	t.handler = time.Duration(ns)
}

// client holds the fixed set of persistent connections.
type client struct{ conns []*conn }

func dial(addr string, n int) (*client, error) {
	cl := &client{}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		cl.conns = append(cl.conns, &conn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)})
	}
	return cl, nil
}

func (cl *client) close() {
	for _, c := range cl.conns {
		_ = c.c.Close()
	}
}

// play sends script open loop: each request is handed to the connections
// at its scheduled time whether or not earlier ones have been answered,
// and the first free connection sends it. It returns once every request
// has an outcome.
func (cl *client) play(script []scripted) []reqTiming {
	ts := make([]reqTiming, len(script))
	jobs := make(chan int, len(script)) // never blocks the generator
	var wg sync.WaitGroup
	for _, c := range cl.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range jobs {
				ts[i].pick = time.Now()
				c.do(script[i], &ts[i])
			}
		}(c)
	}
	start := time.Now().Add(time.Millisecond)
	for i, r := range script {
		ts[i].sched = start.Add(r.at)
		if d := time.Until(ts[i].sched); d > 0 {
			time.Sleep(d)
		}
		ts[i].enq = time.Now()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return ts
}

// runHTTP measures the live tier. An untraced run plays the script once
// for the whole budget; a traced run plays half the budget untraced (the
// wall-clock split) and half against a second, traced frontend (profile,
// telemetry, trace overhead).
func runHTTP(h httpMix, seed int64, budget time.Duration, trace bool, rep *report) error {
	heap := watchHeap()
	defer heap.stop()
	if !trace {
		cfg := h.cfg
		cfg.Seed = seed
		rep.setup(h.builds, func() func() {
			f := frontend.New(cfg)
			frontend.NewHandler(f)
			return f.Close
		})
	}
	rng := rand.New(rand.NewSource(seed))
	phase := budget
	if trace {
		phase = budget / 2
	}

	plain, cost, err := h.phase(seed, rng, phase, heap, nil, rep)
	if err != nil {
		return err
	}
	lat := served(plain, func(t reqTiming) float64 { return ms(t.done.Sub(t.sched)) })
	if !trace {
		// Unlike simulation work, the live tier is paced by the wall clock:
		// its latency and CPU per request are not host-speed adjusted.
		rep.ops = len(plain)
		rep.metrics["run_s"] = median(lat) / 1e3
		rep.metrics["cpu_s"] = cost.cpu / float64(len(plain))
		rep.metrics["live_heap_mb"] = heap.stop()
		return nil
	}

	m := rep.metrics
	goLayers([]opCost{cost}, float64(len(plain)), m)
	m["http.slo_frac"] = h.sloFrac(plain)
	for _, st := range httpStages {
		xs := served(plain, func(t reqTiming) float64 { return ms(st.f(t)) })
		m["http."+st.name+"_ms_p50"] = median(xs)
		m["http."+st.name+"_ms_p99"], _ = percentile(xs, 99)
		m["http."+st.name+"_ms_mean"] = mean(xs)
	}
	virt := served(plain, func(t reqTiming) float64 { return float64(t.virt) / 1e3 })
	if p, ok := percentile(virt, 99); ok {
		m["sim.req_p99_us"] = p
	}

	var prof []profSample
	traced, _, err := h.phase(seed, rng, phase, nil, &prof, rep)
	if err != nil {
		return err
	}
	rep.ops = len(plain) + len(traced)
	hostShares(prof, m)
	rep.top = topFuncs(prof, 15)
	m["trace.overhead"] = median(served(traced, func(t reqTiming) float64 { return ms(t.done.Sub(t.sched)) })) / median(lat)
	return nil
}

// phase builds one frontend, plays a discarded warm-up script and then a
// timed one of length dur against it, and checks every request. The timed
// script's live heap goes to heap. A traced phase (prof non-nil) runs the
// frontend with telemetry, profiles the timed script into prof, and reads
// the modelled per-layer counters into rep.
func (h httpMix) phase(seed int64, rng *rand.Rand, dur time.Duration, heap *heapWatch, prof *[]profSample, rep *report) ([]reqTiming, opCost, error) {
	traced := prof != nil
	cfg := h.cfg
	cfg.Seed = seed
	cfg.Telemetry = traced
	if traced {
		cfg.SpanLimit = spanLimit
	}
	s, err := serve(cfg)
	if err != nil {
		return nil, opCost{}, err
	}
	defer s.close()
	cl, err := dial(s.addr, h.conns)
	if err != nil {
		return nil, opCost{}, err
	}
	defer cl.close()

	warm := makeScript(rng, h.rate, h.warmup, 1)
	h.check(warm, cl.play(warm), rep)
	timed := makeScript(rng, h.rate, dur, 1+uint64(len(warm)))
	var ts []reqTiming
	var perr error
	play := func() { heap.during(func() { ts = cl.play(timed) }) }
	var cost opCost
	if traced {
		cost = measure(func() { perr = profiled(prof, play) })
	} else {
		cost = measure(play)
	}
	if perr != nil {
		return nil, opCost{}, perr
	}
	h.check(timed, ts, rep)
	if traced {
		cl.close()
		s.close() // telemetry is read from a quiescent clock
		recordLayers(s.f.Telemetry("ccperf"), rep.metrics)
	}
	return ts, cost, nil
}

// check counts every scripted request as one attempted op.
func (h httpMix) check(script []scripted, ts []reqTiming, rep *report) {
	seqs := make([]uint64, len(script))
	outs := make([]httpOutcome, len(ts))
	for i := range script {
		seqs[i] = script[i].seq
		outs[i] = ts[i].out
	}
	failed, first := checkHTTP(seqs, outs)
	rep.attempted += len(script)
	rep.failed += failed
	if rep.firstErr == nil {
		rep.firstErr = first
	}
}

// sloFrac is the share of scripted requests answered 200 within the SLO
// of their scheduled send; sheds and failures are misses.
func (h httpMix) sloFrac(ts []reqTiming) float64 {
	if len(ts) == 0 {
		return 0
	}
	met := 0
	for _, t := range ts {
		if t.admitted && t.out.err == nil && t.done.Sub(t.sched) <= h.slo {
			met++
		}
	}
	return float64(met) / float64(len(ts))
}

// served maps the requests answered 200 through f. Sheds and failures
// have no service latency; sloFrac counts them as misses.
func served(ts []reqTiming, f func(reqTiming) float64) []float64 {
	var out []float64
	for _, t := range ts {
		if t.admitted && t.out.err == nil {
			out = append(out, f(t))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
