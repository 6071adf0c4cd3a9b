// Command ccload is the open-loop HTTP load generator for the frontend
// service. It synthesizes a Poisson request script and drives it at a
// frontend — either one already listening at -addr, or (by default) a
// self-served in-process instance on a loopback port, which makes the
// command a one-line end-to-end demo of the live-traffic tier.
//
// Usage:
//
//	ccload                                   # self-serve, replay mode
//	ccload -mode realtime -dilation 0.1      # pace virtual time against the wall
//	ccload -addr http://127.0.0.1:8080 -rate 5000 -duration 100ms
//
// In replay mode the script's virtual timestamps order the arrivals and
// the run is deterministic end to end: same -seed, same digest. In
// real-time mode requests fire at their scheduled wall offsets (scaled
// by -dilation) whether or not earlier responses are back — open loop —
// and a fallen-behind server sheds by deadline admission instead of
// silently stretching the generator.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/frontend"
	"repro/internal/loadgen"
	"repro/internal/sim"
)

func main() {
	addr := flag.String("addr", "", "frontend base URL (empty = self-serve in process)")
	mode := flag.String("mode", "replay", "clock mode: replay or realtime")
	rate := flag.Float64("rate", 3000, "offered load, requests per virtual second")
	duration := flag.Duration("duration", 50*time.Millisecond, "script length in virtual time")
	rankFrac := flag.Float64("rank-frac", 0.6, "fraction of requests hitting the rank pipeline")
	clients := flag.Int("clients", 4, "concurrent HTTP connection pools")
	seed := flag.Int64("seed", 1, "script seed (and self-served frontend seed)")
	dilation := flag.Float64("dilation", 1.0, "virtual ns per wall ns (realtime)")
	background := flag.Float64("background", 0.0, "self-serve: background fabric load")
	flag.Parse()

	var m frontend.Mode
	switch *mode {
	case "replay":
		m = frontend.Replay
	case "realtime":
		m = frontend.RealTime
	default:
		fail("unknown -mode %q (replay or realtime)", *mode)
	}
	script := loadgen.Script(*seed, *rate, sim.Time(*duration), *rankFrac)
	if len(script) == 0 {
		fail("empty script: rate %g over %v produced no arrivals", *rate, *duration)
	}

	base := *addr
	if base == "" {
		cfg := frontend.DefaultConfig()
		cfg.Seed = *seed
		cfg.Mode = m
		cfg.Dilation = *dilation
		cfg.BackgroundLoad = *background
		if m == frontend.Replay {
			cfg.Expect = len(script)
		}
		f := frontend.New(cfg)
		defer f.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail("%v", err)
		}
		srv := newServer(frontend.NewHandler(f))
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Printf("self-serving %s frontend at %s\n", m, base)
	}

	res := loadgen.Run(loadgen.Config{
		BaseURL:  base,
		Clients:  *clients,
		RealTime: m == frontend.RealTime,
		Dilation: *dilation,
	}, script)

	fmt.Printf("sent      %d (%s, %d clients)\n", res.Sent, m, *clients)
	fmt.Printf("ok        %d\n", res.OK)
	fmt.Printf("shed      %d (rate %.3f)\n", res.Shed, res.ShedRate)
	fmt.Printf("errors    %d  lost %d  dup %d\n", res.Errors, res.Lost, res.Dup)
	fmt.Printf("elapsed   %v  sustained %.0f req/s\n", res.Elapsed.Round(time.Millisecond), res.RPS)
	fmt.Printf("wall lat  p50 %v  p99 %v\n",
		res.WallP50.Round(time.Microsecond), res.WallP99.Round(time.Microsecond))
	fmt.Printf("virt lat  p50 %v  p99 %v\n", res.VirtP50, res.VirtP99)
	fmt.Printf("digest    %016x\n", res.Digest)
	if res.Lost > 0 || res.Dup > 0 {
		fail("conservation violated: %d lost, %d duplicated", res.Lost, res.Dup)
	}
}

// Self-serve connection timeouts. A client that stalls mid-request is
// disconnected after readHeaderTimeout (headers) or readTimeout (whole
// request). writeTimeout outlasts the load generator's own 30 s
// per-request timeout, because a replay-mode handler holds its response
// until the whole script has arrived and run.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 60 * time.Second
)

// newServer wraps h in an http.Server with the self-serve timeouts.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccload: "+format+"\n", args...)
	os.Exit(1)
}
