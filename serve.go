package configcloud

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/frontend"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ServeConfig drives one point of the E17 serve experiment: a frontend
// service on a real loopback listener, a Poisson request script, and the
// open-loop load generator posing as N concurrent HTTP clients.
type ServeConfig struct {
	Seed int64
	Mode frontend.Mode
	// Script shape: Rate requests/second of virtual time for Duration,
	// each a ranking request with probability RankFraction (else DNN).
	Rate         float64
	Duration     sim.Time
	RankFraction float64
	// Clients is the generator's HTTP connection-pool count.
	Clients int
	// Dilation is virtual ns per wall ns (real-time mode, where it must
	// be positive).
	Dilation float64
	// Deadline overrides both pipelines' admission deadline (0 keeps the
	// frontend default).
	Deadline sim.Time
	// BackgroundLoad is other tenants' fabric noise. In real time its
	// host cost slows the paced virtual clock; whether that makes the
	// simulation fall behind and shed depends on the host's speed, so a
	// real-time point's shed rate under noise is a wall-clock result.
	BackgroundLoad float64
	// Telemetry collects the service's obs record into Result.Record.
	Telemetry bool
	SpanLimit int
}

// ServeResult is one serve point: the client-side summary, the server's
// own counters, and (optionally) its telemetry record.
type ServeResult struct {
	Load   loadgen.Result
	Stats  frontend.Stats
	Record *obs.Record
}

// RunServePoint serves one script over real HTTP: it binds a loopback
// listener, runs the load generator against it, snapshots the server's
// stats, and shuts everything down cleanly.
func RunServePoint(cfg ServeConfig) (ServeResult, error) {
	script := loadgen.Script(cfg.Seed+1, cfg.Rate, cfg.Duration, cfg.RankFraction)

	fcfg := frontend.DefaultConfig()
	fcfg.Seed = cfg.Seed
	fcfg.Mode = cfg.Mode
	fcfg.Dilation = cfg.Dilation
	fcfg.BackgroundLoad = cfg.BackgroundLoad
	fcfg.Telemetry = cfg.Telemetry
	fcfg.SpanLimit = cfg.SpanLimit
	if cfg.Deadline > 0 {
		fcfg.Rank.Deadline = cfg.Deadline
		fcfg.DNN.Deadline = cfg.Deadline
	}
	if cfg.Mode == frontend.Replay {
		fcfg.Expect = len(script)
	}
	f := frontend.New(fcfg)
	res, stats, err := serveLoopback(f, loadgen.Config{
		Clients:  cfg.Clients,
		RealTime: cfg.Mode == frontend.RealTime,
		Dilation: cfg.Dilation,
	}, script)
	if err != nil {
		return ServeResult{}, fmt.Errorf("serve: %w", err)
	}
	// Collect after Close: the clock is quiescent and every span ended.
	rec := f.Telemetry(fmt.Sprintf("%s rate=%g", cfg.Mode, cfg.Rate))
	return ServeResult{Load: res, Stats: stats, Record: rec}, nil
}

// serveLoopback serves f on a loopback listener and drives script
// through it with lc, whose BaseURL it sets. It returns the load
// result and f's stats, and closes f on every path.
func serveLoopback(f *frontend.Service, lc loadgen.Config, script []loadgen.Req) (loadgen.Result, frontend.Stats, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return loadgen.Result{}, frontend.Stats{}, err
	}
	srv := &http.Server{Handler: frontend.NewHandler(f)}
	go func() { _ = srv.Serve(ln) }()
	lc.BaseURL = "http://" + ln.Addr().String()
	res := loadgen.Run(lc, script)
	stats := f.Stats()
	f.Close()
	_ = srv.Close()
	return res, stats, nil
}

// serveRow labels one E17 table row.
type serveRow struct {
	label string
	cfg   ServeConfig
}

// serveRows sizes the E17 sweep. The replay point is the determinism
// witness and runs twice (digest equality). The realtime point is paced
// slowly enough that the simulation keeps up with the wall clock even on
// loaded or race-instrumented machines, so its shed rate stays ~0. The
// overload point adds 1% fabric noise at full pacing, to push the
// simulation behind the wall clock so that lag builds and the admission
// rule sheds, the live degradation mode. It sheds only on a host too
// slow to cover a virtual nanosecond per wall nanosecond: with noise run
// in line at each port, a 2-vCPU VM keeps up and sheds nothing. Its shed
// rate is a wall-clock cell (EXPERIMENTS.md, E17).
func serveRows(scale Scale) []serveRow {
	replay := ServeConfig{
		Seed: 17, Mode: frontend.Replay,
		Rate: 4000, Duration: 40 * Millisecond, RankFraction: 0.6,
		Clients: 8,
	}
	realtime := ServeConfig{
		Seed: 17, Mode: frontend.RealTime,
		Rate: 1200, Duration: 60 * Millisecond, RankFraction: 0.5,
		Clients: 8, Dilation: 0.05, Deadline: 20 * Millisecond,
	}
	// The 30ms deadline is generous on purpose: requests arriving before
	// the lag crosses it are admitted, so the row shows the transition
	// into shedding rather than a flat 100%.
	overload := ServeConfig{
		Seed: 17, Mode: frontend.RealTime,
		Rate: 3000, Duration: 50 * Millisecond, RankFraction: 0.5,
		Clients: 8, Dilation: 1.0, BackgroundLoad: 0.01,
		Deadline: 30 * Millisecond,
	}
	if scale == Full {
		replay.Rate, replay.Duration = 8000, 200*Millisecond
		realtime.Rate, realtime.Duration = 2000, 150*Millisecond
		realtime.Dilation = 0.1
		overload.Duration = 100 * Millisecond
	}
	return []serveRow{
		{"replay", replay},
		{"realtime", realtime},
		{"realtime-overload", overload},
	}
}

// ExpServe is experiment E17: the live-traffic frontend served over real
// HTTP. Each row reports what the open-loop generator observed —
// sustained RPS, client p50/p99, shed rate — plus conservation (every
// scripted request answered exactly once) and, for the replay row, proof
// that determinism survives the network boundary (two runs, identical
// digests and byte-identical telemetry).
func ExpServe(scale Scale) *Table {
	t := &Table{
		Title: "E17 — Live-traffic frontend over HTTP (open-loop load generator)",
		Headers: []string{"clock", "sent", "ok", "shed rate", "RPS",
			"client p50", "client p99", "virt p50", "virt p99", "conserved", "identical"},
	}
	for _, row := range serveRows(scale) {
		cfg := row.cfg
		if row.label == "replay" && TelemetryEnabled() {
			cfg.Telemetry = true
			cfg.SpanLimit = 4096
		}
		res, err := RunServePoint(cfg)
		if err != nil {
			t.AddRow(row.label, "-", "-", "-", "-", "-", "-", "-", "-", err.Error(), "-")
			continue
		}
		identical := "-"
		if row.label == "replay" {
			// Determinism witness: the same seed and script, delivered over
			// fresh connections in whatever interleaving TCP produces, must
			// yield the same response digest.
			res2, err2 := RunServePoint(cfg)
			identical = fmt.Sprint(err2 == nil && res2.Load.Digest == res.Load.Digest &&
				res2.Load.OK == res.Load.OK && res2.Load.Shed == res.Load.Shed)
			addTelemetry("serve", res.Record)
		}
		lr := res.Load
		conserved := lr.Lost == 0 && lr.Dup == 0 && lr.Errors == 0
		t.AddRow(row.label, lr.Sent, lr.OK,
			fmt.Sprintf("%.3f", lr.ShedRate),
			fmt.Sprintf("%.0f", lr.RPS),
			lr.WallP50.Round(time.Microsecond).String(),
			lr.WallP99.Round(time.Microsecond).String(),
			lr.VirtP50.String(), lr.VirtP99.String(),
			conserved, identical)
	}
	return t
}
