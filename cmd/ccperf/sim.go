package main

import (
	"time"

	cc "repro"
	"repro/internal/kvcache"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svclb"
)

// spanLimit raises the tracer's capture cap on traced ops so the span
// self-time percentiles rest on thousands of requests, not the default
// few hundred.
const spanLimit = 1 << 18

// simWorkload is a workload whose op is one call into a simulation entry
// point. Every op of a run uses the run's seed, so every op does the same
// simulated work and must produce the same digest.
type simWorkload struct {
	builds int                     // system-under-test constructions timed for setup_s
	build  func(seed int64) func() // one construction; returns its untimed teardown
	op     func(seed int64, m opMode) (simOut, error)
}

// opMode selects how one op runs.
type opMode struct {
	reference bool // the warm-up op whose digest every later op must match
	traced    bool // telemetry on: the op returns an obs.Record
}

// simOut is what one op reports besides its correctness.
type simOut struct {
	digest uint64
	rec    *obs.Record
	p99us  float64            // modelled request p99, virtual µs (0 if unknown)
	extra  map[string]float64 // workload-specific per-layer metrics
}

// fold mixes values into an FNV-1a style digest.
func fold(vs ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

func virtUS(t sim.Time) float64 { return float64(t) / 1e3 }

// lbNoise is svclb's default pool under 5% RDMA background traffic: 32
// clients on 2+2 FPGAs, p2c routing with admission control. The measured
// window is shortened from 300 to 75 ms virtual so an op takes ~1.3 s:
// the host-speed adjustment only tracks ops that short (see slowdown).
func lbNoise(quick bool) simWorkload {
	cfg := svclb.DefaultConfig()
	cfg.Warmup, cfg.Duration, cfg.Drain = 25*sim.Millisecond, 75*sim.Millisecond, 25*sim.Millisecond
	builds := 101
	if quick {
		cfg.Duration, cfg.Warmup, cfg.Drain = 10*sim.Millisecond, 2*sim.Millisecond, 5*sim.Millisecond
		builds = 5
	}
	return simWorkload{
		builds: builds,
		build: func(seed int64) func() {
			c := cfg
			c.Seed = seed
			return svclb.NewService(c).Stop
		},
		op: func(seed int64, m opMode) (simOut, error) {
			c := cfg
			c.Seed = seed
			c.Telemetry = m.traced
			if m.traced {
				c.SpanLimit = spanLimit
			}
			r := svclb.Run(c)
			return simOut{
				digest: fold(r.RouteHash, r.Offered, r.Admitted, r.Shed, r.Completed, uint64(r.P50), uint64(r.P99)),
				rec:    r.Telemetry,
				p99us:  virtUS(r.P99),
			}, checkLB(r)
		},
	}
}

// kvRW is the on-fabric KV cache with no background traffic: 8 clients at
// 20k req/s each, Zipf-1.2 keys over 4x the store's slots, 20% PUTs.
func kvRW(quick bool) simWorkload {
	cfg := kvcache.DefaultConfig()
	cfg.Clients = 8
	cfg.ClientRate = 20000
	cfg.Keys = 65536
	cfg.Zipf = 1.2
	cfg.GetFraction = 0.8
	cfg.Duration = 500 * sim.Millisecond
	cfg.BackgroundLoad = 0
	builds := 101
	if quick {
		cfg.Duration = 5 * sim.Millisecond
		builds = 5
	}
	return simWorkload{
		builds: builds,
		build: func(seed int64) func() {
			c := cfg
			c.Seed = seed
			return kvcache.NewService(c).Stop
		},
		op: func(seed int64, m opMode) (simOut, error) {
			c := cfg
			c.Seed = seed
			c.Telemetry = m.traced
			if m.traced {
				c.SpanLimit = spanLimit
			}
			r := kvcache.Run(c)
			return simOut{
				digest: fold(r.Digest, r.Offered, r.Completed, r.Hits, r.Timeouts, r.Evictions),
				rec:    r.Record,
				p99us:  virtUS(r.P99),
			}, checkKV(r)
		},
	}
}

// scale64 is the E16 LTL ping workload over a 64-pod datacenter on the
// pod-sharded kernel with two workers; the reference op runs one worker.
// Each pair sends 50 pings over 6.25 ms virtual instead of 200 over 25 ms,
// so an op takes ~1.2 s (see lbNoise).
func scale64(quick bool) simWorkload {
	pods, builds := 64, 101
	if quick {
		pods, builds = 4, 5
	}
	cfg := cc.DefaultScaleConfig(pods)
	cfg.PingsPerPair, cfg.Duration = 50, 6250*sim.Microsecond
	if quick {
		cfg.PingsPerPair, cfg.Duration = 20, 5*sim.Millisecond
	}
	want := uint64(cfg.Pods * (cfg.IntraPairsPerPod + cfg.CrossPairsPerPod) * cfg.PingsPerPair)
	return simWorkload{
		builds: builds,
		build: func(seed int64) func() {
			topo := netsim.DefaultConfig()
			topo.Pods = cfg.Pods
			cc.NewSharded(cc.Options{Seed: seed, Topology: topo}, 2)
			return func() {}
		},
		op: func(seed int64, m opMode) (simOut, error) {
			c := cfg
			c.Seed = seed
			c.Workers = 2
			if m.reference {
				c.Workers = 1
			}
			c.Telemetry = m.traced
			if m.traced {
				c.SpanLimit = spanLimit
			}
			r := cc.RunScalePoint(c)
			out := simOut{digest: r.Digest, rec: r.Record, extra: map[string]float64{}}
			if r.Elapsed > 0 {
				out.extra["sim.events_per_s"] = float64(r.Events) / r.Elapsed.Seconds()
			}
			if r.Events > 0 {
				out.extra["shard.crossings_per_event"] = float64(r.Crossings) / float64(r.Events)
			}
			if r.Record != nil {
				for _, s := range r.Record.Metrics {
					if s.Name == "ltl.message_rtt" {
						out.p99us = float64(s.P99) / 1e3
					}
				}
			}
			return out, checkScale(r, want)
		},
	}
}

// runSim measures a simulation workload: set-up builds, one warm-up op
// that fixes the reference digest, then timed ops until the budget is
// spent. A traced run splits the budget between untraced ops (runtime
// counters) and traced ops (profile, telemetry, trace overhead).
func runSim(w simWorkload, seed int64, budget time.Duration, trace bool, rep *report) error {
	heap := watchHeap()
	defer heap.stop()
	if !trace {
		rep.setup(w.builds, func() func() { return w.build(seed) })
	}
	ref, err := w.op(seed, opMode{reference: true})
	rep.check(err)

	timed := func(b time.Duration, m opMode, prof *[]profSample) ([]opCost, simOut, error) {
		var costs []opCost
		var last simOut
		start := time.Now()
		var before []float64
		if !trace {
			before = refTimes()
		}
		for {
			var out simOut
			var opErr error
			run := func() { heap.during(func() { out, opErr = w.op(seed, m) }) }
			var c opCost
			if prof != nil {
				var perr error
				c = measure(func() { perr = profiled(prof, run) })
				if perr != nil {
					return nil, last, perr
				}
			} else {
				c = measure(run)
			}
			c.slowdown = 1 // traced runs compare adjacent phases; no adjustment
			if !trace {
				after := refTimes()
				c.slowdown = slowdown(before, after)
				before = after
			}
			if opErr == nil {
				opErr = checkDigest(ref.digest, out.digest)
			}
			rep.check(opErr)
			costs = append(costs, c)
			last = out
			if time.Since(start)+time.Duration(c.wall*float64(time.Second)) > b {
				return costs, last, nil
			}
		}
	}
	adjWall := func(c opCost) float64 { return c.wall / c.slowdown }

	if !trace {
		costs, _, _ := timed(budget, opMode{}, nil)
		rep.ops = len(costs)
		rep.metrics["run_s"] = median(pick(costs, adjWall))
		rep.metrics["cpu_s"] = median(pick(costs, func(c opCost) float64 { return c.cpu / c.slowdown }))
		rep.metrics["live_heap_mb"] = heap.stop()
		rep.raw("op wall seconds", pick(costs, func(c opCost) float64 { return c.wall }))
		rep.raw("host slowdown per op", pick(costs, func(c opCost) float64 { return c.slowdown }))
		return nil
	}

	plain, plainOut, _ := timed(budget/2, opMode{}, nil)
	goLayers(plain, float64(len(plain)), rep.metrics)
	for k, v := range plainOut.extra {
		rep.metrics[k] = v
	}
	var prof []profSample
	traced, out, err := timed(budget/2, opMode{traced: true}, &prof)
	if err != nil {
		return err
	}
	rep.ops = len(plain) + len(traced)
	hostShares(prof, rep.metrics)
	rep.top = topFuncs(prof, 15)
	recordLayers(out.rec, rep.metrics)
	rep.metrics["sim.req_p99_us"] = out.p99us
	rep.metrics["trace.overhead"] = median(pick(traced, adjWall)) / median(pick(plain, adjWall))
	return nil
}

func pick(costs []opCost, f func(opCost) float64) []float64 {
	out := make([]float64, len(costs))
	for i, c := range costs {
		out[i] = f(c)
	}
	return out
}
