// Package loadgen is an open-loop HTTP load generator for the frontend:
// it synthesizes a Poisson request script (the same arrival model the
// in-sim workload generators use), poses as N concurrent clients, and
// verifies conservation — every scripted request is answered exactly
// once, with its own sequence number.
//
// Open-loop means arrivals never wait for responses: in real-time mode
// each request fires at its scheduled wall time regardless of how the
// service is coping, and client-observed latency is measured from that
// schedule (not from the actual send), so a fallen-behind server cannot
// hide queueing by slowing the generator (no coordinated omission).
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Req is one scripted request.
type Req struct {
	Seq      uint64
	At       sim.Time // virtual arrival (replay) / scheduled offset (real time)
	Pipeline string   // "rank" or "dnn"
}

// Mix is one pipeline's share of a mixed script.
type Mix struct {
	Pipeline string
	Weight   float64
}

// Script synthesizes a Poisson arrival script: rate requests/second for
// the given duration, each independently a ranking request with
// probability rankFraction (else DNN). Same seed, same script.
func Script(seed int64, rate float64, duration sim.Time, rankFraction float64) []Req {
	return ScriptMix(seed, rate, duration,
		[]Mix{{"rank", rankFraction}, {"dnn", 1 - rankFraction}})
}

// ScriptMix generalizes Script to any pipeline mix: each arrival draws
// its pipeline from the weighted entries (weights need not sum to 1; the
// draw walks the cumulative fractions of the total). A two-entry
// rank/dnn mix reproduces Script exactly — one uniform draw per arrival,
// in the same stream order — so existing seeds keep their scripts.
func ScriptMix(seed int64, rate float64, duration sim.Time, mix []Mix) []Req {
	total := 0.0
	for _, m := range mix {
		total += m.Weight
	}
	rng := rand.New(rand.NewSource(seed))
	var reqs []Req
	var t sim.Time
	for {
		t += sim.Time(rng.ExpFloat64() / rate * float64(sim.Second))
		if t >= duration {
			return reqs
		}
		u := rng.Float64() * total
		pipe := mix[len(mix)-1].Pipeline
		for _, m := range mix {
			if u < m.Weight {
				pipe = m.Pipeline
				break
			}
			u -= m.Weight
		}
		reqs = append(reqs, Req{Seq: uint64(len(reqs)), At: t, Pipeline: pipe})
	}
}

// Config parameterizes one generator run.
type Config struct {
	// BaseURL is the frontend's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the number of concurrent connections (default 4).
	Clients int
	// RealTime paces requests at their scripted offsets against the wall
	// clock (divided by Dilation); false posts the whole script as fast
	// as the connections allow (replay mode: the server orders arrivals
	// by the script's virtual timestamps, not by delivery).
	RealTime bool
	// Dilation must match the server's virtual-per-wall ratio so the
	// scripted virtual offsets land at the right wall times (default 1).
	Dilation float64
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Dilation <= 0 {
		cfg.Dilation = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	return cfg
}

// resp mirrors frontend.Resp (decoupled: the generator checks the wire
// contract, not the implementation).
type resp struct {
	Seq       uint64 `json:"seq"`
	Admitted  bool   `json:"admitted"`
	LatencyNs int64  `json:"latency_ns"`
	Error     string `json:"error"`
}

// receipt is one request's outcome, written by exactly one worker.
type receipt struct {
	valid    bool   // got a well-formed response body
	respSeq  uint64 // the seq the response body named
	admitted bool
	virtLat  sim.Time
	wallLat  time.Duration
	err      bool // transport error, timeout, malformed body, server error
}

// Result summarizes one run.
type Result struct {
	Sent   int
	OK     int // admitted and completed
	Shed   int // 503 with a well-formed shed response
	Errors int // transport errors, timeouts, malformed responses

	// Lost counts scripted requests that never got a usable answer; Dup
	// counts answers whose body named a different request's seq than the
	// one posted on that connection. Both must be zero.
	Lost int
	Dup  int

	Elapsed  time.Duration
	RPS      float64 // completed per wall second
	ShedRate float64

	// Wall percentiles are client-observed from the request's scheduled
	// time (real-time mode) or from its post (replay mode).
	WallP50, WallP99 time.Duration
	// Virtual percentiles come from the service's virtual clock.
	VirtP50, VirtP99 sim.Time

	// Digest folds (seq, admitted, virtual latency) in seq order: two
	// runs served identically agree on the digest.
	Digest uint64
}

// Run drives the script against the frontend and verifies conservation.
// Every request runs in its own goroutine — in real-time mode it fires
// at its scheduled wall time whether or not earlier responses are back
// (the open-loop contract), and in replay mode the whole script is in
// flight at once, since the server answers nothing until it holds the
// complete script. Clients controls how many HTTP client stacks
// (connection pools) the requests are spread over.
func Run(cfg Config, script []Req) Result {
	cfg = cfg.withDefaults()
	receipts := make([]receipt, len(script))
	clients := make([]*http.Client, cfg.Clients)
	for i := range clients {
		clients[i] = &http.Client{Timeout: cfg.Timeout, Transport: &http.Transport{}}
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	start := time.Now()

	var wg sync.WaitGroup
	for i := range script {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := script[i]
			sched := start
			if cfg.RealTime {
				sched = start.Add(time.Duration(float64(r.At) / cfg.Dilation))
				time.Sleep(time.Until(sched))
			} else {
				sched = time.Now()
			}
			receipts[i] = post(clients[i%cfg.Clients], cfg.BaseURL, r, len(script), sched)
		}(i)
	}
	wg.Wait()
	return summarize(receipts, time.Since(start))
}

// post sends one request and classifies the answer.
func post(client *http.Client, base string, r Req, total int, sched time.Time) receipt {
	body, _ := json.Marshal(map[string]any{
		"seq": r.Seq, "at_ns": int64(r.At), "total": total,
	})
	httpResp, err := client.Post(
		fmt.Sprintf("%s/v1/%s", base, r.Pipeline),
		"application/json", bytes.NewReader(body))
	if err != nil {
		return receipt{err: true}
	}
	defer httpResp.Body.Close()
	var rr resp
	if err := json.NewDecoder(httpResp.Body).Decode(&rr); err != nil {
		return receipt{err: true}
	}
	if rr.Error != "" {
		return receipt{err: true}
	}
	return receipt{
		valid: true, respSeq: rr.Seq, admitted: rr.Admitted,
		virtLat: sim.Time(rr.LatencyNs), wallLat: time.Since(sched),
	}
}

func summarize(receipts []receipt, elapsed time.Duration) Result {
	res := Result{Sent: len(receipts), Elapsed: elapsed}
	var walls []time.Duration
	var virts []sim.Time
	h := uint64(obs.FNVOffset)
	// Conservation: every scripted seq must be named by exactly one
	// well-formed response. A crossed response (naming another request's
	// seq) surfaces as a Dup there and a Lost here.
	answers := make(map[uint64]int, len(receipts))
	for _, rec := range receipts {
		if rec.valid {
			answers[rec.respSeq]++
		}
	}
	for seq, rec := range receipts {
		ok := rec.valid && rec.respSeq == uint64(seq)
		switch {
		case ok && rec.admitted:
			res.OK++
			walls = append(walls, rec.wallLat)
			virts = append(virts, rec.virtLat)
		case ok:
			res.Shed++
		case rec.err:
			res.Errors++
		}
		if n := answers[uint64(seq)]; n == 0 {
			res.Lost++
		} else if n > 1 {
			res.Dup += n - 1
		}
		if ok && rec.admitted {
			h = obs.FNVFold(h, uint64(seq), 1, uint64(rec.virtLat))
		} else {
			h = obs.FNVFold(h, uint64(seq), 0, 0)
		}
	}
	res.Digest = h
	if res.Sent > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Sent)
	}
	if elapsed > 0 {
		res.RPS = float64(res.OK) / elapsed.Seconds()
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	sort.Slice(virts, func(i, j int) bool { return virts[i] < virts[j] })
	if n := len(walls); n > 0 {
		res.WallP50 = walls[n/2]
		res.WallP99 = walls[min(n-1, n*99/100)]
		res.VirtP50 = virts[n/2]
		res.VirtP99 = virts[min(n-1, n*99/100)]
	}
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
