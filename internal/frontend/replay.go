package frontend

import (
	"sync"

	"repro/internal/sim"
)

// replayDriver is the deterministic clock: it buffers scripted requests
// as they arrive over HTTP (any order, any connection count), and when
// the script is complete runs the simulation once over the arrivals
// sorted by (virtual time, seq). Every simulation-side effect — RNG
// draws, routing, spans, counters — happens inside that single run, in
// an order derived only from the script, so the network's delivery
// nondeterminism cannot leak into the result: same seed + same script
// means byte-identical telemetry.
type replayDriver struct {
	f *Service

	mu      sync.Mutex
	total   int // script length; fixed by Config.Expect or the first request
	buf     []scriptedReq
	seen    map[uint64]bool
	ran     bool
	stopped bool
}

func newReplayDriver(f *Service) *replayDriver {
	return &replayDriver{f: f, total: f.cfg.Expect, seen: map[uint64]bool{}}
}

// submit buffers one scripted request; the goroutine that delivers the
// final request of the script runs the whole simulation inline (under
// the driver lock), answering every buffered responder before returning.
func (d *replayDriver) submit(pl *pipeline, req inReq, respond func(Resp)) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped || d.ran {
		return false
	}
	if d.total == 0 {
		d.total = req.Total
	}
	if d.total <= 0 || (req.Total > 0 && req.Total != d.total) {
		respond(Resp{Seq: req.Seq, Pipeline: pl.name, Error: "inconsistent script total"})
		return true
	}
	if req.AtNs < 0 || d.seen[req.Seq] {
		respond(Resp{Seq: req.Seq, Pipeline: pl.name, Error: "duplicate seq or negative arrival"})
		return true
	}
	d.seen[req.Seq] = true
	d.buf = append(d.buf, scriptedReq{
		seq: req.Seq, at: sim.Time(req.AtNs), pl: pl, respond: respond,
	})
	if len(d.buf) == d.total {
		d.run()
	}
	return true
}

// run replays the buffered script (caller holds d.mu).
func (d *replayDriver) run() {
	d.ran = true
	f := d.f
	sortScript(d.buf)
	var last sim.Time
	for _, r := range d.buf {
		r := r
		// Replay has no wall clock to fall behind: lag is zero, so the
		// admission rule reduces to the pure queueing estimate.
		f.s.Schedule(r.at-f.s.Now(), func() { f.inject(r.pl, r.seq, 0, r.respond) })
		if r.at > last {
			last = r.at
		}
	}
	f.s.RunUntil(last + f.cfg.ReplayDrain)
	// Extend past the nominal drain while admitted work is still in
	// flight; svclb's conservation law (admitted == completed once
	// arrivals stop) means this terminates.
	if !f.drainOutstanding(f.cfg.ReplayDrain, 64) {
		f.abandon("replay drain exhausted")
	}
	for _, name := range f.order {
		f.pipes[name].stop()
	}
}

// stats snapshots under the script lock: replay's sim thread is
// whichever goroutine holds d.mu, so the lock is the thread.
func (d *replayDriver) stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.f.snapshotStats()
}

func (d *replayDriver) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stopped = true
	if !d.ran {
		// Incomplete script: answer what was buffered so no client hangs.
		for _, r := range d.buf {
			r.respond(Resp{Seq: r.seq, Pipeline: r.pl.name, Admitted: false, Error: "service closed before script completed"})
		}
		d.buf = nil
		for _, name := range d.f.order {
			d.f.pipes[name].stop()
		}
	}
}
