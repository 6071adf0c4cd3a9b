package svclb

import (
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// WorkQueue is one pool FPGA's in-order accelerator engine with
// cancellation: queued requests can be pulled back by id (hedge losers),
// but a request already in service runs to completion — silicon cannot be
// preempted mid-evaluation, so a late cancel only saves the queue wait.
type WorkQueue struct {
	s      *sim.Simulation
	tracer *obs.Tracer
	host   int // owning backend host, labels service spans

	waiting []*wqJob
	cur     *wqJob

	// Completed counts serviced jobs (including cancel misses that were
	// already in service); Cancelled counts jobs removed while queued;
	// CancelMisses counts cancels that arrived too late to save work.
	Completed    metrics.Counter
	Cancelled    metrics.Counter
	CancelMisses metrics.Counter
}

type wqJob struct {
	id  uint64
	dur sim.Time
	run func()
	enq sim.Time
}

// NewWorkQueue creates an idle queue on s for backend host.
func NewWorkQueue(s *sim.Simulation, host int) *WorkQueue {
	q := &WorkQueue{s: s, tracer: obs.TracerOf(s), host: host}
	reg := obs.RegistryOf(s)
	reg.Counter("svclb.q_completed", "reqs", "svclb", "jobs serviced by pool work queues", &q.Completed)
	reg.Counter("svclb.q_cancelled", "reqs", "svclb", "queued jobs pulled back by cancels", &q.Cancelled)
	reg.Counter("svclb.q_cancel_misses", "reqs", "svclb", "cancels arriving after service began", &q.CancelMisses)
	return q
}

// Submit enqueues a job that runs for dur and then invokes run.
func (q *WorkQueue) Submit(id uint64, dur sim.Time, run func()) {
	j := &wqJob{id: id, dur: dur, run: run, enq: q.s.Now()}
	if q.cur != nil {
		q.waiting = append(q.waiting, j)
		return
	}
	q.start(j)
}

func (q *WorkQueue) start(j *wqJob) {
	q.cur = j
	var span obs.SpanID
	if q.tracer != nil {
		flow := obs.ReqFlow(j.id)
		if now := q.s.Now(); now > j.enq {
			q.tracer.Range(flow, "svclb.queue", 0, int64(j.enq), int64(len(q.waiting)))
		}
		span = q.tracer.Start(flow, "svclb.service", 0)
		q.tracer.SetArg(span, int64(q.host))
	}
	q.s.Schedule(j.dur, func() {
		q.cur = nil
		q.Completed.Inc()
		q.tracer.End(span)
		j.run()
		if len(q.waiting) > 0 {
			next := q.waiting[0]
			q.waiting = q.waiting[1:]
			q.start(next)
		}
	})
}

// Cancel removes a still-queued job by id; it reports false (a miss) when
// the job is in service, already done, or unknown.
func (q *WorkQueue) Cancel(id uint64) bool {
	for i, j := range q.waiting {
		if j.id == id {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			q.Cancelled.Inc()
			return true
		}
	}
	q.CancelMisses.Inc()
	return false
}
