package frontend

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
)

// rtDriver paces the virtual clock against the wall clock. One
// goroutine owns the simulation: it advances virtual time toward the
// paced target (wall elapsed × dilation) and executes injection
// closures sent by HTTP handler goroutines in between. The metrics
// registry and the balancers are therefore only ever touched from that
// goroutine — the same single-threaded discipline the replay driver
// gets from its script lock.
//
// While a request is outstanding the driver advances in slices and
// yields between them, so a response leaves as soon as the paced clock
// reaches its completion. With nothing outstanding it sleeps until a
// task, quit, or the wall time of the next pending event, and catches
// the clock up on waking (DESIGN.md §6.8).
//
// When injections outpace the simulator, virtual time trails the wall
// clock; that lag is measured at each injection and charged against the
// request's deadline through svclb admission, so a fallen-behind
// frontend sheds by the paper's rule instead of queueing unboundedly.
type rtDriver struct {
	f *Service

	tasks chan func()
	quit  chan struct{}
	done  chan struct{}

	start    time.Time
	dilation float64

	// Wall-time split of the loop (sim thread), served on /v1/stats.
	advancing, asleep     time.Duration
	taskWakes, timerWakes uint64

	mu     sync.Mutex
	closed bool
}

func newRTDriver(f *Service) *rtDriver {
	d := &rtDriver{
		f:        f,
		tasks:    make(chan func(), 4096),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		start:    time.Now(),
		dilation: f.cfg.Dilation,
	}
	go d.loop()
	return d
}

// target maps wall time t onto the paced virtual clock.
func (d *rtDriver) target(t time.Time) sim.Time {
	return sim.Time(float64(t.Sub(d.start)) * d.dilation)
}

// lag is how far virtual time trails the paced target (sim thread).
func (d *rtDriver) lag() sim.Time {
	l := d.target(time.Now()) - d.f.s.Now()
	if l < 0 {
		l = 0
	}
	return l
}

// rtSlice bounds how much virtual time one loop iteration may advance.
// A fallen-behind simulation must keep coming back for tasks: injected
// requests then see the lag and shed, instead of their handlers
// starving behind one enormous RunUntil.
const rtSlice = sim.Millisecond

func (d *rtDriver) loop() {
	defer close(d.done)
	for {
		// Drain every queued task before paying for an advance: a slice
		// of a heavily loaded simulation can cost many wall milliseconds,
		// and handlers queued behind it must not serialize one-per-slice.
		select {
		case fn := <-d.tasks:
			fn()
			continue
		case <-d.quit:
			d.shutdown()
			return
		default:
		}
		if d.f.outstanding() == 0 {
			if !d.sleep() {
				d.shutdown()
				return
			}
			continue
		}
		d.advance()
	}
}

// sleep blocks the idle driver until a task, quit, or the wall time of
// the next pending event (no timer when the queue is empty), then runs
// the clock up to the paced target before anything else, so the task,
// a stats snapshot or shutdown sees a caught-up clock. It does not
// block when the next event is already due: a driver that has fallen
// behind keeps advancing in slices. It returns false on quit.
func (d *rtDriver) sleep() bool {
	var wake <-chan time.Time
	if at, ok := d.f.s.NextEventTime(); ok {
		wait := time.Until(d.start.Add(time.Duration(float64(at) / d.dilation)))
		if wait <= 0 {
			d.advance()
			return true
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		wake = t.C
	}
	slept := time.Now()
	var fn func()
	quit := false
	select {
	case fn = <-d.tasks:
		d.taskWakes++
	case <-wake:
		d.timerWakes++
	case <-d.quit:
		quit = true
	}
	woke := time.Now()
	d.asleep += woke.Sub(slept)
	d.f.s.RunUntil(d.target(woke))
	d.advancing += time.Since(woke)
	if fn != nil {
		fn()
	}
	return !quit
}

// advance runs the simulation toward the paced target, at most rtSlice
// per call.
func (d *rtDriver) advance() {
	now := d.f.s.Now()
	begin := time.Now()
	tgt := d.target(begin)
	if tgt <= now {
		return
	}
	if lim := now + rtSlice; tgt > lim {
		tgt = lim
	}
	d.f.s.RunUntil(tgt)
	d.advancing += time.Since(begin)
	// A fallen-behind loop advances back to back and would otherwise
	// monopolize a single-core scheduler; yield so handler goroutines can
	// enqueue (and answer) between slices.
	runtime.Gosched()
}

// shutdown drains queued tasks, then virtual time, then stops the pools
// (sim thread). Tasks enqueued before Close set closed are all in the
// channel by the time quit is observed, so the non-blocking drain is
// complete.
func (d *rtDriver) shutdown() {
	for {
		select {
		case fn := <-d.tasks:
			fn()
		default:
			if !d.f.drainOutstanding(10*sim.Millisecond, 1<<12) {
				d.f.abandon("shutdown drain exhausted")
			}
			for _, name := range d.f.order {
				d.f.pipes[name].stop()
			}
			return
		}
	}
}

// do runs fn on the sim thread; false means shutting down or overloaded.
func (d *rtDriver) do(fn func()) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	select {
	case d.tasks <- fn:
		return true
	default:
		return false // ingress queue full: shed at the door
	}
}

func (d *rtDriver) submit(pl *pipeline, req inReq, respond func(Resp)) bool {
	return d.do(func() {
		d.f.inject(pl, req.Seq, d.lag(), respond)
	})
}

func (d *rtDriver) stats() Stats {
	ch := make(chan Stats, 1)
	if !d.do(func() {
		st := d.f.snapshotStats()
		st.AdvanceWallNs = int64(d.advancing)
		st.SleepWallNs = int64(d.asleep)
		st.TaskWakes = d.taskWakes
		st.TimerWakes = d.timerWakes
		ch <- st
	}) {
		return Stats{Mode: RealTime.String()}
	}
	return <-ch
}

func (d *rtDriver) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	close(d.quit)
	<-d.done
}
