// Package sim provides a deterministic discrete-event simulation kernel.
//
// All Configurable Cloud models (network, FPGA shell, LTL, applications) run
// on top of a single Simulation instance: a virtual clock expressed in
// nanoseconds and a hierarchical timing-wheel event queue with a
// (time, sequence) total order, so repeated runs with the same seed are
// bit-identical.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
	Day         Time = 24 * Hour
)

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is a scheduled occurrence. Every event comes from the
// simulation's freelist and returns to it when it fires or when its
// cancelled tombstone is popped; callers hold a Timer, never the event.
type event struct {
	at   Time
	from Time // the instant it was scheduled at (see ScheduledAt)
	call func(any)
	arg  any
	// tag packs the event's sequence number with its two state bits,
	// seq<<tagShift | stopped | queued, so the event stays in the
	// 48-byte allocation size class.
	tag uint64
}

const (
	tagQueued  = 1 << iota // still in the wheel (not yet popped)
	tagStopped             // lazily cancelled; skipped when popped
	tagShift   = iota
)

func (e *event) stopped() bool { return e.tag&tagStopped != 0 }

// Timer is a cancellable handle to a scheduled event. The seq field is a
// generation token: once the event fires and is reissued to a different
// caller its seq changes, so a stale Timer can never cancel an event it
// no longer owns. The zero Timer refers to no event.
type Timer struct {
	e   *event
	seq uint64
}

// At returns the virtual time the timer fires at. It is meaningful only
// while the timer is pending: a fired event may since have been reissued.
func (t Timer) At() Time { return t.e.at }

// The event queue is a hierarchical digit timing wheel: virtual time is
// read as an 11-digit base-64 number, and an event is filed at the lowest
// level whose digit differs from the wheel cursor's. Level-0 buckets
// therefore hold exactly one nanosecond timestamp, so plain append order
// is (time, seq) order and popping never sorts. Higher-level buckets are
// cascaded (redistributed one level down) when the cursor enters their
// window, which preserves append order — and append order within a bucket
// is always seq order for equal timestamps. One occupancy bitmap per level
// makes find-min a TrailingZeros64 scan.
const (
	wheelBits   = 6  // log2 of the wheel radix
	wheelWidth  = 64 // buckets per level
	wheelLevels = 11 // 64^11 > 2^63: covers the full Time range

	maxTime = Time(1<<63 - 1)
)

type bucket struct {
	evs  []*event
	head int // pop cursor; evs[:head] already popped
}

// Simulation is a single-threaded discrete-event simulator.
// The zero value is not usable; construct with New.
type Simulation struct {
	now Time
	seq uint64
	// rng is built from seed on first use (Rand, DrawSeed, NewRand): a
	// simulation that never draws never pays for seeding a generator.
	rng    *rand.Rand
	seed   int64
	fired  uint64
	live   int // queued, non-cancelled events
	halted bool
	// from is the instant the firing event was scheduled at, or the
	// current instant between runs (see ScheduledAt).
	from Time

	// Timing wheel. Invariants: every queued event has at >= wheelTime,
	// and wheelTime never exceeds the virtual clock's next resting point,
	// so late Schedule calls can never land behind the cursor.
	wheelTime Time
	occ       [wheelLevels]uint64
	levels    [wheelLevels][wheelWidth]bucket

	// Freelist of fired and discarded events, reissued by ScheduleCall.
	free []*event

	// Event trace ring (trace.go); disabled unless EnableTrace is called.
	trace     []TraceEntry
	traceCap  int
	traceHead int

	// obsData is an opaque per-simulation observability context owned by
	// internal/obs. The kernel neither reads nor writes it beyond these
	// accessors, so sim stays dependency-free; components look it up once
	// at construction, keeping the hot path free of any lookup cost.
	obsData any
}

// New returns a simulation whose RNG is seeded with seed. The same seed
// always produces the same execution.
func New(seed int64) *Simulation {
	return &Simulation{seed: seed}
}

// Must panics on err. Models call it where an error can only come from
// a bug in seeded construction code (a connection opened twice, a slot
// loaded out of range), never from outside input.
func Must(err error) {
	if err != nil {
		panic(err)
	}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// SetObsData attaches an opaque observability context to the simulation.
// Used by internal/obs; the kernel itself never inspects the value.
func (s *Simulation) SetObsData(v any) { s.obsData = v }

// ObsData returns the value set by SetObsData (nil if none).
func (s *Simulation) ObsData() any { return s.obsData }

// Seed returns the seed the simulation was created with.
func (s *Simulation) Seed() int64 { return s.seed }

// Rand returns the simulation's deterministic random stream.
func (s *Simulation) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// NewRand derives an independent deterministic random stream. Models that
// need private randomness (e.g. background traffic) should take their own
// stream so adding a model does not perturb others' draws.
func (s *Simulation) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(s.DrawSeed()))
}

// DrawSeed draws a seed for a derived deterministic stream. It consumes
// exactly what NewRand consumes, so a caller may take the seed now (in
// construction order, keeping every other stream unchanged) and defer the
// expensive generator construction until the stream is first used — or
// skip it entirely.
func (s *Simulation) DrawSeed() int64 { return s.Rand().Int63() }

// Fired reports how many events have executed so far. Lazily-cancelled
// events are discarded without executing and are not counted.
func (s *Simulation) Fired() uint64 { return s.fired }

// ScheduledAt reports the instant at which the event now firing was
// scheduled; between runs (after Run or RunUntil returns) it reports the
// current instant. Events at one instant fire in scheduling order, so a
// model that advances lazily can use it to tell whether a call comes
// before or after work it would have scheduled for this instant at some
// earlier one.
func (s *Simulation) ScheduledAt() Time { return s.from }

// Pending reports how many live (non-cancelled) events are queued.
func (s *Simulation) Pending() int { return s.live }

// insert files e at the lowest wheel level whose digit of e.at differs
// from the cursor's (level 0 when they agree everywhere above the low
// digit, i.e. e.at is within the cursor's current 64 ns window).
func (s *Simulation) insert(e *event) {
	d := uint64(e.at) ^ uint64(s.wheelTime)
	l := 0
	if d != 0 {
		l = (63 - bits.LeadingZeros64(d)) / wheelBits
	}
	j := (uint64(e.at) >> (wheelBits * uint(l))) & (wheelWidth - 1)
	b := &s.levels[l][j]
	b.evs = append(b.evs, e)
	s.occ[l] |= 1 << j
}

// cascade empties bucket (l, j), refiling its events one or more levels
// down. Callers must first advance wheelTime to the bucket's window start
// so every event refiles strictly below level l. Tombstones go back to
// the freelist here instead of being refiled.
func (s *Simulation) cascade(l int, j uint64) {
	b := &s.levels[l][j]
	evs, head := b.evs, b.head
	b.evs, b.head = nil, 0
	s.occ[l] &^= 1 << j
	for i := head; i < len(evs); i++ {
		e := evs[i]
		evs[i] = nil
		if e.stopped() {
			s.recycleTombstone(e)
			continue
		}
		s.insert(e)
	}
	if b.evs == nil { // nothing refiled here; keep the capacity
		b.evs = evs[:0]
	}
}

// recycleTombstone returns a cancelled event leaving the wheel to the
// freelist. Its seq stays until it is reissued, and a stale Timer can
// no longer cancel it because it is no longer queued.
func (s *Simulation) recycleTombstone(e *event) {
	e.tag &^= tagQueued | tagStopped
	e.call, e.arg = nil, nil
	s.free = append(s.free, e)
}

// next pops the earliest live event with at <= limit, skipping lazily
// cancelled tombstones, or returns nil if none exists. wheelTime never
// advances past limit, so a deadline-bounded run leaves the cursor at or
// before the deadline the clock will rest at.
func (s *Simulation) next(limit Time) *event {
	for {
		if s.occ[0] != 0 {
			j := uint64(bits.TrailingZeros64(s.occ[0]))
			at := Time(uint64(s.wheelTime)&^(wheelWidth-1) | j)
			if at > limit {
				return nil
			}
			b := &s.levels[0][j]
			e := b.evs[b.head]
			b.evs[b.head] = nil
			b.head++
			if b.head == len(b.evs) {
				b.evs = b.evs[:0]
				b.head = 0
				s.occ[0] &^= 1 << j
			}
			if e.stopped() {
				s.recycleTombstone(e)
				continue
			}
			e.tag &^= tagQueued
			s.wheelTime = at
			return e
		}
		l := 1
		for ; l < wheelLevels; l++ {
			if s.occ[l] != 0 {
				break
			}
		}
		if l == wheelLevels {
			return nil
		}
		j := uint64(bits.TrailingZeros64(s.occ[l]))
		shift := wheelBits * uint(l)
		windowStart := Time(uint64(s.wheelTime)&^(uint64(1)<<(shift+wheelBits)-1) | j<<shift)
		if windowStart > limit {
			return nil
		}
		s.wheelTime = windowStart
		s.cascade(l, j)
	}
}

// NextEventTime reports the timestamp of the earliest pending live event
// without executing it; ok is false when the queue is empty. The peek is
// strictly read-only: it must not cascade or advance the wheel cursor,
// because a caller may schedule an event *earlier* than the one it
// peeked — a cursor moved up to that event would leave the new one
// behind it, violating the insert invariant. Buckets are ordered by time within a
// level and lower levels strictly precede higher ones, so the earliest
// live event is the minimum over the first non-tombstone bucket of the
// lowest occupied level.
func (s *Simulation) NextEventTime() (Time, bool) {
	for l := 0; l < wheelLevels; l++ {
		occ := s.occ[l]
		for occ != 0 {
			j := uint64(bits.TrailingZeros64(occ))
			occ &^= 1 << j
			b := &s.levels[l][j]
			best := maxTime
			for _, e := range b.evs[b.head:] {
				if !e.stopped() && e.at < best {
					best = e.at
				}
			}
			if best != maxTime {
				return best, true
			}
			// Bucket held only cancelled tombstones; they are discarded
			// by the pop path, not here. Try the next bucket.
		}
	}
	return 0, false
}

// Schedule runs fn after delay (which may be zero, meaning "later this
// instant" — zero-delay events still execute in scheduling order).
// Negative delays panic: the simulated past is immutable.
func (s *Simulation) Schedule(delay Time, fn func()) Timer {
	return s.ScheduleCall(delay, callFunc, fn)
}

// callFunc adapts a closure to ScheduleCall. A func value is
// pointer-shaped, so boxing it in the event's arg allocates nothing.
func callFunc(f any) { f.(func())() }

// ScheduleCall runs fn(arg) after delay. The event comes from the
// freelist, so scheduling allocates nothing once the pool is warm. Hot
// paths pass a static fn plus a pointer-shaped arg to avoid a closure too.
func (s *Simulation) ScheduleCall(delay Time, fn func(any), arg any) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = s.now + delay
	e.from = s.now
	e.tag = s.seq<<tagShift | tagQueued
	e.call = fn
	e.arg = arg
	s.seq++
	s.live++
	s.insert(e)
	return Timer{e: e, seq: s.seq - 1}
}

// Cancel removes a pending event. Cancelling a fired, reissued, or
// already-cancelled timer (or the zero Timer) is a no-op. Returns true if
// the event was pending. Cancellation is lazy: the event is tombstoned in
// place (O(1)) and discarded, uncounted, when the wheel reaches it.
func (s *Simulation) Cancel(t Timer) bool {
	e := t.e
	if e == nil || e.tag != t.seq<<tagShift|tagQueued {
		return false
	}
	e.tag |= tagStopped
	s.live--
	return true
}

// Halt stops the run loop after the current event returns.
func (s *Simulation) Halt() { s.halted = true }

// fire recycles a popped event and then executes it.
func (s *Simulation) fire(e *event) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: at=%d now=%d wheel=%d", e.at, s.now, s.wheelTime))
	}
	s.now = e.at
	s.from = e.from
	s.fired++
	s.live--
	s.record(e)
	call, arg := e.call, e.arg
	e.call, e.arg = nil, nil
	s.free = append(s.free, e)
	call(arg)
}

// Step executes the single earliest event. It returns false when the queue
// is empty.
func (s *Simulation) Step() bool {
	e := s.next(maxTime)
	if e == nil {
		return false
	}
	s.fire(e)
	return true
}

// Run executes events until the queue is empty or Halt is called.
func (s *Simulation) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
	if !s.halted {
		s.from = s.now
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if the queue drained earlier). Events scheduled beyond
// the deadline remain queued. Cancelled tombstones at or before the
// deadline are fast-forwarded past without executing or counting them.
// A Halt leaves the clock at the halting event, so the run can resume.
func (s *Simulation) RunUntil(deadline Time) {
	s.halted = false
	for !s.halted {
		e := s.next(deadline)
		if e == nil {
			break
		}
		s.fire(e)
	}
	if !s.halted {
		s.now = max(s.now, deadline)
		s.from = s.now
	}
}

// RunFor is RunUntil(Now()+d).
func (s *Simulation) RunFor(d Time) { s.RunUntil(s.now + d) }

// Every schedules fn to run now+first and then every period until the
// returned Ticker is stopped. A non-positive period panics: the ticker
// would fire forever without time moving.
func (s *Simulation) Every(first, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %d", period))
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.ev = s.ScheduleCall(first, tick, t)
	return t
}

// Ticker is a repeating scheduled callback. Stop it with Stop.
type Ticker struct {
	sim     *Simulation
	period  Time
	fn      func()
	ev      Timer
	stopped bool
}

func tick(arg any) {
	t := arg.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.ev = t.sim.ScheduleCall(t.period, tick, t)
	}
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.sim.Cancel(t.ev)
}
