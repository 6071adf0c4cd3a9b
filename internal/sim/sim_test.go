package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %d, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-timestamp events fired out of scheduling order: pos %d = %d", i, got[i])
		}
	}
}

func TestZeroDelayRunsThisInstant(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(10, func() {
		s.Schedule(0, func() {
			if s.Now() != 10 {
				t.Errorf("zero-delay event at %d, want 10", s.Now())
			}
			ran = true
		})
	})
	s.Run()
	if !ran {
		t.Fatal("zero-delay event never ran")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	New(1).Schedule(-1, func() {})
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(e) {
		t.Fatal("Cancel returned true twice")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Cancel(Timer{}) {
		t.Fatal("Cancel(Timer{}) returned true")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New(1)
	var got []int
	var evs []Timer
	for i := 0; i < 10; i++ {
		i := i
		evs = append(evs, s.Schedule(Time(10+i), func() { got = append(got, i) }))
	}
	s.Cancel(evs[3])
	s.Cancel(evs[7])
	s.Run()
	for _, v := range got {
		if v == 3 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fired %d events, want 8", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var got []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		s.Schedule(d, func() { got = append(got, d) })
	}
	s.RunUntil(25)
	if len(got) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(got))
	}
	if s.Now() != 25 {
		t.Fatalf("Now() = %d, want 25", s.Now())
	}
	s.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("after RunUntil(100), fired %d events, want 4", len(got))
	}
	if s.Now() != 100 {
		t.Fatalf("Now() = %d, want clock advanced to 100", s.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(25, func() { fired = true })
	s.RunUntil(25)
	if !fired {
		t.Fatal("event exactly at deadline should fire")
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	count := 0
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i+1), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("Halt did not stop run: count = %d", count)
	}
	// Run can be resumed.
	s.Run()
	if count != 10 {
		t.Fatalf("resume after Halt: count = %d, want 10", count)
	}
}

func TestRunUntilHaltKeepsClock(t *testing.T) {
	// A halted RunUntil must leave the clock at the halting event, not at
	// the deadline: the pending event at 20 would otherwise lie in the
	// past and the resumed run would panic.
	s := New(1)
	var got []Time
	s.Schedule(10, func() { got = append(got, s.Now()); s.Halt() })
	s.Schedule(20, func() { got = append(got, s.Now()) })
	s.RunUntil(100)
	if s.Now() != 10 || s.Pending() != 1 {
		t.Fatalf("after halted RunUntil: now=%v pending=%d, want 10ns/1", s.Now(), s.Pending())
	}
	s.Run()
	if len(got) != 2 || got[1] != 20 {
		t.Fatalf("resumed run fired at %v, want [10 20]", got)
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	var times []Time
	tk := s.Every(5, 10, func() { times = append(times, s.Now()) })
	s.Schedule(36, func() { tk.Stop() })
	s.Run()
	want := []Time{5, 15, 25, 35}
	if len(times) != len(want) {
		t.Fatalf("ticker fired %d times (%v), want %d", len(times), times, len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %d, want %d", i, times[i], want[i])
		}
	}
}

func TestEveryNonPositivePeriodPanics(t *testing.T) {
	for _, period := range []Time{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic on period %d", period)
				}
			}()
			New(1).Every(0, period, func() {})
		}()
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Every(1, 1, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(100)
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var trace []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			n := 1 + s.Rand().Intn(3)
			for i := 0; i < n; i++ {
				d := Time(s.Rand().Intn(1000))
				s.Schedule(d, func() {
					trace = append(trace, int64(s.Now()))
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same && len(a) > 3 {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

func TestNewRandIndependence(t *testing.T) {
	s := New(7)
	r1 := s.NewRand()
	r2 := s.NewRand()
	eq := true
	for i := 0; i < 16; i++ {
		if r1.Int63() != r2.Int63() {
			eq = false
			break
		}
	}
	if eq {
		t.Fatal("derived streams are identical")
	}
}

// Property: events always fire in nondecreasing time order regardless of
// the scheduling pattern.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(99)
		var fired []Time
		for _, d := range delays {
			s.Schedule(Time(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		// All delays observed.
		want := make([]int, len(delays))
		for i, d := range delays {
			want[i] = int(d)
		}
		sort.Ints(want)
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if int(fired[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint16, mask []bool) bool {
		s := New(1)
		fired := map[int]bool{}
		var evs []Timer
		for i, d := range delays {
			i := i
			evs = append(evs, s.Schedule(Time(d), func() { fired[i] = true }))
		}
		cancelled := map[int]bool{}
		for i := range evs {
			if i < len(mask) && mask[i] {
				s.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		s.Run()
		for i := range evs {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestFiredExcludesCancelled(t *testing.T) {
	s := New(1)
	var evs []Timer
	for i := 0; i < 10; i++ {
		evs = append(evs, s.Schedule(Time(10+i), func() {}))
	}
	s.Cancel(evs[2])
	s.Cancel(evs[5])
	s.Cancel(evs[9])
	if s.Pending() != 7 {
		t.Fatalf("Pending = %d after 3 cancels, want 7", s.Pending())
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7 (cancelled events must not count)", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", s.Pending())
	}
}

func TestRunUntilFastForwardsTombstones(t *testing.T) {
	s := New(1)
	// Everything before the deadline is cancelled; one live event beyond.
	for i := 0; i < 5; i++ {
		e := s.Schedule(Time(10+i), func() { t.Error("cancelled event fired") })
		s.Cancel(e)
	}
	lateFired := false
	s.Schedule(100, func() { lateFired = true })
	s.RunUntil(50)
	if s.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0: tombstones must be skipped uncounted", s.Fired())
	}
	if s.Now() != 50 {
		t.Fatalf("Now = %v, want 50", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.Run()
	if !lateFired || s.Fired() != 1 {
		t.Fatalf("late event: fired=%v Fired=%d, want true/1", lateFired, s.Fired())
	}
}

func TestCancelInsideOwnHandler(t *testing.T) {
	s := New(1)
	ran := 0
	var e Timer
	e = s.Schedule(5, func() {
		ran++
		if s.Cancel(e) {
			t.Error("Cancel of the currently-firing event returned true")
		}
	})
	s.Run()
	if ran != 1 {
		t.Fatalf("handler ran %d times, want 1", ran)
	}
	if s.Fired() != 1 || s.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d, want 1/0", s.Fired(), s.Pending())
	}
}

func TestTickerStopRacingTick(t *testing.T) {
	// Stop lands at the exact virtual instant of a tick. Scheduled before
	// the ticker, it outranks the first tick by seq and must suppress it.
	s := New(1)
	var ticks []Time
	var tk *Ticker
	s.Schedule(10, func() { tk.Stop() })
	tk = s.Every(10, 10, func() { ticks = append(ticks, s.Now()) })
	s.Run()
	if len(ticks) != 0 {
		t.Fatalf("ticks %v, want none: Stop preceded the tick at the same instant", ticks)
	}

	// Stop scheduled up front for a tick's instant still outranks the
	// tick by seq (the tick is rescheduled later, at t=10) and suppresses
	// it — identical to the old kernel's eager-removal semantics.
	s = New(1)
	ticks = nil
	tk = s.Every(10, 10, func() { ticks = append(ticks, s.Now()) })
	s.Schedule(20, func() { tk.Stop() })
	s.Run()
	if len(ticks) != 1 || ticks[0] != 10 {
		t.Fatalf("ticks %v, want [10]", ticks)
	}

	// Stop issued from a handler that runs after the tick was rescheduled
	// (higher seq, same instant): that tick fires, only later ones die.
	s = New(1)
	ticks = nil
	tk = s.Every(10, 10, func() { ticks = append(ticks, s.Now()) })
	s.Schedule(15, func() { s.Schedule(5, func() { tk.Stop() }) })
	s.Run()
	want := []Time{10, 20}
	if len(ticks) != len(want) || ticks[0] != want[0] || ticks[1] != want[1] {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
}

func TestZeroDelayFIFOWhileDraining(t *testing.T) {
	// Zero-delay events appended to the bucket currently being drained
	// must still fire in scheduling order, after earlier same-instant
	// events scheduled before the drain began.
	s := New(1)
	var got []int
	s.Schedule(10, func() {
		got = append(got, 0)
		s.Schedule(0, func() {
			got = append(got, 2)
			s.Schedule(0, func() { got = append(got, 4) })
		})
		s.Schedule(0, func() { got = append(got, 3) })
	})
	s.Schedule(10, func() { got = append(got, 1) })
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("fire order %v, want 0..4 in order", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestScheduleCallOrderingAndReuse(t *testing.T) {
	// ScheduleCall events interleave with Schedule events in strict
	// (time, seq) order, and freelist recycling must not corrupt pending
	// events.
	s := New(1)
	var got []int
	n := 0
	var chain func(any)
	chain = func(v any) {
		k := v.(*int)
		got = append(got, *k)
		n++
		if n < 50 {
			next := n * 10
			s.ScheduleCall(1, chain, &next)
		}
	}
	first := 0
	s.ScheduleCall(5, chain, &first)
	s.Schedule(5, func() { got = append(got, -1) })
	s.Run()
	if got[0] != 0 || got[1] != -1 {
		t.Fatalf("same-instant order got[0..1] = %v, want [0 -1]", got[:2])
	}
	if len(got) != 51 {
		t.Fatalf("fired %d, want 51", len(got))
	}
	for i := 2; i < len(got); i++ {
		if got[i] != (i-1)*10 {
			t.Fatalf("chain value at %d = %d, want %d (recycled event corrupted?)", i, got[i], (i-1)*10)
		}
	}
}

func TestStaleTimerCannotCancelReissuedEvent(t *testing.T) {
	// A fired closure event returns to the freelist and is reissued to
	// the next Schedule; the first handle must not reach the new owner.
	s := New(1)
	old := s.Schedule(1, func() {})
	s.Run()
	fired := false
	cur := s.Schedule(1, func() { fired = true })
	if cur.e != old.e {
		t.Fatal("fired event was not reissued from the freelist")
	}
	if s.Cancel(old) {
		t.Fatal("stale Timer cancelled the reissued event")
	}
	s.Run()
	if !fired {
		t.Fatal("reissued event did not fire")
	}
}

func TestStoppedTickerTimerCannotCancelReissuedEvent(t *testing.T) {
	// A stopped Ticker keeps the Timer of its cancelled tick. Once the
	// tombstone is popped and the event reissued, Stop again (or any
	// Cancel of that Timer) must leave the new owner alone.
	s := New(1)
	tk := s.Every(5, 5, func() {})
	tk.Stop()
	s.Run() // pops and recycles the tombstone
	fired := false
	cur := s.Schedule(1, func() { fired = true })
	if cur.e != tk.ev.e {
		t.Fatal("cancelled tick was not reissued from the freelist")
	}
	tk.Stop()
	if s.Cancel(tk.ev) {
		t.Fatal("stale ticker Timer cancelled the reissued event")
	}
	s.Run()
	if !fired {
		t.Fatal("reissued event did not fire")
	}
}

// TestWheelMatchesReferenceOrder is the ordering oracle for the timing
// wheel: a random workload spanning every wheel level (delays from 16 ns
// to ~12 days), with events spawning more events mid-run, must fire in
// exactly the (time, seq) order a stable sort of all created events gives.
func TestWheelMatchesReferenceOrder(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(11))
	type ev struct {
		at  Time
		seq int
	}
	var created []ev
	var firedLog []int
	n := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		d := Time(rng.Int63n(int64(1) << uint(4+rng.Intn(36))))
		idx := n
		n++
		created = append(created, ev{s.Now() + d, idx})
		s.Schedule(d, func() {
			firedLog = append(firedLog, idx)
			if depth < 3 && rng.Intn(2) == 0 {
				spawn(depth + 1)
				spawn(depth + 1)
			}
		})
	}
	for i := 0; i < 300; i++ {
		spawn(0)
	}
	s.Run()
	expect := append([]ev(nil), created...)
	sort.Slice(expect, func(i, j int) bool {
		if expect[i].at != expect[j].at {
			return expect[i].at < expect[j].at
		}
		return expect[i].seq < expect[j].seq
	})
	if len(firedLog) != len(expect) {
		t.Fatalf("fired %d events, created %d", len(firedLog), len(expect))
	}
	for i := range expect {
		if firedLog[i] != expect[i].seq {
			t.Fatalf("fire order diverges from (time, seq) reference at position %d: got seq %d, want seq %d (at=%v)",
				i, firedLog[i], expect[i].seq, expect[i].at)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{2880, "2.880us"},
		{1500000, "1.500ms"},
		{3 * Second, "3.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros = %v, want 2.5", got)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
}

func TestFiredAndPending(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		s.Schedule(Time(i), func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", s.Pending())
	}
}

func TestTraceRecordsLabeledEvents(t *testing.T) {
	s := New(1)
	s.EnableTrace(8)
	// Scheduled in reverse time order: the trace must follow execution
	// (At ascending), each entry keeping its scheduling sequence number.
	for i := 2; i >= 0; i-- {
		s.Schedule(Time(i+1), func() {})
	}
	s.Run()
	tr := s.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace length %d, want 3", len(tr))
	}
	for i, e := range tr {
		if e.At != Time(i+1) || e.Seq != uint64(2-i) {
			t.Fatalf("entry %d: %+v, want At=%d Seq=%d", i, e, i+1, 2-i)
		}
	}
	if got := s.TraceString(); !strings.Contains(got, "#2") {
		t.Errorf("TraceString missing sequence numbers:\n%s", got)
	}
}

func TestTraceRingWraps(t *testing.T) {
	s := New(1)
	s.EnableTrace(4)
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i+1), func() {})
	}
	s.Run()
	tr := s.Trace()
	if len(tr) != 4 {
		t.Fatalf("ring length %d, want 4", len(tr))
	}
	// Oldest-first ordering of the last four events (times 7..10).
	for i, e := range tr {
		if e.At != Time(7+i) {
			t.Fatalf("ring order wrong: %+v", tr)
		}
	}
}

func TestTraceDisabled(t *testing.T) {
	s := New(1)
	s.Schedule(1, func() {})
	s.Run()
	if s.Trace() != nil {
		t.Fatal("trace recorded while disabled")
	}
	s.EnableTrace(2)
	s.EnableTrace(0) // disable again
	s.Schedule(1, func() {})
	s.Run()
	if s.Trace() != nil {
		t.Fatal("trace not disabled")
	}
}

func TestNextEventTime(t *testing.T) {
	s := New(1)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime on empty queue reported an event")
	}
	s.Schedule(500, func() {})
	s.Schedule(70, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 70 {
		t.Fatalf("NextEventTime = (%d, %v), want (70, true)", at, ok)
	}
	// Peeking must not consume: the same event is still popped next.
	if at, ok := s.NextEventTime(); !ok || at != 70 {
		t.Fatalf("second NextEventTime = (%d, %v), want (70, true)", at, ok)
	}
	s.RunUntil(70)
	if s.Now() != 70 {
		t.Fatalf("Now() = %d after RunUntil(70)", s.Now())
	}
	if at, ok := s.NextEventTime(); !ok || at != 500 {
		t.Fatalf("NextEventTime after run = (%d, %v), want (500, true)", at, ok)
	}
	s.Run()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime after drain reported an event")
	}
}

func TestNextEventTimeSkipsTombstones(t *testing.T) {
	s := New(1)
	e1 := s.Schedule(10, func() { t.Fatal("cancelled event fired") })
	e2 := s.Schedule(10, func() { t.Fatal("cancelled event fired") })
	s.Schedule(10, func() {})
	far := s.Schedule(1<<20, func() { t.Fatal("cancelled event fired") })
	s.Cancel(e1)
	s.Cancel(e2)
	if at, ok := s.NextEventTime(); !ok || at != 10 {
		t.Fatalf("NextEventTime = (%d, %v), want (10, true)", at, ok)
	}
	s.RunUntil(10)
	s.Cancel(far)
	// Only tombstones remain, across a cascade boundary.
	if at, ok := s.NextEventTime(); ok {
		t.Fatalf("NextEventTime = (%d, true) with only tombstones queued", at)
	}
	if n := s.Fired(); n != 1 {
		t.Fatalf("Fired() = %d, want 1", n)
	}
}

func TestNextEventTimeAgainstReference(t *testing.T) {
	s := New(7)
	rng := rand.New(rand.NewSource(7))
	n := 0
	var step func()
	step = func() {
		if n < 4000 {
			n++
			s.Schedule(Time(rng.Intn(1<<14)), step)
		}
	}
	for i := 0; i < 8; i++ {
		s.Schedule(Time(rng.Intn(100)), step)
	}
	for {
		at, ok := s.NextEventTime()
		if !ok {
			break
		}
		fired := s.Fired()
		if !s.Step() {
			t.Fatal("peek reported an event but Step found none")
		}
		if s.Now() != at {
			t.Fatalf("peek said next event at %d, Step fired at %d", at, s.Now())
		}
		if s.Fired() != fired+1 {
			t.Fatalf("Step fired %d events", s.Fired()-fired)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", s.Pending())
	}
}
