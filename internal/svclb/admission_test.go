package svclb

import (
	"testing"

	"repro/internal/sim"
)

// TestAdmissionTable walks deadline buckets × queue-depth states × clock
// modes (replay: lag 0; real-time: the virtual clock trails the wall
// clock by lag) through the factored-out admission rule. The arithmetic
// here is the contract both ingestion tiers — the balancer's own arrival
// path and the HTTP frontend — shed by.
func TestAdmissionTable(t *testing.T) {
	const (
		svc = 250 * sim.Microsecond
		net = 100 * sim.Microsecond
	)
	cases := []struct {
		name     string
		deadline sim.Time
		depth    int
		lag      sim.Time
		admit    bool
	}{
		// Replay mode (lag 0): pure queue-depth deadline buckets.
		{"replay/empty-queue-tight-deadline", 400 * sim.Microsecond, 0, 0, true},
		{"replay/depth2-tight-deadline", 400 * sim.Microsecond, 2, 0, false},
		{"replay/depth1-roomy-deadline", 2500 * sim.Microsecond, 1, 0, true},
		{"replay/depth9-at-deadline", 2350 * sim.Microsecond, 9, 0, true}, // est == deadline: admit
		{"replay/depth10-over-deadline", 2350 * sim.Microsecond, 10, 0, false},
		{"replay/deep-queue-roomy-deadline", 2500 * sim.Microsecond, 64, 0, false},
		{"replay/negative-depth-clamped", 400 * sim.Microsecond, -3, 0, true},

		// Admission control off: a non-positive deadline admits anything.
		{"off/zero-deadline-deep-queue", 0, 1000, 0, true},
		{"off/negative-deadline-lagged", -sim.Second, 1000, sim.Second, true},

		// Real-time mode: the lag the sim has fallen behind the wall
		// clock counts against the deadline exactly like queueing.
		{"realtime/no-lag-admits", 2500 * sim.Microsecond, 4, 0, true},
		{"realtime/lag-within-slack", 2500 * sim.Microsecond, 4, 1400 * sim.Microsecond, true},
		{"realtime/lag-eats-slack", 2500 * sim.Microsecond, 4, 1401 * sim.Microsecond, false},
		{"realtime/lag-alone-over-deadline", 2500 * sim.Microsecond, 0, 3 * sim.Millisecond, false},
		{"realtime/negative-lag-clamped", 2500 * sim.Microsecond, 4, -sim.Second, true},
		{"realtime/empty-queue-small-lag", 400 * sim.Microsecond, 0, 200 * sim.Microsecond, true},
		{"realtime/empty-queue-lag-over", 400 * sim.Microsecond, 0, 301 * sim.Microsecond, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := Admission{ServiceTime: svc, NetOverhead: net, Deadline: tc.deadline}
			if got := a.Admit(tc.depth, tc.lag); got != tc.admit {
				t.Fatalf("Admit(depth=%d, lag=%v) with deadline %v = %v, want %v (est %v)",
					tc.depth, tc.lag, tc.deadline, got, tc.admit, a.Estimate(tc.depth, tc.lag))
			}
		})
	}
}

// TestAdmissionEstimate pins the estimator's arithmetic: depth service
// times plus fixed overhead plus lag, with negative inputs clamped.
func TestAdmissionEstimate(t *testing.T) {
	a := Admission{ServiceTime: 250 * sim.Microsecond, NetOverhead: 100 * sim.Microsecond}
	cases := []struct {
		depth int
		lag   sim.Time
		want  sim.Time
	}{
		{0, 0, 100 * sim.Microsecond},
		{4, 0, 1100 * sim.Microsecond},
		{4, 500 * sim.Microsecond, 1600 * sim.Microsecond},
		{-7, 0, 100 * sim.Microsecond},
		{0, -sim.Second, 100 * sim.Microsecond},
	}
	for _, tc := range cases {
		if got := a.Estimate(tc.depth, tc.lag); got != tc.want {
			t.Errorf("Estimate(%d, %v) = %v, want %v", tc.depth, tc.lag, tc.want, got)
		}
	}
}

// TestBalancerAdmissionMatchesArrivePath checks that the Balancer's
// admission() accessor reproduces the arrival-path estimate: default
// service time when the request carries none, the override when it
// does, and an always-admit rule when admission control is off.
func TestBalancerAdmissionMatchesArrivePath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = sim.Millisecond
	cfg.Warmup = 0
	sv := NewService(cfg)
	b := sv.b

	a := b.admission(0)
	if a.ServiceTime != cfg.ServiceTime {
		t.Fatalf("default admission service time = %v, want %v", a.ServiceTime, cfg.ServiceTime)
	}
	if a.NetOverhead != b.cfg.NetOverhead || a.NetOverhead <= 0 {
		t.Fatalf("admission NetOverhead = %v, balancer derived %v", a.NetOverhead, b.cfg.NetOverhead)
	}
	if a.Deadline != cfg.Deadline {
		t.Fatalf("admission deadline = %v, want %v", a.Deadline, cfg.Deadline)
	}
	// The old inline rule: shed iff depth*svc + overhead > deadline.
	breakEven := int((cfg.Deadline - b.cfg.NetOverhead) / cfg.ServiceTime)
	if !a.Admit(breakEven, 0) {
		t.Errorf("depth %d (est %v) should meet deadline %v", breakEven, a.Estimate(breakEven, 0), cfg.Deadline)
	}
	if a.Admit(breakEven+1, 0) {
		t.Errorf("depth %d (est %v) should miss deadline %v", breakEven+1, a.Estimate(breakEven+1, 0), cfg.Deadline)
	}

	over := b.admission(2 * cfg.ServiceTime)
	if over.ServiceTime != 2*cfg.ServiceTime {
		t.Fatalf("override admission service time = %v, want %v", over.ServiceTime, 2*cfg.ServiceTime)
	}

	b.cfg.Admission = false
	if off := b.admission(0); off.Deadline != 0 || !off.Admit(1<<20, sim.Second) {
		t.Fatalf("admission-off rule should admit everything, got %+v", off)
	}
}

// TestServiceSubmitLagSheds drives the new fall-behind path end to end:
// identical submissions on an idle service, differing only in Lag, must
// split exactly at the deadline.
func TestServiceSubmitLagSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 0
	cfg.Duration = 0 // externally driven: no predetermined end
	sv := NewService(cfg)
	s := sv.Sim()

	var completions int
	var lastLat sim.Time
	done := func(lat sim.Time) { completions++; lastLat = lat }

	// Idle pool, lag beyond the deadline: the only term over budget is
	// the clock lag — this is the shed real-time mode newly exercises.
	// Sheds leave no outstanding work, so the pool stays idle for the
	// admitted cases below.
	if id, ok := sv.Submit(1, Request{Lag: cfg.Deadline + 1}); ok {
		t.Fatalf("submit with lag %v past deadline %v was admitted (id=%d)", cfg.Deadline+1, cfg.Deadline, id)
	}
	// Idle pool, lag exactly filling the remaining budget: admitted.
	// Pick counts the request being routed in the slot's outstanding
	// total, so the idle-pool estimate is depth 1, not 0.
	slack := cfg.Deadline - sv.Admission(0).Estimate(1, 0)
	if _, ok := sv.Submit(2, Request{Lag: slack, Done: done}); !ok {
		t.Fatalf("submit with lag %v exactly filling the slack was shed", slack)
	}
	// No lag, one request outstanding: still well under the deadline.
	if id, ok := sv.Submit(0, Request{Done: done}); !ok || id == 0 {
		t.Fatalf("no-lag submit shed (id=%d ok=%v)", id, ok)
	}

	for i := 0; i < 100 && completions < 2; i++ {
		s.RunFor(sim.Millisecond)
	}
	if completions != 2 {
		t.Fatalf("admitted 2 requests, completed %d", completions)
	}
	if lastLat <= 0 {
		t.Fatalf("completion latency not positive: %v", lastLat)
	}

	res := sv.Result()
	if res.Admitted != 2 || res.Shed != 1 || res.Completed != 2 {
		t.Fatalf("counters admitted=%d shed=%d completed=%d, want 2/1/2",
			res.Admitted, res.Shed, res.Completed)
	}
	sv.Stop()
}

// TestServiceSubmitServiceOverride checks that a per-request service
// time actually changes how long the backend holds the request.
func TestServiceSubmitServiceOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 0
	cfg.Duration = 0
	cfg.Admission = false
	sv := NewService(cfg)
	s := sv.Sim()

	var latDefault, latLong sim.Time
	if _, ok := sv.Submit(0, Request{Done: func(l sim.Time) { latDefault = l }}); !ok {
		t.Fatal("default submit shed with admission off")
	}
	for i := 0; i < 100 && latDefault == 0; i++ {
		s.RunFor(sim.Millisecond)
	}
	if _, ok := sv.Submit(0, Request{Service: 8 * cfg.ServiceTime, Done: func(l sim.Time) { latLong = l }}); !ok {
		t.Fatal("override submit shed with admission off")
	}
	for i := 0; i < 100 && latLong == 0; i++ {
		s.RunFor(sim.Millisecond)
	}
	if latDefault == 0 || latLong == 0 {
		t.Fatalf("requests did not complete (default %v, long %v)", latDefault, latLong)
	}
	// The override adds 7 extra service times of pure service; transit
	// cost is identical on an idle pool.
	if extra := latLong - latDefault; extra < 6*cfg.ServiceTime {
		t.Fatalf("8x service override only added %v (default %v, long %v)", extra, latDefault, latLong)
	}
	sv.Stop()
}
