package frontend_test

import (
	"testing"
	"time"

	"repro/internal/frontend"
)

// TestRealTimeIdleDriverSleeps pins that an idle real-time frontend
// costs no CPU: with no request outstanding, the driver sleeps until the
// next pending event instead of polling the wall clock, and a stats
// snapshot still sees a virtual clock caught up to wall time × Dilation.
func TestRealTimeIdleDriverSleeps(t *testing.T) {
	cfg := frontend.DefaultConfig()
	cfg.Mode = frontend.RealTime
	// No fabric noise, and a slow clock: what is measured here is the
	// driver's overhead, not the model's.
	cfg.BackgroundLoad = 0
	cfg.Dilation = 0.01
	f := frontend.New(cfg)
	defer f.Close()

	begin := time.Now()
	time.Sleep(200 * time.Millisecond)
	asked := time.Now()
	st := f.Stats()
	answered := time.Now()

	if frac := float64(st.SleepWallNs) / float64(asked.Sub(begin)); frac < 0.9 {
		t.Errorf("idle driver asleep %.1f%% of %v, want >= 90%% (stats %+v)",
			100*frac, asked.Sub(begin), st)
	}
	// The pools' health polls keep events pending, so the timer path
	// must have woken the driver for them.
	if st.TimerWakes == 0 {
		t.Errorf("no timer wakes for pending events: %+v", st)
	}
	// The snapshot's clock is caught up: between the wall time before the
	// request and after the answer, both scaled by Dilation, with a few
	// ms of slack for the driver starting before begin.
	const slack = 5 * time.Millisecond
	lo := float64(asked.Sub(begin)) * cfg.Dilation
	hi := float64(answered.Sub(begin)+slack) * cfg.Dilation
	if v := float64(st.VirtualNs); v < lo || v > hi {
		t.Errorf("virtual %v outside caught-up window [%v, %v]",
			time.Duration(v), time.Duration(lo), time.Duration(hi))
	}
}
