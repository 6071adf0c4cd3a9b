package workload

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestOpenLoopRate(t *testing.T) {
	s := sim.New(1)
	n := 0
	g := NewOpenLoop(s, 10000, func() { n++ }) // 10k/s
	g.Start()
	s.RunUntil(sim.Second)
	// Poisson with mean 10000: 5 sigma ≈ 500.
	if n < 9500 || n > 10500 {
		t.Fatalf("arrivals in 1s = %d, want ~10000", n)
	}
}

func TestOpenLoopStop(t *testing.T) {
	s := sim.New(1)
	n := 0
	g := NewOpenLoop(s, 1000, func() { n++ })
	g.Start()
	s.RunUntil(100 * sim.Millisecond)
	g.Stop()
	at := n
	s.RunUntil(sim.Second)
	if n != at {
		t.Fatalf("arrivals after Stop: %d -> %d", at, n)
	}
}

func TestOpenLoopZeroRate(t *testing.T) {
	s := sim.New(1)
	g := NewOpenLoop(s, 0, func() { t.Fatal("arrival at zero rate") })
	g.Start()
	s.RunUntil(sim.Second)
}

func TestDiurnalShape(t *testing.T) {
	d := DefaultDiurnal()
	// Deterministic (no rng): peak mid-day, trough at night.
	midday := d.Load(sim.Day/2, nil)
	night := d.Load(0, nil)
	if midday <= night {
		t.Fatalf("midday %v <= night %v", midday, night)
	}
	ratio := midday / night
	if ratio < 1.5 || ratio > 4 {
		t.Errorf("peak/trough = %v, want pronounced but bounded", ratio)
	}
}

func TestDiurnalMeanNearOne(t *testing.T) {
	d := DefaultDiurnal()
	sum := 0.0
	nsamp := 0
	for ts := sim.Time(0); ts < 5*sim.Day; ts += sim.Hour {
		sum += d.Load(ts, nil)
		nsamp++
	}
	mean := sum / float64(nsamp)
	if math.Abs(mean-1.0) > 0.15 {
		t.Fatalf("mean load = %v, want ~1.0", mean)
	}
}

func TestDiurnalDayVariation(t *testing.T) {
	d := DefaultDiurnal()
	d1 := d.Load(sim.Day/2, nil)
	d4 := d.Load(3*sim.Day+sim.Day/2, nil)
	if d1 == d4 {
		t.Error("per-day scaling has no effect")
	}
}

func TestDiurnalBurstsAndNoise(t *testing.T) {
	s := sim.New(3)
	d := DefaultDiurnal()
	d.BurstProb = 0.5
	rng := s.NewRand()
	burst := false
	base := d.Load(sim.Day/2, nil)
	for i := 0; i < 100; i++ {
		if d.Load(sim.Day/2, rng) > base*1.3 {
			burst = true
			break
		}
	}
	if !burst {
		t.Error("bursts never fired at 50% probability")
	}
}

func TestDiurnalFloor(t *testing.T) {
	d := Diurnal{PeakToTrough: 100, Noise: 0}
	for ts := sim.Time(0); ts < sim.Day; ts += sim.Hour {
		if d.Load(ts, nil) < 0.05 {
			t.Fatalf("load below floor at %v", ts)
		}
	}
}

func TestLogNormalMean(t *testing.T) {
	s := sim.New(5)
	rng := s.NewRand()
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += LogNormal(rng, 100, 0.5)
	}
	mean := sum / n
	if math.Abs(mean-100) > 3 {
		t.Fatalf("lognormal mean = %v, want 100", mean)
	}
}

func TestLogNormalHeavyTail(t *testing.T) {
	s := sim.New(5)
	rng := s.NewRand()
	over := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if LogNormal(rng, 100, 0.7) > 300 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("no tail mass beyond 3x the mean")
	}
	if over > n/10 {
		t.Fatalf("tail too fat: %d/%d over 3x mean", over, n)
	}
}
