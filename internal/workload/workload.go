// Package workload provides the load generators the experiments drive
// their systems with: open-loop Poisson arrivals (the single-box latency/
// throughput sweeps of Fig. 6) and a five-day diurnal load trace with
// bursts (the production measurements of Figs. 7 and 8).
package workload

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// OpenLoop generates Poisson arrivals at a fixed rate, independent of
// service completions — matching the paper's single-box test that
// "varied the arrival rate of requests to measure query latency versus
// throughput".
type OpenLoop struct {
	sim     *sim.Simulation
	rng     *rand.Rand
	ratePS  float64 // arrivals per second
	arrive  func()
	stopped bool
}

// NewOpenLoop creates a generator; call Start to begin arrivals.
func NewOpenLoop(s *sim.Simulation, ratePerSecond float64, arrive func()) *OpenLoop {
	return &OpenLoop{sim: s, rng: s.NewRand(), ratePS: ratePerSecond, arrive: arrive}
}

// Start schedules the first arrival.
func (o *OpenLoop) Start() {
	o.stopped = false
	o.next()
}

// Stop halts future arrivals.
func (o *OpenLoop) Stop() { o.stopped = true }

func (o *OpenLoop) next() {
	if o.stopped || o.ratePS <= 0 {
		return
	}
	gap := sim.Time(o.rng.ExpFloat64() / o.ratePS * float64(sim.Second))
	o.sim.Schedule(gap, func() {
		if o.stopped {
			return
		}
		o.arrive()
		o.next()
	})
}

// Diurnal models datacenter load over multiple days: a baseline sinusoid
// with per-day peak variation, short traffic bursts, and noise. Values
// are multipliers around 1.0 (mean load).
type Diurnal struct {
	// PeakToTrough is the ratio of daily peak to nightly trough.
	PeakToTrough float64
	// BurstProb is the per-sample probability of a load spike.
	BurstProb float64
	// BurstMag multiplies the load during a spike.
	BurstMag float64
	// DayScale varies the amplitude of each day (weekday/weekend-like).
	DayScale []float64
	// Noise is the multiplicative jitter stddev.
	Noise float64
}

// DefaultDiurnal returns a five-day profile with visible day/night swings
// and occasional bursts, matching the qualitative shape of Fig. 7.
func DefaultDiurnal() Diurnal {
	return Diurnal{
		PeakToTrough: 2.2,
		BurstProb:    0.01,
		BurstMag:     1.5,
		DayScale:     []float64{1.0, 1.08, 0.95, 1.15, 1.02},
		Noise:        0.05,
	}
}

// Load returns the load multiplier at virtual time t. rng supplies the
// burst/noise draws (pass a deterministic stream for reproducibility).
func (d Diurnal) Load(t sim.Time, rng *rand.Rand) float64 {
	day := int(t / sim.Day)
	phase := float64(t%sim.Day) / float64(sim.Day) // 0..1 across a day
	scale := 1.0
	if len(d.DayScale) > 0 {
		scale = d.DayScale[day%len(d.DayScale)]
	}
	// Sinusoid with peak mid-day: mean 1.0, swing set by PeakToTrough.
	amp := (d.PeakToTrough - 1) / (d.PeakToTrough + 1)
	base := 1 + amp*math.Sin(2*math.Pi*(phase-0.25))
	load := base * scale
	if rng != nil {
		if rng.Float64() < d.BurstProb {
			load *= d.BurstMag
		}
		load *= 1 + rng.NormFloat64()*d.Noise
	}
	if load < 0.05 {
		load = 0.05
	}
	return load
}

// LogNormal draws a lognormal with the given mean and sigma (of the
// underlying normal); used for heavy-tailed service times.
func LogNormal(rng *rand.Rand, mean float64, sigma float64) float64 {
	// For a lognormal, E[X] = exp(mu + sigma^2/2); solve for mu.
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*rng.NormFloat64())
}
