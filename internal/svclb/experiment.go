package svclb

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// SweepConfig drives the oversubscription sweep: for each client count,
// one balancer run; a point is "sustained" when its windowed p99 stays
// under P99Bound while Goodput (window completions per offered request)
// stays at or above MinGoodput — the second clause keeps an aggressive
// shedder from trivially "meeting" the bound by rejecting the workload.
type SweepConfig struct {
	Base         Config
	ClientCounts []int
}

// MinGoodput is the goodput floor of a sustained point.
const MinGoodput = 0.95

// DefaultSweepConfig sweeps client:FPGA ratios across the knee region on
// a fixed two-FPGA pool.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Base:         DefaultConfig(),
		ClientCounts: []int{16, 24, 32, 40},
	}
}

// P99Bound is the Fig. 12-style latency ceiling: 10x the service time
// (the knee criterion used by dnnpool).
func (sc SweepConfig) P99Bound() sim.Time { return 10 * sc.Base.ServiceTime }

// Sustained reports whether one run met the sweep's service objective.
func (sc SweepConfig) Sustained(r Result) bool {
	return r.Completed > 0 && r.P99 <= sc.P99Bound() && r.Goodput >= MinGoodput
}

// SweepResult is one policy variant's sweep.
type SweepResult struct {
	Label     string
	Policy    string
	Admission bool
	Points    []Result
	// MaxSustainedRatio is the highest swept client:FPGA ratio this
	// variant sustained with every lower swept ratio also sustained
	// (0 when even the lightest point failed).
	MaxSustainedRatio float64
}

// Sweep runs one policy variant across the client counts. Each count is
// an independent balancer simulation, so the points fan out across cores
// with results kept in client-count order.
func Sweep(sc SweepConfig, policy string, admission bool) SweepResult {
	label := policy
	if admission {
		label += "+ac"
	}
	out := SweepResult{Label: label, Policy: policy, Admission: admission}
	out.Points = sweep.Over(sc.ClientCounts, func(_ int, clients int) Result {
		cfg := sc.Base
		cfg.Clients = clients
		cfg.Policy = policy
		cfg.Admission = admission
		return Run(cfg)
	})
	contiguous := true
	for _, r := range out.Points {
		if contiguous && sc.Sustained(r) {
			out.MaxSustainedRatio = r.Ratio
		} else {
			contiguous = false
		}
	}
	return out
}

// Variant names one policy/admission combination for ComparePolicies.
type Variant struct {
	Policy    string
	Admission bool
}

// DefaultVariants contrasts naive random dispatch against the informed
// policies, with deadline-aware admission on the headline p2c variant.
func DefaultVariants() []Variant {
	return []Variant{
		{PolicyRandom, false},
		{PolicyRoundRobin, false},
		{PolicyJSQ, false},
		{PolicyP2C, false},
		{PolicyP2C, true},
	}
}

// ComparePolicies sweeps every variant under identical workloads.
// Variants are independent (each Run builds its own simulation), so they
// fan out too; output order follows the variants slice.
func ComparePolicies(sc SweepConfig, variants []Variant) []SweepResult {
	return sweep.Over(variants, func(_ int, v Variant) SweepResult {
		return Sweep(sc, v.Policy, v.Admission)
	})
}

// RatioLabel formats a clients-per-FPGA ratio column.
func RatioLabel(r Result) string {
	return fmt.Sprintf("%d/%d=%.1f", r.Clients, r.FPGAs, r.Ratio)
}
