package ranking

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/host"
	"repro/internal/sim"
)

func TestSynthesizerDeterminism(t *testing.T) {
	a := NewSynthesizer(rand.New(rand.NewSource(1))).NewWorkload()
	b := NewSynthesizer(rand.New(rand.NewSource(1))).NewWorkload()
	if len(a.Docs) != len(b.Docs) || len(a.Query.Terms) != len(b.Query.Terms) {
		t.Fatal("same seed produced different workloads")
	}
	for i := range a.Docs {
		if len(a.Docs[i].Tokens) != len(b.Docs[i].Tokens) {
			t.Fatal("doc lengths differ")
		}
	}
}

func TestSynthesizerShape(t *testing.T) {
	sy := NewSynthesizer(rand.New(rand.NewSource(2)))
	totalLen := 0
	for i := 0; i < 500; i++ {
		d := sy.Document()
		if len(d.Tokens) < 16 {
			t.Fatal("document below minimum length")
		}
		totalLen += len(d.Tokens)
		q := sy.Query()
		if len(q.Terms) < 1 || len(q.Terms) > MaxQueryTerms {
			t.Fatalf("query with %d terms", len(q.Terms))
		}
	}
	mean := totalLen / 500
	if mean < MeanDocTokens/2 || mean > MeanDocTokens*2 {
		t.Errorf("mean doc length = %d, want ~%d", mean, MeanDocTokens)
	}
}

func TestFFUTermCounts(t *testing.T) {
	q := Query{Terms: []Term{5, 9}, Weights: []float64{1, 1}}
	d := Document{Tokens: []Term{5, 9, 3, 5, 5, 9}}
	fv := ComputeFeatures(q, d)
	if fv.TermCounts[0] != 3 || fv.TermCounts[1] != 2 {
		t.Fatalf("counts = %v", fv.TermCounts)
	}
	// Phrase pairs: (5,9) adjacent in order at positions 0-1 and 4-5.
	if fv.PhrasePairs != 2 {
		t.Errorf("phrase pairs = %d, want 2", fv.PhrasePairs)
	}
	if fv.FirstHit != 0 {
		t.Errorf("first hit = %d", fv.FirstHit)
	}
	if fv.CoverageMask != 3 {
		t.Errorf("coverage = %b", fv.CoverageMask)
	}
}

func TestFFUNoMatches(t *testing.T) {
	q := Query{Terms: []Term{100}, Weights: []float64{1}}
	d := Document{Tokens: []Term{1, 2, 3}}
	fv := ComputeFeatures(q, d)
	if fv.TermCounts[0] != 0 || fv.CoverageMask != 0 {
		t.Fatal("matches found where none exist")
	}
	if fv.FirstHit != 3 {
		t.Errorf("first hit = %d, want doc length", fv.FirstHit)
	}
	if fv.BestWindow != 4 {
		t.Errorf("window = %d, want len+1", fv.BestWindow)
	}
}

func TestDPFMinimalWindow(t *testing.T) {
	q := Query{Terms: []Term{1, 2}, Weights: []float64{1, 1}}
	d := Document{Tokens: []Term{1, 9, 9, 2, 9, 1, 2}}
	fv := ComputeFeatures(q, d)
	// Smallest window with both terms: positions 5-6 => 2.
	if fv.BestWindow != 2 {
		t.Fatalf("window = %d, want 2", fv.BestWindow)
	}
}

func TestDPFAlignmentScorePositiveOnMatch(t *testing.T) {
	q := Query{Terms: []Term{7, 8}, Weights: []float64{1, 1}}
	match := Document{Tokens: []Term{7, 8, 3, 3}}
	miss := Document{Tokens: []Term{3, 3, 3, 3}}
	fm := ComputeFeatures(q, match)
	fx := ComputeFeatures(q, miss)
	if fm.AlignScore <= fx.AlignScore {
		t.Fatalf("alignment did not reward matches: %v <= %v", fm.AlignScore, fx.AlignScore)
	}
	if fx.AlignScore != 0 {
		t.Errorf("no-match alignment = %v, want 0 (local alignment floors at 0)", fx.AlignScore)
	}
}

func TestScoreMonotonicInRelevance(t *testing.T) {
	sy := NewSynthesizer(rand.New(rand.NewSource(3)))
	q := sy.Query()
	// Relevant doc: the query terms repeated; irrelevant: off-vocabulary.
	rel := Document{Tokens: append(append([]Term{}, q.Terms...), q.Terms...)}
	irr := Document{Tokens: make([]Term, 8)}
	for i := range irr.Tokens {
		irr.Tokens[i] = VocabSize - 1 - Term(i)
	}
	sRel := Score(q, ComputeFeatures(q, rel))
	sIrr := Score(q, ComputeFeatures(q, irr))
	if sRel <= sIrr {
		t.Fatalf("relevant %v <= irrelevant %v", sRel, sIrr)
	}
	if sRel < 0 || sRel > 1 || sIrr < 0 || sIrr > 1 {
		t.Errorf("scores out of [0,1]: %v %v", sRel, sIrr)
	}
}

// Property: feature computation is deterministic and the "FPGA" and
// "software" implementations (the same function, by construction of the
// model) agree — analogous to the correctness monitoring of the
// production ranking service.
func TestPropertyScoreDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		sy1 := NewSynthesizer(rand.New(rand.NewSource(seed)))
		sy2 := NewSynthesizer(rand.New(rand.NewSource(seed)))
		w1, w2 := sy1.NewWorkload(), sy2.NewWorkload()
		s1, _ := RankWorkload(w1)
		s2, _ := RankWorkload(w2)
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelRatios(t *testing.T) {
	pool := NewProfilePool(rand.New(rand.NewSource(5)), 500, DefaultCostModel())
	sw := pool.MeanSwTotal()
	hostFpga := pool.MeanHostWithFPGA()
	fpga := pool.MeanFpgaFeature()
	// Host-side capacity gain must land near the paper's regime (~2.2-2.5x
	// before queueing effects).
	ratio := float64(sw) / float64(hostFpga)
	if ratio < 1.9 || ratio > 3.0 {
		t.Errorf("host time ratio = %.2f, want ~2.3", ratio)
	}
	// "the software portion of ranking saturates the host server before
	// the FPGA is saturated": FPGA service must be much shorter than the
	// per-core host demand.
	if float64(fpga) > 0.3*float64(hostFpga) {
		t.Errorf("FPGA stage %v too slow relative to host stage %v", fpga, hostFpga)
	}
}

func TestServerSoftwareMode(t *testing.T) {
	s := sim.New(1)
	sv := NewServer(s, ServerConfig{Cores: 2, Mode: Software})
	p := Profile{SwFeature: 100 * sim.Microsecond, Pre: 50 * sim.Microsecond, Post: 50 * sim.Microsecond}
	done := false
	sv.Query(p, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("query never completed")
	}
	if got := sim.Time(sv.Latency.Max()); got != 200*sim.Microsecond {
		t.Errorf("latency = %v, want 200us", got)
	}
}

func TestServerLocalFPGAReleasesCores(t *testing.T) {
	s := sim.New(1)
	fpga := host.NewCPU(s, 1)
	sv := NewServer(s, ServerConfig{
		Cores: 1, Mode: LocalFPGA, PCIeOverhead: 2 * sim.Microsecond, FPGA: fpga,
	})
	p := Profile{
		FpgaFeature: 100 * sim.Microsecond,
		Pre:         10 * sim.Microsecond, Post: 10 * sim.Microsecond,
	}
	// Two queries on one core: with async offload they overlap on the
	// FPGA-bound stage, so completion beats 2x serial time.
	n := 0
	sv.Query(p, func() { n++ })
	sv.Query(p, func() { n++ })
	s.Run()
	if n != 2 {
		t.Fatal("queries incomplete")
	}
	serial := 2 * (10 + 100 + 10 + 2 + 2) * sim.Microsecond
	if s.Now() >= serial {
		t.Errorf("no overlap: finished at %v (serial would be %v)", s.Now(), serial)
	}
}

func TestServerPanicsOnBadConfig(t *testing.T) {
	s := sim.New(1)
	for _, cfg := range []ServerConfig{
		{Cores: 0, Mode: Software},
		{Cores: 4, Mode: LocalFPGA},                           // no FPGA queue
		{Cores: 4, Mode: RemoteFPGA, FPGA: host.NewCPU(s, 1)}, // no RTT fn
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewServer(s, cfg)
		}()
	}
}

func TestModeString(t *testing.T) {
	if Software.String() != "software" || LocalFPGA.String() != "local-fpga" ||
		RemoteFPGA.String() != "remote-fpga" || Mode(9).String() != "Mode(9)" {
		t.Fatal("mode names wrong")
	}
}

func smallSweepConfig() SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.QueriesPer = 4000
	cfg.PoolSize = 400
	cfg.Points = 8
	return cfg
}

func TestFig6ThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is heavy")
	}
	res := Fig6(smallSweepConfig())
	// Headline: "throughput can be safely increased by 2.25x" at the
	// target 99th-percentile latency. Accept the paper's regime.
	if res.ThroughputGain < 1.7 || res.ThroughputGain > 3.2 {
		t.Errorf("throughput gain = %.2f, want ~2.25x", res.ThroughputGain)
	}
	// Latency curves must be monotone-ish: last point worse than first.
	sw := res.Software
	if sw[len(sw)-1].P99 <= sw[0].P99 {
		t.Error("software latency does not grow with load")
	}
	// FPGA underutilized even at max load.
	lf := res.LocalFPGA
	if u := lf[len(lf)-1].FPGAUtil; u > 0.7 {
		t.Errorf("FPGA utilization %.2f at host saturation — paper says FPGA stays underutilized", u)
	}
}

func TestFig11RemoteOverheadMinimal(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is heavy")
	}
	cfg := smallSweepConfig()
	cfg.RemoteRTT = func(rng *rand.Rand) sim.Time {
		// L1-tier LTL round trip: ~7.7us with a small tail.
		return 7500*sim.Nanosecond + sim.Time(rng.ExpFloat64()*500)*sim.Nanosecond
	}
	res := Fig11(cfg)
	// "over a range of throughput targets, the latency overhead of remote
	// accesses is minimal" — query latencies are hundreds of us, so a
	// ~8us RTT must stay under ~20% at the nominal operating point.
	if res.RemoteOverheadAtNominal > 0.2 {
		t.Errorf("remote overhead = %.1f%%, want minimal", res.RemoteOverheadAtNominal*100)
	}
	if len(res.RemoteFPGA) == 0 {
		t.Fatal("no remote curve")
	}
}

func TestProductionRun(t *testing.T) {
	if testing.Short() {
		t.Skip("production run is heavy")
	}
	cfg := DefaultProductionConfig()
	cfg.Servers = 3
	cfg.DayLength = 1 * sim.Second
	cfg.Days = 2
	cfg.PoolSize = 300
	res := Production(cfg)
	if len(res.Software) == 0 || len(res.FPGA) == 0 {
		t.Fatal("empty window series")
	}
	// Load must vary diurnally (peak > 1.5x trough).
	maxL, minL := 0.0, 1e18
	for _, w := range res.Software {
		if w.Offered > maxL {
			maxL = w.Offered
		}
		if w.Offered < minL && w.Offered > 0 {
			minL = w.Offered
		}
	}
	if maxL < 1.5*minL {
		t.Errorf("no diurnal variation: %v..%v", minL, maxL)
	}
	// The FPGA DC absorbs at least as much load (no capping) with lower
	// peak tail latency: compare high-load windows.
	swPeak := peakP999(res.Software)
	fpgaPeak := peakP999(res.FPGA)
	if fpgaPeak >= swPeak {
		t.Errorf("FPGA peak p99.9 %v not better than software %v", fpgaPeak, swPeak)
	}
	// Software DC must have shed some traffic at peaks (the cap).
	shed := uint64(0)
	for _, w := range res.Software {
		shed += w.Shed
	}
	if shed == 0 {
		t.Error("software balancer never capped traffic at peak load")
	}
}

func peakP999(ws []WindowSample) sim.Time {
	var m sim.Time
	for _, w := range ws {
		if w.P999 > m {
			m = w.P999
		}
	}
	return m
}
