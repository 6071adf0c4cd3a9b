package svclb

import (
	"math/rand"
	"testing"

	"repro/internal/shell"
	"repro/internal/sim"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Clients = 8
	cfg.FPGAs = 2
	cfg.Spares = 2
	cfg.Warmup = 20 * sim.Millisecond
	cfg.Duration = 100 * sim.Millisecond
	cfg.Drain = 50 * sim.Millisecond
	return cfg
}

func TestWorkQueueCancel(t *testing.T) {
	s := sim.New(1)
	q := NewWorkQueue(s, 0)
	done := map[uint64]bool{}
	for id := uint64(1); id <= 3; id++ {
		id := id
		q.Submit(id, sim.Millisecond, func() { done[id] = true })
	}
	if q.cur == nil || len(q.waiting) != 2 {
		t.Fatalf("in service %t, %d waiting; want one in service and 2 waiting", q.cur != nil, len(q.waiting))
	}
	// Job 1 is in service: cancelling it must miss. Job 3 is queued:
	// cancelling it must hit and skip its work.
	if q.Cancel(1) {
		t.Fatal("cancelled the in-service job")
	}
	if !q.Cancel(3) {
		t.Fatal("failed to cancel a queued job")
	}
	s.Run()
	if !done[1] || !done[2] || done[3] {
		t.Fatalf("completions = %v, want jobs 1,2 only", done)
	}
	if q.Completed.Value() != 2 || q.Cancelled.Value() != 1 || q.CancelMisses.Value() != 1 {
		t.Fatalf("counters completed=%d cancelled=%d misses=%d",
			q.Completed.Value(), q.Cancelled.Value(), q.CancelMisses.Value())
	}
}

func TestRouterPoliciesDeterministicAndDistinct(t *testing.T) {
	decisions := func(policy string, seed int64) (uint64, []int) {
		s := sim.New(seed)
		r, err := NewRouter(s.NewRand(), policy)
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 4; h++ {
			r.AddSlot(100 + h)
		}
		var picks []int
		for i := 0; i < 200; i++ {
			sl, ok := r.Pick()
			if !ok {
				t.Fatal("no backend")
			}
			picks = append(picks, sl.Index)
			// Alternate completions so jsq/p2c see changing load.
			if i%2 == 0 {
				r.Done(sl)
			}
		}
		return r.RouteHash(), picks
	}
	hashes := map[string]uint64{}
	for _, p := range PolicyNames() {
		h1, picks1 := decisions(p, 7)
		h2, picks2 := decisions(p, 7)
		if h1 != h2 {
			t.Fatalf("%s: route hash differs across identical runs: %x vs %x", p, h1, h2)
		}
		for i := range picks1 {
			if picks1[i] != picks2[i] {
				t.Fatalf("%s: pick %d differs across identical runs", p, i)
			}
		}
		hashes[p] = h1
	}
	if hashes[PolicyRandom] == hashes[PolicyRoundRobin] {
		t.Fatal("random and rr produced identical decision streams")
	}
}

func TestRunConservesRequests(t *testing.T) {
	for _, policy := range PolicyNames() {
		cfg := quickConfig()
		cfg.Policy = policy
		r := Run(cfg)
		if r.Offered == 0 || r.Completed == 0 {
			t.Fatalf("%s: no traffic: %+v", policy, r)
		}
		if r.Admitted != r.Completed {
			t.Fatalf("%s: admitted %d but completed %d (client-visible loss)",
				policy, r.Admitted, r.Completed)
		}
		if r.Offered != r.Admitted+r.Shed {
			t.Fatalf("%s: offered %d != admitted %d + shed %d",
				policy, r.Offered, r.Admitted, r.Shed)
		}
		if r.P99 <= 0 || r.P99 < r.P50 {
			t.Fatalf("%s: implausible percentiles p50=%v p99=%v", policy, r.P50, r.P99)
		}
	}
}

func TestRunDeterministicRoutingAndPercentiles(t *testing.T) {
	cfg := quickConfig()
	cfg.Policy = PolicyP2C
	a, b := Run(cfg), Run(cfg)
	if a.RouteHash != b.RouteHash {
		t.Fatalf("route hash differs across identical runs: %x vs %x", a.RouteHash, b.RouteHash)
	}
	if a != b {
		t.Fatalf("results differ across identical runs:\n%+v\n%+v", a, b)
	}
	cfg.Seed++
	c := Run(cfg)
	if c.RouteHash == a.RouteHash {
		t.Fatal("route hash insensitive to seed")
	}
}

func TestKillMidRunFailoverNoLoss(t *testing.T) {
	cfg := quickConfig()
	cfg.Clients = 32 // enough load that the victim holds queued work when it dies
	cfg.Policy = PolicyP2C
	// Off the RM poll grid: the pool runs headless for most of a poll
	// period, so work piles onto the dead backend before detection.
	cfg.KillAt = cfg.Warmup + 40*sim.Millisecond + 100*sim.Microsecond
	r := Run(cfg)
	if r.Failovers == 0 {
		t.Fatalf("kill was not detected: %+v", r)
	}
	if r.Resent == 0 {
		t.Fatal("no pending requests were re-routed off the dead backend")
	}
	if r.Admitted != r.Completed {
		t.Fatalf("admitted %d but completed %d: the kill lost client requests",
			r.Admitted, r.Completed)
	}
	if r.FinalBackends != cfg.FPGAs {
		t.Fatalf("pool not restored: %d backends, want %d", r.FinalBackends, cfg.FPGAs)
	}
	if r.Recovery <= 0 {
		t.Fatal("no recovery latency recorded")
	}
	// Masking must happen within detection (RM poll) plus re-lease and the
	// resent request's round trip — well under two poll periods here.
	if limit := 2 * cfg.RMPoll; r.Recovery > limit {
		t.Fatalf("recovery %v exceeds %v", r.Recovery, limit)
	}
}

func TestHedgingCancelsLoser(t *testing.T) {
	cfg := quickConfig()
	cfg.Clients = 28 // enough queueing that hedges fire
	cfg.Policy = PolicyRandom
	cfg.Admission = false
	// Two service times: an unlucky pick is still deep in a queue when the
	// hedge fires, so the second copy can genuinely win.
	cfg.HedgeDelay = 2 * cfg.ServiceTime
	r := Run(cfg)
	if r.Hedged == 0 {
		t.Fatalf("no hedges fired: %+v", r)
	}
	if r.Cancels == 0 {
		t.Fatal("hedge losers were never cancelled")
	}
	if r.HedgeWins == 0 {
		t.Fatal("no hedge copy ever won (hedging is not helping)")
	}
	if r.Admitted != r.Completed {
		t.Fatalf("admitted %d but completed %d under hedging", r.Admitted, r.Completed)
	}
}

// TestHedgeCancelRidesServiceChannel stages one hedge deterministically
// under round-robin: a long request and a short one occupy the two
// backends, and a third request, queued behind the long one, is the only
// one hedged. Its hedge copy wins on the idle backend, so the balancer
// cancels the queued loser. The cancel is a service datagram: it crosses
// the losing backend's Elastic Router on VCService and pulls the loser
// out of its queue. With the loser's role wedged first, the cancel still
// crosses the router but the role swallows it, and the loser is served.
// The wedge lands after the loser reached the queue and before the hedge
// fires.
func TestHedgeCancelRidesServiceChannel(t *testing.T) {
	for _, wedged := range []bool{false, true} {
		cfg := quickConfig()
		cfg.Policy = PolicyRoundRobin
		cfg.Admission = false
		cfg.BackgroundLoad = 0
		b := NewService(cfg)
		live := b.Router.Live()
		slow := b.Shells[live[0].Host]
		served := 0
		done := func(sim.Time) { served++ }
		b.Submit(0, Request{Service: 10 * cfg.ServiceTime, Done: done})
		b.Submit(1, Request{Service: cfg.ServiceTime / 10, Done: done})
		b.cfg.HedgeDelay = 2 * cfg.ServiceTime
		b.Submit(2, Request{Done: done})
		if wedged {
			b.s.Schedule(cfg.ServiceTime, func() { slow.InjectSEU(true) })
		}
		flits := slow.Router.Stats.VCFlits[shell.VCService].Value()
		b.s.RunUntil(20 * cfg.ServiceTime)
		b.Stop()

		if served != 3 || b.hedged.Value() != 1 || b.hedgeWins.Value() != 1 || b.cancels.Value() != 1 {
			t.Fatalf("wedged=%t: served %d, hedged %d, hedge wins %d, cancels %d; want 3, 1, 1, 1",
				wedged, served, b.hedged.Value(), b.hedgeWins.Value(), b.cancels.Value())
		}
		if slow.Router.Stats.VCFlits[shell.VCService].Value() == flits || slow.Stats.DgramsRecv.Value() != 1 {
			t.Fatalf("wedged=%t: the cancel did not cross the loser's router on VCService", wedged)
		}
		wantHits := uint64(1)
		if wedged {
			wantHits = 0
		}
		if b.cancelHits.Value() != wantHits {
			t.Fatalf("wedged=%t: %d cancel hits, want %d", wedged, b.cancelHits.Value(), wantHits)
		}
	}
}

func TestP2CAdmissionSustainsHigherRatioThanRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point packet-level sweep")
	}
	sc := DefaultSweepConfig()
	sc.Base.Warmup = 30 * sim.Millisecond
	sc.Base.Duration = 200 * sim.Millisecond
	sc.ClientCounts = []int{24, 32, 40}
	random := Sweep(sc, PolicyRandom, false)
	p2c := Sweep(sc, PolicyP2C, true)
	if p2c.MaxSustainedRatio <= random.MaxSustainedRatio {
		t.Fatalf("p2c+admission sustained %.1f clients/FPGA, random %.1f — expected strictly higher\nrandom: %+v\np2c: %+v",
			p2c.MaxSustainedRatio, random.MaxSustainedRatio, random.Points, p2c.Points)
	}
	// The informed policy must hold the p99 bound at a ratio where random
	// dispatch has already blown through it.
	for i := range p2c.Points {
		rp, pp := random.Points[i], p2c.Points[i]
		if sc.Sustained(pp) && !sc.Sustained(rp) {
			return
		}
	}
	t.Fatalf("no swept ratio separated the policies\nrandom: %+v\np2c: %+v",
		random.Points, p2c.Points)
}

// TestP2CSamplesDistinctThreeDraws replays p2c's draws on a reference
// stream of the same seed: the two samples always differ, the pick is
// the one with fewer requests outstanding, and each pick over two or
// more live slots takes exactly three Intn draws, so the pinned
// RouteHash streams hold.
func TestP2CSamplesDistinctThreeDraws(t *testing.T) {
	for n := 2; n <= 6; n++ {
		live := make([]*Slot, n)
		for i := range live {
			// Distinct loads, so the pick reveals which two were sampled.
			live[i] = &Slot{Index: i, Outstanding: n - i, live: true}
		}
		const seed = 11
		rng := rand.New(rand.NewSource(seed))
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			got := p2cPolicy{}.pick(live, rng, nil)
			a := live[ref.Intn(n)]
			ref.Intn(n - 1)
			b := live[ref.Intn(n-1)]
			if b == a {
				b = live[n-1]
			}
			if a == b {
				t.Fatalf("n=%d pick %d: both samples are slot %d", n, i, a.Index)
			}
			want := a
			if b.Outstanding < a.Outstanding {
				want = b
			}
			if got != want {
				t.Fatalf("n=%d pick %d: got slot %d, want %d", n, i, got.Index, want.Index)
			}
			if rng.Int63() != ref.Int63() {
				t.Fatalf("n=%d pick %d: stream diverged from three Intn draws", n, i)
			}
		}
	}
}
