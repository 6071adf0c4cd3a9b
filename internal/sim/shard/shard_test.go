package shard_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sim/shard"
)

// ringModel is a token ring with one node per shard: each node keeps a
// private chain of local events going (with per-shard RNG draws in the
// gaps) and forwards a token around the ring through cross-shard
// outboxes. Every event appends to its shard's private log, so two runs
// are comparable event-for-event.
type ringModel struct {
	g     *shard.Group
	logs  [][]string
	nodes []*ringNode
}

type ringNode struct {
	m    *ringModel
	id   int
	s    *sim.Simulation
	out  *shard.Outbox
	hops int
}

const ringLookahead = sim.Time(100)

func buildRing(seed int64, n, workers int) *ringModel {
	g := shard.NewGroup(seed, n, workers)
	g.SetLookahead(ringLookahead)
	m := &ringModel{g: g, logs: make([][]string, n)}
	for i := 0; i < n; i++ {
		nd := &ringNode{m: m, id: i, s: g.Sim(i)}
		m.nodes = append(m.nodes, nd)
	}
	for i, nd := range m.nodes {
		nd.out = g.Outbox(i, (i+1)%n)
		nd.localChain()
	}
	// Kick one token in via a locally scheduled event on shard 0.
	m.nodes[0].s.Schedule(5, func() { m.nodes[0].token(0) })
	return m
}

func (nd *ringNode) logf(format string, args ...any) {
	nd.m.logs[nd.id] = append(nd.m.logs[nd.id],
		fmt.Sprintf("t=%d ", nd.s.Now())+fmt.Sprintf(format, args...))
}

func (nd *ringNode) localChain() {
	gap := sim.Time(nd.s.Rand().Intn(50) + 1)
	nd.s.Schedule(gap, func() {
		nd.logf("local draw=%d", nd.s.Rand().Intn(1000))
		nd.localChain()
	})
}

func (nd *ringNode) token(hop int) {
	nd.logf("token hop=%d", hop)
	nd.hops++
	// A flurry of same-window local work before forwarding.
	for k := sim.Time(1); k <= 3; k++ {
		k := k
		nd.s.Schedule(k, func() { nd.logf("echo +%d", k) })
	}
	delay := ringLookahead + sim.Time(nd.s.Rand().Intn(20))
	nd.out.Send(delay, func(arg any) { nd.m.nodes[(nd.id+1)%len(nd.m.nodes)].token(arg.(int) + 1) }, hop)
}

func runRing(seed int64, n, workers int, until sim.Time) *ringModel {
	m := buildRing(seed, n, workers)
	m.g.RunUntil(until)
	return m
}

// raiseGOMAXPROCS lifts scheduler parallelism for the duration of a
// test. The group clamps its worker pool to GOMAXPROCS, so on a
// single-CPU box every multi-worker run would silently collapse to
// the lock-free single-goroutine mode and the race detector would
// never see the concurrent paths.
func raiseGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	if prev >= n {
		return
	}
	runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// The headline guarantee: the worker count may change nothing but the
// wall clock. Every run is compared against the sequential run event
// for event, and takes the same coordinator rounds.
func TestParallelMatchesSequential(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	const until = 20000
	seq := runRing(42, 5, 1, until)
	if seq.g.Crossings == 0 {
		t.Fatal("ring produced no cross-shard traffic; test is vacuous")
	}
	if seq.nodes[0].hops < 2 {
		t.Fatalf("token visited shard 0 only %d times", seq.nodes[0].hops)
	}
	if seq.g.Rounds == 0 {
		t.Fatal("sequential run took no rounds; test is vacuous")
	}
	for _, workers := range []int{2, 4, 16} {
		m := runRing(42, 5, workers, until)
		if !reflect.DeepEqual(seq.logs, m.logs) {
			t.Fatalf("workers=%d: event logs differ from sequential run", workers)
		}
		if seq.g.Fired() != m.g.Fired() {
			t.Fatalf("workers=%d: fired %d events, sequential fired %d", workers, m.g.Fired(), seq.g.Fired())
		}
		if seq.g.Crossings != m.g.Crossings {
			t.Fatalf("workers=%d: crossings %d, sequential %d", workers, m.g.Crossings, seq.g.Crossings)
		}
		if seq.g.Rounds != m.g.Rounds {
			t.Fatalf("workers=%d: %d rounds, sequential %d", workers, m.g.Rounds, seq.g.Rounds)
		}
		if m.g.Now() != until {
			t.Fatalf("workers=%d: group clock %d, want %d", workers, m.g.Now(), until)
		}
	}
}

func TestSingleShardMatchesPlainSim(t *testing.T) {
	// An RNG-free workload on a one-shard group must behave exactly like
	// the plain sequential kernel: same events, same clock, no windows.
	build := func(s *sim.Simulation, log *[]string) {
		var chain func()
		n := 0
		chain = func() {
			*log = append(*log, fmt.Sprintf("t=%d n=%d", s.Now(), n))
			n++
			if n < 500 {
				s.Schedule(sim.Time(n%7+1), chain)
			}
		}
		s.Schedule(3, chain)
	}
	plain := sim.New(99)
	var plainLog []string
	build(plain, &plainLog)
	plain.RunUntil(4000)

	g := shard.NewGroup(12345, 1, 8)
	var groupLog []string
	build(g.Sim(0), &groupLog)
	g.RunUntil(4000)

	if !reflect.DeepEqual(plainLog, groupLog) {
		t.Fatal("one-shard group diverged from plain simulation")
	}
	if plain.Fired() != g.Fired() || plain.Now() != g.Now() {
		t.Fatalf("fired/now = %d/%d vs %d/%d", g.Fired(), g.Now(), plain.Fired(), plain.Now())
	}
	if g.Rounds != 0 {
		t.Fatalf("one-shard group took %d coordinator rounds, want 0", g.Rounds)
	}
}

func TestMergeOrderIsSourceDeterministic(t *testing.T) {
	// Two shards send to shard 0 with identical arrival times; the merge
	// must order them by (time, source shard, source sequence) no matter
	// how the goroutines interleave.
	g := shard.NewGroup(7, 3, 4)
	g.SetLookahead(50)
	var got []string
	rec := func(arg any) { got = append(got, arg.(string)) }
	o1, o2 := g.Outbox(1, 0), g.Outbox(2, 0)
	for _, src := range []struct {
		s   *sim.Simulation
		o   *shard.Outbox
		tag string
	}{{g.Sim(1), o1, "s1"}, {g.Sim(2), o2, "s2"}} {
		src := src
		src.s.Schedule(100, func() {
			src.o.Send(50, rec, src.tag+"-a")
			src.o.Send(50, rec, src.tag+"-b")
		})
	}
	g.RunUntil(1000)
	want := []string{"s1-a", "s1-b", "s2-a", "s2-b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
}

func TestPreRunStagedSendIsNotLost(t *testing.T) {
	// A cross-shard send staged before RunUntil (construction-time
	// stimulus) must be visible to the first window computation even
	// when no shard has wheel events of its own.
	g := shard.NewGroup(1, 2, 2)
	g.SetLookahead(10)
	fired := sim.Time(-1)
	g.Outbox(0, 1).Send(25, func(any) { fired = g.Sim(1).Now() }, nil)
	g.RunUntil(100)
	if fired != 25 {
		t.Fatalf("staged cross-shard event fired at %d, want 25", fired)
	}
	if g.Now() != 100 {
		t.Fatalf("group clock %d, want 100", g.Now())
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	g := shard.NewGroup(1, 2, 1)
	g.SetLookahead(100)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below the lookahead did not panic")
		}
	}()
	g.Outbox(0, 1).Send(99, func(any) {}, nil)
}

func TestRunForAdvancesFromBarrier(t *testing.T) {
	m := buildRing(3, 4, 4)
	m.g.RunFor(5000)
	if m.g.Now() != 5000 {
		t.Fatalf("Now = %d after RunFor(5000)", m.g.Now())
	}
	m.g.RunFor(5000)
	if m.g.Now() != 10000 {
		t.Fatalf("Now = %d after second RunFor(5000)", m.g.Now())
	}
	for i := 0; i < m.g.N(); i++ {
		if m.g.Sim(i).Now() != 10000 {
			t.Fatalf("shard %d clock %d, want 10000", i, m.g.Sim(i).Now())
		}
	}
}

func TestResumedRunMatchesSingleRun(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	// Splitting a run into two RunUntil calls must not change anything:
	// the group leaves no hidden state between deadlines (messages
	// staged beyond the first deadline survive in their channels).
	one := runRing(11, 4, 3, 30000)
	two := runRing(11, 4, 3, 12345)
	two.g.RunUntil(30000)
	if !reflect.DeepEqual(one.logs, two.logs) {
		t.Fatal("split run diverged from single run")
	}
	if one.g.Fired() != two.g.Fired() {
		t.Fatalf("fired %d vs %d", one.g.Fired(), two.g.Fired())
	}
}

func TestSeedChangesStreams(t *testing.T) {
	a := runRing(1, 3, 1, 10000)
	b := runRing(2, 3, 1, 10000)
	if reflect.DeepEqual(a.logs, b.logs) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestShardStats(t *testing.T) {
	m := runRing(42, 5, 2, 20000)
	var merged uint64
	for i := 0; i < m.g.N(); i++ {
		st := m.g.ShardStats(i)
		merged += st.Merged
		if st.Horizon == 0 {
			t.Fatalf("shard %d reports zero horizon after a run", i)
		}
	}
	if merged != m.g.Crossings {
		t.Fatalf("per-shard merged sum %d != group crossings %d", merged, m.g.Crossings)
	}
}

// runGraph drives a random shard graph: every shard runs a local event
// chain and sprays messages over its random out-edges, each with its
// own minimum delay at or above the group lookahead. This is the
// kernel-level shakeout for the merge: heterogeneous delays, cycles,
// fan-in ties, and shards with no channels at all.
func runGraph(t *testing.T, seed int64, workers int) [][]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	g := shard.NewGroup(seed, n, workers)
	g.SetLookahead(20)
	logs := make([][]string, n)
	type edge struct {
		out  *shard.Outbox
		look sim.Time
		dst  int
	}
	edges := make([][]edge, n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || rng.Intn(3) == 0 {
				continue
			}
			look := sim.Time(20 + rng.Intn(300))
			edges[src] = append(edges[src], edge{g.Outbox(src, dst), look, dst})
		}
	}
	var hop func(j int) func(any)
	hop = func(j int) func(any) {
		return func(arg any) {
			s := g.Sim(j)
			logs[j] = append(logs[j], fmt.Sprintf("t=%d hop=%d draw=%d", s.Now(), arg.(int), s.Rand().Intn(100)))
			if arg.(int) >= 40 || len(edges[j]) == 0 {
				return
			}
			ed := edges[j][s.Rand().Intn(len(edges[j]))]
			ed.out.Send(ed.look+sim.Time(s.Rand().Intn(50)), hop(ed.dst), arg.(int)+1)
		}
	}
	for j := 0; j < n; j++ {
		j := j
		s := g.Sim(j)
		var chain func()
		chain = func() {
			logs[j] = append(logs[j], fmt.Sprintf("t=%d local=%d", s.Now(), s.Rand().Intn(1000)))
			s.Schedule(sim.Time(s.Rand().Intn(80)+1), chain)
		}
		s.Schedule(sim.Time(rng.Intn(30)), chain)
		if len(edges[j]) > 0 {
			ed := edges[j][0]
			s.Schedule(sim.Time(rng.Intn(40)), func() { ed.out.Send(ed.look, hop(ed.dst), 0) })
		}
	}
	g.RunUntil(15000)
	if g.Now() != 15000 {
		t.Fatalf("group clock %d, want 15000", g.Now())
	}
	return logs
}

func TestRandomGraphWorkersAgree(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	for seed := int64(0); seed < 12; seed++ {
		ref := runGraph(t, seed, 1)
		for _, workers := range []int{3, 8} {
			if got := runGraph(t, seed, workers); !reflect.DeepEqual(ref, got) {
				t.Fatalf("seed=%d workers=%d: diverged from sequential run", seed, workers)
			}
		}
	}
}

// shard.merged is the group's one telemetry series: it lands in the
// deterministic snapshot, so its value must not depend on the worker
// count.
func TestMergedCounterIsDeterministic(t *testing.T) {
	raiseGOMAXPROCS(t, 4)
	merged := func(workers int) (uint64, uint64) {
		m := buildRing(42, 3, workers)
		ctxs := obs.EnableGroup(m.g.Sims())
		m.g.RunUntil(20000)
		for _, s := range ctxs[0].Registry.Snapshot() {
			if s.Name == "shard.merged" {
				return s.N, m.g.Crossings
			}
		}
		t.Fatal("shard.merged missing from the deterministic snapshot")
		return 0, 0
	}
	seq, crossings := merged(1)
	if seq == 0 || seq != crossings {
		t.Fatalf("shard.merged = %d, group crossings %d", seq, crossings)
	}
	if par, _ := merged(3); par != seq {
		t.Fatalf("shard.merged at 3 workers = %d, sequential %d", par, seq)
	}
}
