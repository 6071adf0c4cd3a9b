// Package shard runs a set of sim.Simulation instances as one logical
// simulation using conservative parallel discrete-event simulation
// (Chandy–Misra–Bryant-style lookahead). The model is partitioned at
// construction time into shards — in the datacenter topology, the L2
// spine is shard 0 and each pod is its own shard — and events that
// cross a shard boundary travel through per-directed-pair Outboxes
// (channels) instead of being scheduled directly.
//
// Execution is barrier-synchronous: each round the coordinator
// computes the earliest pending event time T across all shards and lets
// every shard with work execute events in [T, T+lookahead-1]
// concurrently, where lookahead is the minimum virtual latency of any
// cross-shard edge. A message sent inside the window therefore always
// lands beyond it.
//
// Cross-shard messages are consumed with one canonical interleave: per
// destination, the wheel is advanced in bulk to just before the
// earliest pending in-message (ordered by arrival time, then source
// shard, then source sequence), which is then inserted and overtaken.
// The resulting event order is a pure function of the model — (time,
// shard, seq) — and never of where a window happened to end, so a run
// with W workers is bit-identical to the same partition run
// sequentially.
//
// Determinism contract: the partition is part of the model, not of the
// execution. Varying the worker count never changes results; varying
// the partition (a different shard count or assignment) is a different
// model with different RNG streams, exactly like changing a topology
// parameter.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

const maxTime = sim.Time(1<<63 - 1)

// xmsg is one cross-shard event: fn(arg) due at absolute time at on the
// destination shard. seq is the per-channel send sequence; together
// with the channel's source shard it implements the deterministic
// (time, source, sequence) merge order.
type xmsg struct {
	at  sim.Time
	seq uint64
	fn  func(any)
	arg any
}

func msgLess(a, b xmsg) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Outbox is one directed cross-shard channel. Send may only be called
// from within the source shard's event handlers (or before the run
// starts). Obtain outboxes during model construction via Group.Outbox —
// never while the group is running.
//
// Internally the outbox is three single-owner regions plus a locked
// handoff: buf is staged by the source shard's goroutine during its
// window; msgs is the mutex-guarded handoff the source flushes into;
// heap/drainBuf belong to the destination shard's goroutine. All
// buffers are reused run to run, so steady-state traffic allocates
// nothing.
type Outbox struct {
	g        *Group
	src, dst int32

	// Producer side (source shard's goroutine only).
	seq uint64
	buf []xmsg

	// Handoff, guarded by mu. news is the producer's "handoff changed"
	// flag: drain skips the mutex entirely while it is clear, which is
	// what keeps a hub shard (the spine has one channel pair per pod)
	// from paying a lock pair per channel per round.
	news atomic.Uint32
	mu   sync.Mutex
	msgs []xmsg

	// Consumer side (destination shard's goroutine only).
	heap     []xmsg // min-heap by (at, seq)
	drainBuf []xmsg // swap buffer exchanged with msgs at drain
	merged   uint64 // messages consumed; deterministic
}

// Send schedules fn(arg) on the destination shard after delay, measured
// from the source shard's clock. delay must be at least the group
// lookahead: that is the safety condition that lets shards advance
// concurrently, so a smaller delay is a partitioning bug and panics.
func (o *Outbox) Send(delay sim.Time, fn func(any), arg any) {
	if l := o.g.lookahead; delay < l {
		panic(fmt.Sprintf("shard: cross-shard delay %d < lookahead %d (shard %d -> %d)",
			delay, l, o.src, o.dst))
	}
	o.buf = append(o.buf, xmsg{
		at:  o.g.shards[o.src].Now() + delay,
		seq: o.seq,
		fn:  fn,
		arg: arg,
	})
	o.seq++
}

// pushMsg adds m to the consumer-side heap.
func (o *Outbox) pushMsg(m xmsg) {
	h := append(o.heap, m)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	o.heap = h
}

// popMsg removes and returns the earliest pending message. The vacated
// slot is zeroed so fn/arg references are released.
func (o *Outbox) popMsg() xmsg {
	h := o.heap
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = xmsg{}
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && msgLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && msgLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	o.heap = h
	return root
}

// shardState is the per-shard scheduler block.
type shardState struct {
	ins  []*Outbox // in-channels, sorted by source shard
	outs []*Outbox // out-channels, in creation order

	hp    []*Outbox // channel tournament heap scratch
	next  sim.Time  // earliest pending time at the current round
	limit sim.Time  // last window end executed to
}

// ShardStats reports one shard's deterministic scheduler counters.
type ShardStats struct {
	Horizon sim.Time // last window end executed to
	Merged  uint64   // cross-shard messages merged into this shard
}

// Group is a fixed set of shards advanced together under a common
// virtual clock. Construct the model across the shards' simulations,
// register every cross-shard edge with Outbox, set the group lookahead,
// and drive the whole thing with Run/RunUntil/RunFor from one
// goroutine.
type Group struct {
	seed      int64
	lookahead sim.Time
	workers   int
	shards    []*sim.Simulation
	outboxes  []*Outbox // creation order
	byPair    map[[2]int32]*Outbox
	states    []shardState
	running   bool

	// Round dispatch. runq is the stack of shards still to advance this
	// round; windowEnd is the round bound (written by the coordinator
	// before the round's enqueue, so the queue mutex orders it against
	// worker reads).
	qmu       sync.Mutex
	qcond     sync.Cond
	runq      []int32
	stop      bool
	windowEnd sim.Time
	roundWG   sync.WaitGroup
	workerWG  sync.WaitGroup // spawned workers, joined at run end
	// single is set per run when only one goroutine will advance shards
	// (workers or GOMAXPROCS is 1): handoff mutexes are skipped, since
	// every producer and the sole consumer share one goroutine. Written
	// before workers could exist, constant all run.
	single bool

	// Observability, bound lazily at the first RunUntil (EnableGroup
	// runs after NewGroup).
	obsBound  bool
	mMerged   *metrics.Counter
	pubMerged uint64

	// Rounds counts coordinator windows. Crossings counts cross-shard
	// events merged. Both are stable for a given model + deadline;
	// Crossings is additionally independent of the lookahead.
	Rounds    uint64
	Crossings uint64
}

// splitmix64 is the shard seed derivation: shard i of a group seeded S
// always gets the same RNG stream, regardless of worker count.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewGroup creates n shards seeded deterministically from seed.
// workers caps the goroutines advancing shards; values < 1 (and any
// value for a single-shard group) mean "one", which executes the whole
// schedule inline — the degenerate sequential mode every parallel run
// is compared against.
func NewGroup(seed int64, n, workers int) *Group {
	if n < 1 {
		panic("shard: group needs at least one shard")
	}
	g := &Group{
		seed:    seed,
		workers: workers,
		shards:  make([]*sim.Simulation, n),
		byPair:  make(map[[2]int32]*Outbox),
		states:  make([]shardState, n),
	}
	g.qcond.L = &g.qmu
	for i := range g.shards {
		g.shards[i] = sim.New(int64(splitmix64(uint64(seed) + uint64(i))))
	}
	return g
}

// N returns the number of shards.
func (g *Group) N() int { return len(g.shards) }

// Workers returns the effective worker count.
func (g *Group) Workers() int {
	if g.workers < 1 || len(g.shards) == 1 {
		return 1
	}
	if g.workers > len(g.shards) {
		return len(g.shards)
	}
	return g.workers
}

// Seed returns the group seed shard streams were derived from.
func (g *Group) Seed() int64 { return g.seed }

// Sim returns shard i's simulation, for constructing model components
// on it.
func (g *Group) Sim(i int) *sim.Simulation { return g.shards[i] }

// Sims returns all shard simulations in shard order.
func (g *Group) Sims() []*sim.Simulation { return g.shards }

// Lookahead returns the minimum cross-shard latency.
func (g *Group) Lookahead() sim.Time { return g.lookahead }

// SetLookahead declares the minimum virtual latency of any cross-shard
// edge, which is also the width of every window. It must be positive
// before a multi-shard group can run, and is fixed once running.
func (g *Group) SetLookahead(l sim.Time) {
	if l <= 0 {
		panic("shard: lookahead must be positive")
	}
	if g.running {
		panic("shard: SetLookahead while running")
	}
	g.lookahead = l
}

// Outbox returns the channel from shard src to shard dst, creating it
// on first use. Construction-time only: channel creation order is part
// of the deterministic merge order, so it must not race with a run.
func (g *Group) Outbox(src, dst int) *Outbox {
	if g.running {
		panic("shard: Outbox while running")
	}
	if src == dst {
		panic("shard: outbox endpoints must differ")
	}
	key := [2]int32{int32(src), int32(dst)}
	if o := g.byPair[key]; o != nil {
		return o
	}
	o := &Outbox{g: g, src: int32(src), dst: int32(dst)}
	g.byPair[key] = o
	g.outboxes = append(g.outboxes, o)
	g.states[src].outs = append(g.states[src].outs, o)
	// Keep in-channels sorted by source shard: the tournament heap
	// breaks arrival-time ties by source, and a sorted base makes the
	// scan order deterministic too.
	ins := g.states[dst].ins
	pos := len(ins)
	for pos > 0 && ins[pos-1].src > o.src {
		pos--
	}
	ins = append(ins, nil)
	copy(ins[pos+1:], ins[pos:])
	ins[pos] = o
	g.states[dst].ins = ins
	return o
}

// Now returns the group clock. Shard clocks only agree between runs;
// they all rest at the last deadline, which is what Now reports.
func (g *Group) Now() sim.Time { return g.shards[0].Now() }

// Fired sums executed events across all shards.
func (g *Group) Fired() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.Fired()
	}
	return n
}

// ShardStats returns shard i's scheduler counters (see ShardStats).
func (g *Group) ShardStats(i int) ShardStats {
	st := &g.states[i]
	var merged uint64
	for _, c := range st.ins {
		merged += c.merged
	}
	return ShardStats{Horizon: st.limit, Merged: merged}
}

// satAdd adds two times, saturating at maxTime.
func satAdd(a, b sim.Time) sim.Time {
	c := a + b
	if c < a {
		return maxTime
	}
	return c
}

// bindObs registers the shard.merged counter on the shared registry
// once, lazily: observability is attached after NewGroup.
func (g *Group) bindObs() {
	if g.obsBound {
		return
	}
	g.obsBound = true
	if reg := obs.RegistryOf(g.shards[0]); reg != nil {
		g.mMerged = reg.Counter("shard.merged", "events", "shard",
			"cross-shard events merged into destination wheels", new(metrics.Counter))
	}
}

// publishMerged folds this run's merge count into Crossings and the
// telemetry-visible shard.merged counter. Runs single-threaded after
// the workers have joined.
func (g *Group) publishMerged() {
	var merged uint64
	for _, o := range g.outboxes {
		merged += o.merged
	}
	g.Crossings = merged
	if g.mMerged != nil {
		g.mMerged.Add(merged - g.pubMerged)
		g.pubMerged = merged
	}
}

// RunUntil executes all events with timestamps <= deadline across every
// shard, then advances all shard clocks to deadline. Single-shard
// groups collapse to a plain sim.RunUntil — no scheduling at all.
func (g *Group) RunUntil(deadline sim.Time) {
	if len(g.shards) == 1 {
		g.shards[0].RunUntil(deadline)
		return
	}
	if g.lookahead <= 0 {
		panic("shard: multi-shard group needs SetLookahead before running")
	}
	g.bindObs()
	g.running = true
	g.run(deadline)
	g.running = false
	for _, s := range g.shards {
		s.RunUntil(deadline)
	}
	g.publishMerged()
}

// RunFor advances the group clock by d from its current rest point.
func (g *Group) RunFor(d sim.Time) { g.RunUntil(g.Now() + d) }

// seedChannels moves construction-time (or previous-run) producer
// buffers into the locked handoffs. Called single-threaded before
// workers start.
func (g *Group) seedChannels() {
	for _, o := range g.outboxes {
		if len(o.buf) > 0 {
			o.msgs = append(o.msgs, o.buf...)
			for i := range o.buf {
				o.buf[i] = xmsg{}
			}
			o.buf = o.buf[:0]
		}
		if len(o.msgs) > 0 {
			o.news.Store(1)
		}
	}
}

// drain moves flushed messages from shard j's in-channel handoffs into
// its consumer heaps. Runs on the goroutine currently owning shard j.
func (g *Group) drain(j int) {
	for _, c := range g.states[j].ins {
		if c.news.Load() == 0 {
			continue
		}
		c.news.Store(0)
		if !g.single {
			c.mu.Lock()
		}
		taken := c.msgs
		if len(taken) > 0 {
			c.msgs = c.drainBuf[:0]
		}
		if !g.single {
			c.mu.Unlock()
		}
		if len(taken) > 0 {
			for i := range taken {
				c.pushMsg(taken[i])
				taken[i] = xmsg{}
			}
			c.drainBuf = taken[:0]
		}
	}
}

// advance is the canonical merge-execute loop: run shard j's wheel and
// its pending in-messages in (time, source shard, source sequence)
// order up to and including limit, leaving the wheel clock at limit.
// The interleave is pause-point-independent — the sequence of wheel
// operations depends only on the model's event and message times, never
// on where a window boundary fell — so every worker count produces the
// identical wheel history.
func (g *Group) advance(j int, limit sim.Time) {
	st := &g.states[j]
	s := g.shards[j]

	// Tournament heap over in-channels with pending messages, keyed by
	// (head arrival, source shard).
	hp := st.hp[:0]
	for _, c := range st.ins {
		if len(c.heap) > 0 {
			hp = append(hp, c)
		}
	}
	chanLess := func(a, b *Outbox) bool {
		return a.heap[0].at < b.heap[0].at ||
			(a.heap[0].at == b.heap[0].at && a.src < b.src)
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(hp) && chanLess(hp[l], hp[m]) {
				m = l
			}
			if r < len(hp) && chanLess(hp[r], hp[m]) {
				m = r
			}
			if m == i {
				return
			}
			hp[i], hp[m] = hp[m], hp[i]
			i = m
		}
	}
	for i := len(hp)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}

	for len(hp) > 0 {
		c := hp[0]
		at := c.heap[0].at
		if at > limit {
			break
		}
		if at <= s.Now() {
			panic(fmt.Sprintf("shard: cross-shard event at t=%d arrived in shard %d's past (now=%d)",
				at, j, s.Now()))
		}
		// Execute every local event strictly before the message, then
		// insert it: the wheel's FIFO-within-instant order makes the
		// message run after same-time events scheduled before it and
		// before ones scheduled by it — identically in every run.
		s.RunUntil(at - 1)
		m := c.popMsg()
		s.ScheduleCall(m.at-s.Now(), m.fn, m.arg)
		c.merged++
		if len(c.heap) == 0 {
			hp[0] = hp[len(hp)-1]
			hp = hp[:len(hp)-1]
		}
		siftDown(0)
	}
	for i := range hp {
		hp[i] = nil
	}
	st.hp = hp[:0]
	s.RunUntil(limit)
	st.limit = limit
}

// workerLoop advances queued shards to the current window end until the
// run stops. The coordinator does not run it; it helps drain the queue
// inline each round instead.
func (g *Group) workerLoop() {
	defer g.workerWG.Done()
	for {
		g.qmu.Lock()
		for len(g.runq) == 0 && !g.stop {
			g.qcond.Wait()
		}
		if g.stop {
			g.qmu.Unlock()
			return
		}
		j := g.runq[len(g.runq)-1]
		g.runq = g.runq[:len(g.runq)-1]
		g.qmu.Unlock()
		g.advance(int(j), g.windowEnd)
		g.flushBuffersOf(int(j))
		g.roundWG.Done()
	}
}

// spawnWorkers is the goroutine count actually used for a run: the
// configured worker cap, clamped to GOMAXPROCS. Workers beyond the
// processor count cannot add parallelism — results are identical at
// every worker count by construction — but they do add futex ping-pong
// on every round, so a single-core box runs every window on the
// coordinator alone.
func (g *Group) spawnWorkers() int {
	w := g.Workers()
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	return w
}

// run executes lockstep windows of one lookahead each until no event at
// or before deadline remains anywhere in the group.
func (g *Group) run(deadline sim.Time) {
	g.seedChannels()
	w := g.spawnWorkers()
	g.stop = false
	g.single = w == 1
	g.runq = g.runq[:0]
	g.workerWG.Add(w - 1)
	for k := 0; k < w-1; k++ {
		go g.workerLoop()
	}
	for {
		// Single-threaded between rounds: drain handoffs and find the
		// earliest pending event across wheels and heaps.
		for j := range g.states {
			g.drain(j)
		}
		tmin := maxTime
		for j := range g.states {
			t, ok := g.shards[j].NextEventTime()
			if !ok {
				t = maxTime
			}
			for _, c := range g.states[j].ins {
				if len(c.heap) > 0 && c.heap[0].at < t {
					t = c.heap[0].at
				}
			}
			g.states[j].next = t
			if t < tmin {
				tmin = t
			}
		}
		if tmin > deadline {
			break
		}
		// The window [tmin, end] is safe: a cross-shard send fired at
		// t >= tmin arrives no earlier than t+lookahead > end.
		end := satAdd(tmin, g.lookahead-1)
		if end > deadline {
			end = deadline
		}
		g.windowEnd = end
		nbusy := 0
		for j := range g.states {
			if g.states[j].next <= end {
				nbusy++
			}
		}
		if w == 1 || nbusy == 1 {
			for j := range g.states {
				if g.states[j].next <= end {
					g.advance(j, end)
					g.flushBuffersOf(j)
				}
			}
		} else {
			g.roundWG.Add(nbusy)
			g.qmu.Lock()
			for j := range g.states {
				if g.states[j].next <= end {
					g.runq = append(g.runq, int32(j))
				}
			}
			g.qmu.Unlock()
			g.qcond.Broadcast()
			// The coordinator helps until the queue empties, then waits
			// for stragglers.
			for {
				g.qmu.Lock()
				if len(g.runq) == 0 {
					g.qmu.Unlock()
					break
				}
				j := g.runq[len(g.runq)-1]
				g.runq = g.runq[:len(g.runq)-1]
				g.qmu.Unlock()
				g.advance(int(j), end)
				g.flushBuffersOf(int(j))
				g.roundWG.Done()
			}
			g.roundWG.Wait()
		}
		g.Rounds++
	}
	g.qmu.Lock()
	g.stop = true
	g.qmu.Unlock()
	g.qcond.Broadcast()
	g.workerWG.Wait()
}

// flushBuffersOf moves shard j's staged out-messages into their
// handoffs, where the next round's drain picks them up.
func (g *Group) flushBuffersOf(j int) {
	for _, c := range g.states[j].outs {
		if len(c.buf) == 0 {
			continue
		}
		if !g.single {
			c.mu.Lock()
		}
		c.msgs = append(c.msgs, c.buf...)
		if !g.single {
			c.mu.Unlock()
		}
		c.news.Store(1)
		for i := range c.buf {
			c.buf[i] = xmsg{}
		}
		c.buf = c.buf[:0]
	}
}
