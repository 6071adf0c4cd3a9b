package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// scanPick is Port.pick as it was before the port kept a bitmap of
// non-empty classes: it scans all eight class queues from the highest
// class down. It is the reference TestPickMatchesScan and
// FuzzPickMatchesScan hold pick to, as eager_test.go keeps the
// event-per-frame injector for the noise process.
func (p *Port) scanPick(now sim.Time) (*Packet, bool) {
	if p.noise != nil {
		p.noise.resume = 0
	}
	if p.ctrlHead < len(p.ctrlQueue) {
		packet := p.ctrlQueue[p.ctrlHead]
		p.ctrlQueue[p.ctrlHead] = nil
		p.ctrlHead++
		return packet, true
	}
	var earliest sim.Time = -1
	for c := pkt.NumClasses - 1; c >= 0; c-- {
		if p.qhead[c] == len(p.queues[c]) {
			continue
		}
		if until := p.pausedUntil[c]; until > now {
			if earliest < 0 || until < earliest {
				earliest = until
			}
			continue
		}
		packet := p.queues[c][p.qhead[c]]
		p.queues[c][p.qhead[c]] = nil
		p.qhead[c]++
		size := packet.WireLen()
		p.queuedBytes[c] -= size
		if !packet.noise {
			p.realQueued--
		}
		p.stats.QueueDepth.Add(-int64(size))
		p.stats.QueueDelay.Observe(int64(now - packet.EnqueuedAt))
		if p.tracer != nil && packet.Flow != 0 && now > packet.EnqueuedAt {
			p.tracer.Range(packet.Flow, "net.qwait", 0, int64(packet.EnqueuedAt), int64(p.index))
		}
		return packet, true
	}
	if earliest < 0 {
		return nil, false
	}
	if p.noise != nil {
		p.noise.resume = earliest
	}
	if p.noise == nil || p.realQueued > 0 {
		p.sim.Cancel(p.retry)
		p.retry = p.sim.ScheduleCall(max(0, earliest-p.sim.Now()), retryKick, p)
	}
	return nil, false
}

// Pick script ops, drawn from a seed with two argument bytes b1 and b2.
const (
	pickOpReal  = iota // enqueue a real frame of class b1, 64+5*b2 bytes, at the cursor
	pickOpNoise        // enqueue a noise frame of class b1, 64+5*b2 bytes, at the cursor
	pickOpCtrl         // enqueue a PFC frame now
	pickOpPause        // pause class b1 for 40*b2 ns now (b2 < 64 resumes)
	pickOpPick         // pick at the cursor
	pickOpRun          // run the simulation 20*b1 ns; the cursor stays behind
	pickOpCatch        // move the cursor 20*b1 ns toward now
	pickOps
)

// runPick runs the script drawn from seed on one unwired port, whose
// transmitter never starts on its own, so every pick is the script's.
// The port picks with its own pick, or with scanPick when scan is set.
// Ops between two picks at the cursor model a noise advance, which
// enqueues and picks at past instants; a control frame or a pause is a
// real operation and brings the cursor up to now. Three scripts in four
// give the port a noise process that never arrives, so pick's noise
// bookkeeping (resume, and no retry for noise-only paused traffic) is in
// play. It returns every observed fact, one per line.
func runPick(seed int64, scan bool) []string {
	r := rand.New(rand.NewSource(seed))
	s := sim.New(1)
	port := NewPort(s, &keepSink{}, 0, rigPortConfig())
	if r.Intn(4) > 0 {
		port.noise = &portNoise{proc: noiseProc{next: maxTime}}
	}
	var out []string
	logf := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	ids := map[*Packet]int{}
	cursor := sim.Time(0)
	// Up to three spare draws also pick: scripts that pick seldom build
	// deep queues, the rest keep them short.
	spare := r.Intn(4)
	for i, n := 0, 50+r.Intn(400); i < n; i++ {
		b1, b2 := r.Intn(256), r.Intn(256)
		class := pkt.TrafficClass(b1 % pkt.NumClasses)
		switch op := r.Intn(pickOps + spare); op {
		case pickOpReal, pickOpNoise:
			size := 64 + 5*b2
			var packet *Packet
			if op == pickOpReal {
				packet = testFrame(class, size)
			} else {
				packet = newNoisePacket(class, size)
			}
			ids[packet] = i
			logf("enqueue %d id=%d noise=%v class=%d ok=%v", cursor, i, op == pickOpNoise, class,
				port.enqueue(packet, cursor))
		case pickOpCtrl:
			var f pkt.PFCFrame
			f.Enabled[class] = true
			packet := NewPacket(pkt.EncodePFC(pkt.MAC{2}, f))
			ids[packet] = i
			port.EnqueueControl(packet)
			cursor = s.Now()
		case pickOpPause:
			d := sim.Time(40 * b2)
			if b2 < 64 {
				d = 0
			}
			port.Pause(class, d)
			cursor = s.Now()
		case pickOpRun:
			s.RunFor(sim.Time(20 * b1))
		case pickOpCatch:
			cursor = min(s.Now(), cursor+sim.Time(20*b1))
		default: // pickOpPick and the spare draws
			before := port.retry
			var packet *Packet
			var ok bool
			if scan {
				packet, ok = port.scanPick(cursor)
			} else {
				packet, ok = port.pick(cursor)
			}
			id := -1
			if ok {
				id = ids[packet]
			}
			retry := sim.Time(-1)
			if port.retry != (sim.Timer{}) {
				retry = port.retry.At()
			}
			resume := sim.Time(-1)
			if port.noise != nil {
				resume = port.noise.resume
			}
			st := &port.stats
			logf("pick %d/%d id=%d ok=%v armed=%v retry=%d resume=%d depth=%d/%d delay=%d/%.3f/%d/%d real=%d",
				cursor, s.Now(), id, ok, port.retry != before, retry, resume, st.QueueDepth.Value(), st.QueueDepth.Watermark(),
				st.QueueDelay.Count(), st.QueueDelay.Mean(), st.QueueDelay.Min(), st.QueueDelay.Max(),
				port.realQueued)
		}
	}
	logf("queued %v pending=%d fired=%d", port.queuedBytes, s.Pending(), s.Fired())
	return out
}

// comparePick runs the script of seed with pick and with scanPick and
// reports the first line that differs. It returns the lines.
func comparePick(t *testing.T, seed int64) []string {
	t.Helper()
	got, want := runPick(seed, false), runPick(seed, true)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("seed %d: line %d differs:\npick %s\nscan %s", seed, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: pick observed %d facts, scan %d", seed, len(got), len(want))
	}
	return got
}

// TestPickMatchesScan holds the bitmap-driven pick to the eight-class
// scan over seeded scripts of real and noise frames in every class,
// control frames, pauses and resumes, and picks at past instants, and
// checks that together the scripts queued every class, dropped frames,
// picked at past instants, and found only paused traffic both with a
// real frame among it (a retry is armed) and with noise alone (none is).
func TestPickMatchesScan(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	var classes [pkt.NumClasses]int
	var retried, noRetry, drops, past int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, l := range comparePick(t, seed) {
			var at, now sim.Time
			var id, class int
			var noise, ok bool
			if n, _ := fmt.Sscanf(l, "enqueue %d id=%d noise=%t class=%d ok=%t", &at, &id, &noise, &class, &ok); n == 5 {
				if ok {
					classes[class]++
				} else {
					drops++
				}
				continue
			}
			var armed bool
			var resume sim.Time
			if n, _ := fmt.Sscanf(l, "pick %d/%d id=%d ok=%t armed=%t retry=%d resume=%d",
				&at, &now, &id, &ok, &armed, new(sim.Time), &resume); n == 7 {
				if at < now {
					past++
				}
				switch {
				case armed:
					retried++
				case resume > 0:
					noRetry++ // only paused noise is queued
				}
			}
		}
	}
	t.Logf("enqueued per class=%v drops=%d paused picks with retry=%d without=%d past picks=%d",
		classes, drops, retried, noRetry, past)
	for c, n := range classes {
		if n == 0 {
			t.Fatalf("no script queued class %d", c)
		}
	}
	if retried == 0 || noRetry == 0 || drops == 0 || past == 0 {
		t.Fatal("the scripts did not reach every case")
	}
}

// FuzzPickMatchesScan checks pick against the eight-class scan on
// scripts drawn from arbitrary seeds.
func FuzzPickMatchesScan(f *testing.F) {
	for _, seed := range []int64{0, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		comparePick(t, seed)
	})
}
