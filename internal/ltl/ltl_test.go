package ltl

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// testWire connects two engines through a programmable channel with
// latency, drop, reordering, and ECN-marking hooks — a stand-in for the
// shell + fabric used to exercise the protocol in isolation.
type testWire struct {
	s     *sim.Simulation
	ip    pkt.IP
	mac   pkt.MAC
	peer  *Engine
	delay sim.Time

	// drop returns true to discard a frame (data path only).
	drop func(n int, f *pkt.Frame) bool
	// markECN returns true to set ECN-CE on the frame.
	markECN func(f *pkt.Frame) bool
	// holdFor returns an extra delay per frame (reordering).
	holdFor func(n int, f *pkt.Frame) sim.Time

	count int
	sent  int
}

func (w *testWire) LocalIP() pkt.IP   { return w.ip }
func (w *testWire) LocalMAC() pkt.MAC { return w.mac }

func (w *testWire) Output(buf []byte) {
	w.sent++
	// Wire.Output must not retain the engine's pooled buffer; this wire
	// delays delivery, so it copies like the real shell does.
	buf = append([]byte(nil), buf...)
	f, err := pkt.Decode(buf)
	if err != nil {
		panic(err)
	}
	n := w.count
	w.count++
	if w.drop != nil && w.drop(n, f) {
		return
	}
	if w.markECN != nil && w.markECN(f) {
		pkt.SetECNCE(buf)
		f, _ = pkt.Decode(buf)
	}
	d := w.delay
	if w.holdFor != nil {
		d += w.holdFor(n, f)
	}
	peer := w.peer
	w.s.Schedule(d, func() { peer.HandleFrame(f) })
}

// pair builds two engines A and B linked by testWires with the given
// one-way delay.
func pair(s *sim.Simulation, cfg Config, delay sim.Time) (a, b *Engine, wa, wb *testWire) {
	wa = &testWire{s: s, ip: pkt.IP{10, 0, 0, 1}, mac: pkt.MAC{2, 0, 0, 0, 0, 1}, delay: delay}
	wb = &testWire{s: s, ip: pkt.IP{10, 0, 0, 2}, mac: pkt.MAC{2, 0, 0, 0, 0, 2}, delay: delay}
	a = New(s, wa, cfg)
	b = New(s, wb, cfg)
	wa.peer = b
	wb.peer = a
	return
}

// openPair allocates connection 1 from a to b and returns the receive
// message sink.
func openPair(t *testing.T, a, b *Engine, wb *testWire) *[][]byte {
	t.Helper()
	var got [][]byte
	if err := a.OpenSend(1, wb.ip, wb.mac, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.OpenRecv(1, wbPeerIP(a), func(p []byte) {
		got = append(got, append([]byte(nil), p...))
	}); err != nil {
		t.Fatal(err)
	}
	return &got
}

func wbPeerIP(a *Engine) pkt.IP { return a.wire.LocalIP() }

func TestBasicDelivery(t *testing.T) {
	s := sim.New(1)
	a, b, _, wb := pair(s, DefaultConfig(), sim.Microsecond)
	got := openPair(t, a, b, wb)
	if err := a.SendMessage(1, []byte("hello remote fpga"), nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Millisecond)
	if len(*got) != 1 || string((*got)[0]) != "hello remote fpga" {
		t.Fatalf("got %q", *got)
	}
	if a.Stats.Retransmits.Value() != 0 {
		t.Errorf("spurious retransmits: %d", a.Stats.Retransmits.Value())
	}
}

func TestMultiFrameMessage(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	a, b, _, wb := pair(s, cfg, sim.Microsecond)
	got := openPair(t, a, b, wb)
	payload := make([]byte, 5*MTU+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	a.SendMessage(1, payload, nil)
	s.RunFor(10 * sim.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("messages = %d, want 1", len(*got))
	}
	if !bytes.Equal((*got)[0], payload) {
		t.Fatal("payload corrupted across segmentation")
	}
	if a.Stats.FramesSent.Value() != 6 {
		t.Errorf("frames sent = %d, want 6", a.Stats.FramesSent.Value())
	}
}

func TestCompletionCallbackMeasuresRTT(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	a, b, _, wb := pair(s, cfg, sim.Microsecond)
	openPair(t, a, b, wb)
	var done sim.Time = -1
	a.SendMessage(1, []byte("ping"), func() { done = s.Now() })
	s.RunFor(sim.Millisecond)
	if done < 0 {
		t.Fatal("completion never fired")
	}
	// RTT must cover two wire traversals plus processing.
	if done < 2*sim.Microsecond {
		t.Errorf("completion at %v, implausibly early", done)
	}
	if a.Stats.MessageRTT.Count() != 1 {
		t.Errorf("RTT histogram count = %d", a.Stats.MessageRTT.Count())
	}
}

func TestOrderingUnderLoad(t *testing.T) {
	s := sim.New(1)
	a, b, _, wb := pair(s, DefaultConfig(), sim.Microsecond)
	got := openPair(t, a, b, wb)
	for i := 0; i < 100; i++ {
		a.SendMessage(1, []byte{byte(i)}, nil)
	}
	s.RunFor(10 * sim.Millisecond)
	if len(*got) != 100 {
		t.Fatalf("messages = %d, want 100", len(*got))
	}
	for i, m := range *got {
		if m[0] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, m[0])
		}
	}
}

func TestRetransmitOnDrop(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	a, b, wa, wb := pair(s, cfg, sim.Microsecond)
	got := openPair(t, a, b, wb)
	// Drop the first data frame once.
	dropped := false
	wa.drop = func(n int, f *pkt.Frame) bool {
		h, _, err := pkt.DecodeLTL(f.Payload)
		if err != nil || h.Type != pkt.LTLData || dropped {
			return false
		}
		dropped = true
		return true
	}
	var done sim.Time = -1
	a.SendMessage(1, []byte("lossy"), func() { done = s.Now() })
	s.RunFor(10 * sim.Millisecond)
	if len(*got) != 1 || string((*got)[0]) != "lossy" {
		t.Fatalf("message lost: %v", *got)
	}
	if a.Stats.Timeouts.Value() == 0 {
		t.Error("timeout path never exercised")
	}
	// Recovery must take at least the 50us retransmit timeout.
	if done < retransmitTimeout {
		t.Errorf("recovered at %v, before the retransmit timeout", done)
	}
}

func TestNackFastRetransmitBeatsTimeout(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	a, b, wa, wb := pair(s, cfg, sim.Microsecond)
	got := openPair(t, a, b, wb)
	// Drop only the FIRST data frame of a burst; subsequent frames arrive
	// out of order, triggering a NACK.
	wa.drop = func(n int, f *pkt.Frame) bool {
		h, _, err := pkt.DecodeLTL(f.Payload)
		return err == nil && h.Type == pkt.LTLData && h.Seq == 0 && n == 0
	}
	var done sim.Time = -1
	payload := make([]byte, 4*MTU)
	a.SendMessage(1, payload, func() { done = s.Now() })
	s.RunFor(10 * sim.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("message not delivered")
	}
	if b.Stats.NacksSent.Value() == 0 {
		t.Fatal("receiver never NACKed on reorder")
	}
	if done <= 0 || done >= retransmitTimeout {
		t.Errorf("NACK recovery at %v should beat the %v timeout", done, retransmitTimeout)
	}
}

func TestDuplicateFramesReAcked(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	a, b, _, wb := pair(s, cfg, sim.Microsecond)
	got := openPair(t, a, b, wb)
	// Drop the ACK for the first frame so the sender retransmits a frame
	// the receiver already has.
	acksDropped := 0
	wb.drop = func(n int, f *pkt.Frame) bool {
		h, _, err := pkt.DecodeLTL(f.Payload)
		if err == nil && h.Type == pkt.LTLAck && acksDropped == 0 {
			acksDropped++
			return true
		}
		return false
	}
	a.SendMessage(1, []byte("once"), nil)
	s.RunFor(10 * sim.Millisecond)
	if len(*got) != 1 {
		t.Fatalf("delivered %d messages, want exactly 1 (no duplicate delivery)", len(*got))
	}
	if b.Stats.Duplicates.Value() == 0 {
		t.Error("duplicate path never exercised")
	}
	if a.InFlight(1) != 0 {
		t.Errorf("unacked store not drained: %d", a.InFlight(1))
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.Window = 4
	a, b, _, wb := pair(s, cfg, 100*sim.Microsecond) // long RTT
	got := openPair(t, a, b, wb)
	for i := 0; i < 20; i++ {
		a.SendMessage(1, []byte{byte(i)}, nil)
	}
	s.RunFor(10 * sim.Microsecond) // let the pacer emit; RTT is 200us
	if a.InFlight(1) != 4 {
		t.Errorf("in flight = %d, want window 4", a.InFlight(1))
	}
	if a.QueuedFrames(1) != 16 {
		t.Errorf("queued = %d, want 16", a.QueuedFrames(1))
	}
	s.RunFor(50 * sim.Millisecond)
	if len(*got) != 20 {
		t.Fatalf("delivered %d, want 20", len(*got))
	}
}

func TestConnectionFailureDetection(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	a, b, wa, wb := pair(s, cfg, sim.Microsecond)
	openPair(t, a, b, wb)
	wa.drop = func(n int, f *pkt.Frame) bool { return true } // black hole
	failed := false
	a.Close(1)
	if err := a.OpenSend(1, wb.ip, wb.mac, 1, 0, func() { failed = true }); err != nil {
		t.Fatal(err)
	}
	a.SendMessage(1, []byte("void"), nil)
	s.RunFor(retransmitTimeout * sim.Time(maxRetries+5))
	if !failed {
		t.Fatal("onFail never invoked for black-holed connection")
	}
	if !a.ConnFailed(1) {
		t.Error("ConnFailed = false")
	}
	if err := a.SendMessage(1, []byte("more"), nil); err == nil {
		t.Error("SendMessage on failed connection should error")
	}
	// Failure detection speed: maxRetries * timeout ≈ 400us — "identify
	// failing nodes quickly".
	if s.Now() > sim.Millisecond {
		t.Errorf("failure detection took %v", s.Now())
	}
}

func TestDCQCNReactsToECN(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	a, b, wa, wb := pair(s, cfg, sim.Microsecond)
	openPair(t, a, b, wb)
	wa.markECN = func(f *pkt.Frame) bool { return true } // congested path
	lineRate := a.SendRate(1)
	payload := make([]byte, MTU)
	for i := 0; i < 50; i++ {
		a.SendMessage(1, payload, nil)
	}
	s.RunFor(5 * sim.Millisecond)
	if b.Stats.CNPsSent.Value() == 0 {
		t.Fatal("no CNPs generated for marked traffic")
	}
	if a.Stats.CNPsRecv.Value() == 0 {
		t.Fatal("sender never received CNPs")
	}
	if a.SendRate(1) >= lineRate {
		t.Errorf("rate did not decrease: %d", a.SendRate(1))
	}
}

func TestBandwidthLimiting(t *testing.T) {
	// §V-D: "LTL implements bandwidth limiting to prevent the FPGA from
	// exceeding a configurable bandwidth limit."
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.DCQCN = false
	cfg.BandwidthLimitBps = 1e9 // 1 Gb/s cap
	a, b, _, wb := pair(s, cfg, sim.Microsecond)
	got := openPair(t, a, b, wb)
	payload := make([]byte, MTU)
	const n = 100
	var lastDone sim.Time
	for i := 0; i < n; i++ {
		a.SendMessage(1, payload, func() { lastDone = s.Now() })
	}
	s.RunFor(sim.Second)
	if len(*got) != n {
		t.Fatalf("delivered %d, want %d", len(*got), n)
	}
	if a.Stats.ThrottleStalls.Value() == 0 {
		t.Error("throttle never engaged")
	}
	// The transfer cannot beat the token-bucket schedule: total bits over
	// the cap, minus the 100 µs burst allowance.
	bits := float64(a.Stats.BytesSent.Value()) * 8
	minDuration := sim.Time(bits/1e9*float64(sim.Second)) - 100*sim.Microsecond
	if lastDone < minDuration {
		t.Fatalf("1 Gb/s cap violated: %d bytes acked by %v (schedule minimum %v)",
			a.Stats.BytesSent.Value(), lastDone, minDuration)
	}
	// And the limiter must not be wildly slower than its own cap.
	rate := bits / lastDone.Seconds()
	if rate < 0.5e9 || rate > 1.3e9 {
		t.Errorf("effective rate %.2f Gb/s, want ~1 Gb/s", rate/1e9)
	}
}

func TestDuplicateConnectionAllocation(t *testing.T) {
	s := sim.New(1)
	a, b, _, wb := pair(s, DefaultConfig(), sim.Microsecond)
	openPair(t, a, b, wb)
	if err := a.OpenSend(1, wb.ip, wb.mac, 1, 0, nil); err == nil {
		t.Error("duplicate OpenSend should fail")
	}
	if err := b.OpenRecv(1, wbPeerIP(a), nil); err == nil {
		t.Error("duplicate OpenRecv should fail")
	}
	// Close then reopen succeeds (static tables are reusable after
	// deallocation).
	a.Close(1)
	if err := a.OpenSend(1, wb.ip, wb.mac, 1, 0, nil); err != nil {
		t.Errorf("reopen after Close: %v", err)
	}
}

func TestSendOnUnknownConnection(t *testing.T) {
	s := sim.New(1)
	a, _, _, _ := pair(s, DefaultConfig(), sim.Microsecond)
	if err := a.SendMessage(9, []byte("x"), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSeqLessWraparound(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{0xffffffff, 0, true}, // wraparound
		{0, 0xffffffff, false},
		{5, 5, false},
	}
	for _, c := range cases {
		if got := seqLess(c.a, c.b); got != c.want {
			t.Errorf("seqLess(%d,%d) = %v", c.a, c.b, got)
		}
	}
}

// Property: under random loss and reordering, every message is delivered
// exactly once, in order, with intact payloads.
func TestPropertyReliableDelivery(t *testing.T) {
	f := func(seed int64, dropPct, holdPct uint8, nMsgs uint8) bool {
		s := sim.New(7)
		cfg := DefaultConfig()
		a, b, wa, wb := pair(s, cfg, sim.Microsecond)
		rng := rand.New(rand.NewSource(seed))
		dp := float64(dropPct%40) / 100 // up to 40% loss
		hp := float64(holdPct%40) / 100
		wa.drop = func(n int, f *pkt.Frame) bool { return rng.Float64() < dp }
		wa.holdFor = func(n int, f *pkt.Frame) sim.Time {
			if rng.Float64() < hp {
				return sim.Time(rng.Intn(20)) * sim.Microsecond
			}
			return 0
		}
		// ACK path is also lossy.
		wb.drop = func(n int, f *pkt.Frame) bool { return rng.Float64() < dp/2 }

		var got [][]byte
		if err := a.OpenSend(1, wb.ip, wb.mac, 1, 0, nil); err != nil {
			return false
		}
		if err := b.OpenRecv(1, wa.ip, func(p []byte) {
			got = append(got, append([]byte(nil), p...))
		}); err != nil {
			return false
		}
		n := int(nMsgs%30) + 1
		var want [][]byte
		for i := 0; i < n; i++ {
			m := make([]byte, 1+rng.Intn(3*MTU))
			rng.Read(m)
			m[0] = byte(i)
			want = append(want, m)
			a.SendMessage(1, m, nil)
		}
		s.RunFor(sim.Second)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceWraparound(t *testing.T) {
	// Connections are persistent; sequence numbers must survive 2^32
	// wraparound. Start the counters near the top and push messages
	// across the boundary.
	s := sim.New(1)
	a, b, _, wb := pair(s, DefaultConfig(), sim.Microsecond)
	got := openPair(t, a, b, wb)
	a.send[1].nextSeq = 0xffffffff - 3
	b.recv[1].expectedSeq = 0xffffffff - 3
	for i := 0; i < 10; i++ {
		a.SendMessage(1, []byte{byte(i)}, nil)
	}
	s.RunFor(10 * sim.Millisecond)
	if len(*got) != 10 {
		t.Fatalf("delivered %d/10 across wraparound", len(*got))
	}
	for i, m := range *got {
		if m[0] != byte(i) {
			t.Fatalf("order broken across wraparound: %v", *got)
		}
	}
	if a.InFlight(1) != 0 {
		t.Errorf("unacked store not drained across wraparound")
	}
	if a.Stats.Retransmits.Value() != 0 {
		t.Errorf("spurious retransmits at wraparound: %d", a.Stats.Retransmits.Value())
	}
}

func TestVCCarriedOnWire(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	wa := &testWire{s: s, ip: pkt.IP{10, 0, 0, 1}, mac: pkt.MAC{2, 0, 0, 0, 0, 1}, delay: sim.Microsecond}
	wb := &testWire{s: s, ip: pkt.IP{10, 0, 0, 2}, mac: pkt.MAC{2, 0, 0, 0, 0, 2}, delay: sim.Microsecond}
	a := New(s, wa, cfg)
	b := New(s, wb, cfg)
	wa.peer = b
	wb.peer = a
	var sawVC uint8 = 255
	wa.holdFor = func(n int, f *pkt.Frame) sim.Time {
		if h, _, err := pkt.DecodeLTL(f.Payload); err == nil && h.Type == pkt.LTLData {
			sawVC = h.VC
		}
		return 0
	}
	b.OpenRecv(1, wa.ip, nil)
	a.OpenSend(1, wb.ip, wb.mac, 1, 3, nil) // VC 3
	a.SendMessage(1, []byte("x"), nil)
	s.RunFor(sim.Millisecond)
	if sawVC != 3 {
		t.Fatalf("wire VC = %d, want 3", sawVC)
	}
}

// A frame of an unassigned type is dropped, whatever connection it names.
// Wire types 4-6 once carried a connection handshake and type 8 a
// connection-less control datagram; a corrupted frame whose type byte
// reads one of them must leave the static connection it names open, so a
// later message is still delivered, and reach no datagram handler.
func TestUnassignedFrameTypeDropped(t *testing.T) {
	for _, ty := range []pkt.LTLType{4, 5, 6, 8} {
		s := sim.New(1)
		a, b, wa, wb := pair(s, DefaultConfig(), sim.Microsecond)
		got := openPair(t, a, b, wb)
		b.SetDatagramHandler(func(pkt.IP, uint8, []byte) {
			t.Errorf("type %d reached the datagram handler", ty)
		})
		a.SendMessage(1, []byte("before"), nil)
		s.RunFor(sim.Millisecond)
		stray := pkt.EncodeLTL(pkt.LTLHeader{Type: ty, SrcConn: 1, DstConn: 1}, nil)
		f, err := pkt.Decode(pkt.EncodeUDP(wa.mac, wb.mac, wa.ip, wb.ip,
			pkt.LTLPort, pkt.LTLPort, pkt.ClassLTL, 64, 0, stray))
		if err != nil {
			t.Fatal(err)
		}
		b.HandleFrame(f)
		s.RunFor(sim.Millisecond)
		a.SendMessage(1, []byte("after"), nil)
		s.RunFor(sim.Millisecond)
		if len(*got) != 2 {
			t.Errorf("type %d: %d of 2 messages delivered after a stray frame", ty, len(*got))
		}
	}
}
