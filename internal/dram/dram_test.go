package dram

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// read issues a ReadCall whose completion hands done (if set) a copy of
// the data.
func read(c *Controller, addr int64, n int, done func(data []byte)) error {
	return c.ReadCall(addr, n, func(_ any, data []byte) {
		if done != nil {
			done(append([]byte(nil), data...))
		}
	}, nil)
}

// write issues a WriteCall whose completion calls done (if set).
func write(c *Controller, addr int64, data []byte, done func()) error {
	return c.WriteCall(addr, data, func(any, []byte) {
		if done != nil {
			done()
		}
	}, nil)
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultConfig())
	data := []byte("the ranking model weights live here")
	var got []byte
	if err := write(c, 1<<20, data, func() {
		read(c, 1<<20, len(data), func(d []byte) { got = d })
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultConfig())
	var got []byte
	read(c, 3<<30, 16, func(d []byte) { got = d })
	s.Run()
	for _, b := range got {
		if b != 0 {
			t.Fatal("uninitialized DRAM not zero")
		}
	}
}

func TestCrossPageWrite(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultConfig())
	data := make([]byte, 3*pageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := int64(pageSize - 50) // straddle page boundaries
	var got []byte
	write(c, addr, data, func() {
		read(c, addr, len(data), func(d []byte) { got = d })
	})
	s.Run()
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page data corrupted")
	}
}

func TestOutOfRange(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultConfig())
	if err := c.WriteCall(capacityBytes-4, make([]byte, 8), nil, nil); err == nil {
		t.Error("write past capacity accepted")
	}
	if err := c.ReadCall(-1, 4, nil, nil); err == nil {
		t.Error("negative address accepted")
	}
}

func TestRowBufferLocality(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultConfig())
	// Sequential accesses within a row: first miss, then hits.
	for i := 0; i < 8; i++ {
		c.ReadCall(int64(i*64), 64, nil, nil)
	}
	s.Run()
	if c.Stats.RowMisses.Value() != 1 {
		t.Errorf("row misses = %d, want 1", c.Stats.RowMisses.Value())
	}
	if c.Stats.RowHits.Value() != 7 {
		t.Errorf("row hits = %d, want 7", c.Stats.RowHits.Value())
	}
}

func TestRandomAccessesMissMore(t *testing.T) {
	s := sim.New(2)
	c := New(s, DefaultConfig())
	rng := s.NewRand()
	for i := 0; i < 64; i++ {
		addr := rng.Int63n(capacityBytes - 64)
		c.ReadCall(addr, 64, nil, nil)
		s.Run() // serialize so queue depth never binds
	}
	if c.Stats.RowMisses.Value() < c.Stats.RowHits.Value() {
		t.Errorf("random access pattern hit rows more than it missed (%d hits, %d misses)",
			c.Stats.RowHits.Value(), c.Stats.RowMisses.Value())
	}
}

func TestBandwidthBound(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultConfig())
	// 128 MB of reads cannot finish faster than capacity/bandwidth.
	const total = 128 << 20
	const chunk = 4 << 20
	var finished sim.Time
	issued := 0
	var issue func()
	issue = func() {
		if issued*chunk >= total {
			finished = s.Now()
			return
		}
		issued++
		read(c, int64(issued*chunk), chunk, func([]byte) { issue() })
	}
	issue()
	s.Run()
	minTime := sim.Time(int64(total) * int64(sim.Second) / peakBps)
	if finished < minTime {
		t.Fatalf("moved 128MB in %v, below the channel's minimum %v", finished, minTime)
	}
	if finished > 2*minTime {
		t.Fatalf("took %v, far above bandwidth bound %v", finished, minTime)
	}
}

func TestQueueDepthRejects(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	c := New(s, cfg)
	errs := 0
	for i := 0; i < 10; i++ {
		if err := c.ReadCall(int64(i*1024), 1024, nil, nil); err != nil {
			errs++
		}
	}
	if errs != 6 {
		t.Fatalf("rejected %d, want 6", errs)
	}
	if c.Stats.Rejected.Value() != 6 {
		t.Errorf("Rejected counter = %d", c.Stats.Rejected.Value())
	}
	s.Run()
	if c.Pending() != 0 {
		t.Error("queue did not drain")
	}
}

// TestBankCompletesInOrder: a row hit issued right after a row miss to
// the same bank has the shorter latency, but its row only opens when the
// miss's activate finishes, so it completes no earlier than the miss. A
// read after a write to one address therefore sees the written bytes.
func TestBankCompletesInOrder(t *testing.T) {
	s := sim.New(1)
	c := New(s, DefaultConfig())
	addr := int64(banks * rowBytes) // bank 0, row banks
	data := []byte("written by the row miss")
	var wroteAt, readAt sim.Time
	var got []byte
	write(c, addr, data, func() { wroteAt = s.Now() })
	read(c, addr, len(data), func(d []byte) { readAt, got = s.Now(), d })
	s.Run()
	if c.Stats.RowMisses.Value() != 1 || c.Stats.RowHits.Value() != 1 {
		t.Fatalf("misses=%d hits=%d, want one of each", c.Stats.RowMisses.Value(), c.Stats.RowHits.Value())
	}
	if readAt < wroteAt {
		t.Fatalf("row hit completed at %v, before the earlier row miss at %v", readAt, wroteAt)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read after write got %q, want %q", got, data)
	}
}

// Property: arbitrary interleaved writes then reads observe exactly what
// was written (last-writer-wins at byte granularity given serialized
// completion order).
func TestPropertyMemoryConsistency(t *testing.T) {
	type op struct {
		Addr uint32
		Data []byte
	}
	f := func(ops []op) bool {
		s := sim.New(3)
		c := New(s, DefaultConfig())
		shadow := map[int64]byte{}
		for _, o := range ops {
			if len(o.Data) == 0 {
				continue
			}
			if len(o.Data) > 4096 {
				o.Data = o.Data[:4096]
			}
			addr := int64(o.Addr)
			if err := c.WriteCall(addr, o.Data, nil, nil); err != nil {
				continue
			}
			s.Run() // serialize
			for i, b := range o.Data {
				shadow[addr+int64(i)] = b
			}
		}
		ok := true
		for addr, want := range shadow {
			addr, want := addr, want
			read(c, addr, 1, func(d []byte) {
				if d[0] != want {
					ok = false
				}
			})
			s.Run()
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Fatal(err)
	}
}
