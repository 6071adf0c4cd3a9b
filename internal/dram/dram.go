// Package dram models the accelerator board's memory system: one 4 GB
// DDR3-1600 channel, 72 bits wide with ECC (Fig. 2), behind the shell's
// DDR3 memory controller. The model is transaction-level: requests queue
// at the controller, bank row-buffer locality determines access latency,
// and the channel's 12.8 GB/s peak bandwidth bounds throughput. Each bank
// completes its accesses in issue order, so accesses to one address are
// ordered. Contents are stored sparsely (pages allocate on first write),
// so a full 4 GB address space costs only what is touched.
package dram

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// The DDR3-1600 channel of Fig. 2.
const (
	// capacityBytes is the channel capacity (4 GB).
	capacityBytes int64 = 4 << 30
	// peakBps is the channel bandwidth (DDR3-1600 x 64 data bits =
	// 12.8 GB/s).
	peakBps int64 = 12800e6
	// rowHit/rowMiss are access latencies for open-row hits vs row
	// conflicts (precharge + activate + CAS).
	rowHit  = 30 * sim.Nanosecond
	rowMiss = 60 * sim.Nanosecond
	// banks is the bank count (8 for DDR3).
	banks = 8
	// rowBytes is the row-buffer size per bank.
	rowBytes = 8 << 10
)

// Config parameterizes a Controller.
type Config struct {
	// QueueDepth bounds outstanding requests at the controller.
	QueueDepth int
}

// DefaultConfig returns the shell's controller queue depth.
func DefaultConfig() Config { return Config{QueueDepth: 64} }

// Stats aggregates controller counters.
type Stats struct {
	Writes    metrics.Counter
	RowHits   metrics.Counter
	RowMisses metrics.Counter
	Rejected  metrics.Counter // queue-full rejections
}

const pageSize = 4096

// Controller is one DDR3 channel with its memory contents.
type Controller struct {
	cfg Config
	sim *sim.Simulation

	pages    map[int64][]byte
	openRow  [banks]int64    // per bank: currently open row (-1 = none)
	bankDone [banks]sim.Time // per bank: completion time of its last access

	busyUntil sim.Time
	pending   int

	// opFree is the pooled-transaction freelist (ReadCall/WriteCall).
	opFree []*memOp

	Stats Stats
}

// New builds a controller.
func New(s *sim.Simulation, cfg Config) *Controller {
	c := &Controller{cfg: cfg, sim: s, pages: make(map[int64][]byte)}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	return c
}

// Pending reports queued requests.
func (c *Controller) Pending() int { return c.pending }

// access computes the service completion time for n bytes at addr and
// updates bank state; it returns the total latency for this request. A
// bank completes its accesses in issue order: a row hit cannot finish
// before an earlier access to the same bank (such as the row miss that
// opened its row), so accesses to one address never overtake each other.
func (c *Controller) access(addr int64, n int) sim.Time {
	if n < 1 {
		n = 1
	}
	row := addr / rowBytes
	bank := int(row % banks)
	var lat sim.Time
	if c.openRow[bank] == row {
		lat = rowHit
		c.Stats.RowHits.Inc()
	} else {
		lat = rowMiss
		c.Stats.RowMisses.Inc()
		c.openRow[bank] = row
	}
	xfer := sim.Time(int64(n) * int64(sim.Second) / peakBps)
	// The channel serializes transfers; latency adds on top.
	now := c.sim.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busyUntil += xfer
	done := c.busyUntil + lat
	if done < c.bankDone[bank] {
		done = c.bankDone[bank]
	}
	c.bankDone[bank] = done
	return done - now
}

// checkRange validates [addr, addr+n).
func (c *Controller) checkRange(addr int64, n int) error {
	if addr < 0 || n < 0 || addr+int64(n) > capacityBytes {
		return fmt.Errorf("dram: access [%d, %d) outside 0..%d", addr, addr+int64(n), capacityBytes)
	}
	return nil
}

// OpFn is the completion callback of the pooled-op API (ReadCall and
// WriteCall): data is the read result (nil for writes) and is valid only
// for the duration of the call — the controller reuses the buffer.
type OpFn func(arg any, data []byte)

// memOp is a pooled in-flight transaction. The buf is reused across
// transactions, so the steady-state DRAM path performs no allocation.
type memOp struct {
	c     *Controller
	addr  int64
	n     int
	fn    OpFn
	arg   any
	buf   []byte
	write bool
}

// opDone is the static completion callback for pooled transactions.
func opDone(v any) {
	o := v.(*memOp)
	c := o.c
	var data []byte
	if o.write {
		c.store(o.addr, o.buf[:o.n])
	} else {
		o.buf = c.loadInto(o.buf[:0], o.addr, o.n)
		data = o.buf
	}
	c.pending--
	if o.fn != nil {
		o.fn(o.arg, data)
	}
	o.fn, o.arg = nil, nil
	c.opFree = append(c.opFree, o)
}

func (c *Controller) allocOp() *memOp {
	if n := len(c.opFree); n > 0 {
		o := c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
		return o
	}
	return &memOp{c: c}
}

// WriteCall stores data at addr: data is copied into a reused
// transaction buffer (the caller's slice is free after the call returns),
// the contents update at completion, and fn(arg, nil) (fn may be nil)
// fires then without allocating a closure. It returns an error for
// out-of-range or queue-full conditions.
func (c *Controller) WriteCall(addr int64, data []byte, fn OpFn, arg any) error {
	o, err := c.issue(addr, len(data), fn, arg)
	if err != nil {
		return err
	}
	c.Stats.Writes.Inc()
	o.write = true
	o.buf = append(o.buf[:0], data...)
	return nil
}

// ReadCall fetches n bytes at addr: fn(arg, data) (fn may be nil)
// receives the result at completion in a reused buffer valid only during
// the call. Errors are WriteCall's.
func (c *Controller) ReadCall(addr int64, n int, fn OpFn, arg any) error {
	_, err := c.issue(addr, n, fn, arg)
	return err
}

// issue admits one n-byte transaction at addr and schedules its
// completion; the op is a read unless the caller marks it a write.
func (c *Controller) issue(addr int64, n int, fn OpFn, arg any) (*memOp, error) {
	if err := c.checkRange(addr, n); err != nil {
		return nil, err
	}
	if c.pending >= c.cfg.QueueDepth {
		c.Stats.Rejected.Inc()
		return nil, fmt.Errorf("dram: controller queue full")
	}
	c.pending++
	o := c.allocOp()
	o.addr, o.n, o.fn, o.arg, o.write = addr, n, fn, arg, false
	c.sim.ScheduleCall(c.access(addr, n), opDone, o)
	return o, nil
}

// store writes through the sparse page map.
func (c *Controller) store(addr int64, data []byte) {
	for len(data) > 0 {
		page := addr / pageSize
		off := int(addr % pageSize)
		p, ok := c.pages[page]
		if !ok {
			p = make([]byte, pageSize)
			c.pages[page] = p
		}
		n := copy(p[off:], data)
		data = data[n:]
		addr += int64(n)
	}
}

// loadInto appends n bytes at addr to dst, reading through the sparse
// page map (unwritten bytes are zero, like initialized DRAM after
// calibration).
func (c *Controller) loadInto(dst []byte, addr int64, n int) []byte {
	for n > 0 {
		page := addr / pageSize
		off := int(addr % pageSize)
		span := pageSize - off
		if span > n {
			span = n
		}
		if p, ok := c.pages[page]; ok {
			dst = append(dst, p[off:off+span]...)
		} else {
			for i := 0; i < span; i++ {
				dst = append(dst, 0)
			}
		}
		n -= span
		addr += int64(span)
	}
	return dst
}
