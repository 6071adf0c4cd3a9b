package shell

// vFPGA slots: partial-reconfiguration multi-tenancy for the role region.
//
// The paper's deployment loads one role per FPGA. The economics of the
// fabric improve when heterogeneous roles share a board ("Architecture
// Support for FPGA Multi-tenancy in the Cloud"; Coyote v2), so the shell
// can split its role region — the ALMs Fig. 5 leaves after the shell's
// own 44% — into 2–4 statically floorplanned vFPGA slots. Each slot is
// an independently reconfigurable partial-reconfiguration region with:
//
//   - an ALM capacity drawn from the Fig. 5 ledger (area.go): a tenant
//     role only loads where it fits,
//   - a reconfiguration cost model charged on the virtual clock: partial
//     reconfiguration programs the whole PR region, so its duration
//     scales with the slot's area, the slot serves nothing while it
//     reprograms, and the bridge (and the other slots) keep running,
//   - a dedicated ER virtual channel for its service datagrams, so one
//     tenant's on-chip bursts arbitrate against — never head-of-line
//     block — its neighbors (er.flits_vc<v> witnesses the separation),
//   - a token bucket on the LTL egress path, so a tenant's offered
//     bandwidth is capped before its frames reach the shared 40G link.
//
// A slot holds a tenant and its ALM footprint, not role logic: a slot
// tenant's data path is the datagram handler bound to its slot
// (SetServiceHandlerSlot). Slot state is owned by the shell (the FPGA
// Manager's view); placement across boards is the HaaS scheduler's job
// (internal/haas/slots.go).

import (
	"fmt"

	"repro/internal/er"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// RoleRegionALMs is the programmable area left for roles once the shell
// components of Fig. 5 are placed — the region vFPGA slots partition.
func RoleRegionALMs() int { return TotalALMs - ShellALMs() }

// SlotConfig parameterizes the shell's vFPGA slot partition.
type SlotConfig struct {
	// Count is the number of vFPGA slots (0 or 1 = the classic
	// single-role shell; slot APIs error).
	Count int
	// ALMs is each slot's area capacity. Nil splits RoleRegionALMs()
	// evenly; explicit capacities model asymmetric floorplans.
	ALMs []int
}

// DefaultSlotConfig returns an n-slot partition of the role region.
func DefaultSlotConfig(n int) SlotConfig { return SlotConfig{Count: n} }

// The partial-reconfiguration cost model: programming a full-region
// slot takes on the order of the shell's partialReconfigTime.
const (
	// reconfigBase is the fixed overhead of one partial reconfiguration
	// (ICAP setup, bitstream header).
	reconfigBase = 2 * sim.Millisecond
	// reconfigPerALM is the bitstream-write time per ALM of the slot's
	// region. Partial reconfiguration rewrites the whole PR region, so
	// cost scales with slot capacity, not with the incoming role's size.
	reconfigPerALM = 180 * sim.Nanosecond
)

// slotVCBase is the first ER virtual channel assigned to slots: VC 0/1
// keep their service.go meanings (global service datagrams, lease plane);
// slot i's datagrams ride VC slotVCBase+i.
const slotVCBase = 2

// slotBurstBits is a slot token bucket's depth, one 9 KiB burst. Slots
// start unshaped; SetSlotEgressRate sets a rate and may change the depth.
const slotBurstBits = 9 << 13

// tokenBucket shapes egress bandwidth on the virtual clock. Tokens are
// bits; the balance may run negative, which serializes queued sends by
// growing each subsequent send's release delay — a deterministic
// leaky-bucket with an unbounded queue.
type tokenBucket struct {
	rateBps int64
	burst   int64 // bits
	tokens  int64 // bits (negative = debt already scheduled)
	last    sim.Time
}

// charge books bytes against the bucket at virtual time now and returns
// the delay until the send may enter the wire (0 = immediately).
func (tb *tokenBucket) charge(now sim.Time, bytes int) sim.Time {
	if tb.rateBps <= 0 {
		return 0
	}
	if now > tb.last {
		elapsed := int64(now - tb.last)
		if elapsed >= (1<<62)/tb.rateBps {
			// A gap long enough to overflow the refill product has
			// certainly refilled the bucket.
			tb.tokens = tb.burst
		} else {
			tb.tokens += elapsed * tb.rateBps / int64(sim.Second)
			if tb.tokens > tb.burst {
				tb.tokens = tb.burst
			}
		}
		tb.last = now
	}
	tb.tokens -= int64(bytes) * 8
	if tb.tokens >= 0 {
		return 0
	}
	return sim.Time((-tb.tokens*int64(sim.Second) + tb.rateBps - 1) / tb.rateBps)
}

// vSlot is one vFPGA slot's state.
type vSlot struct {
	index  int
	cap    int // ALM capacity of the PR region
	used   int // ALMs of the loaded role
	vc     int // ER virtual channel for this slot's datagrams
	tenant string
	up     bool
	reconf bool
	// gen invalidates in-flight reconfigurations when the board
	// hard-fails or power-cycles mid-program.
	gen     int
	bucket  tokenBucket
	handler func(fromHost int, kind uint8, payload []byte)
}

// TenantStats aggregates the shell's multi-tenancy counters.
type TenantStats struct {
	EgressBytes     metrics.Counter // datagram payload bytes leaving tenant slots
	EgressThrottled metrics.Counter // sends delayed by a slot's token bucket
	EgressWait      *metrics.Histogram
	ReconfigNS      *metrics.Histogram
	SlotsLoaded     metrics.Gauge   // slots currently holding a role (peak = watermark)
	DgramsDropped   metrics.Counter // datagrams swallowed by a down/reprogramming slot
}

// SlotInfo is the externally visible state of one slot (the FPGA
// Manager's status report).
type SlotInfo struct {
	Index    int
	CapALMs  int
	UsedALMs int
	VC       int
	Tenant   string
	Up       bool
	Reconfig bool
}

// initSlots builds the slot partition at shell construction.
func (sh *Shell) initSlots() {
	sc := sh.cfg.Slots
	if sc.Count < 2 {
		return
	}
	caps := sc.ALMs
	if caps == nil {
		caps = make([]int, sc.Count)
		per := RoleRegionALMs() / sc.Count
		for i := range caps {
			caps[i] = per
		}
	}
	if len(caps) != sc.Count {
		panic(fmt.Sprintf("shell: %d slot capacities for %d slots", len(caps), sc.Count))
	}
	sum := 0
	for _, c := range caps {
		sum += c
	}
	if sum > RoleRegionALMs() {
		panic(fmt.Sprintf("shell: slot capacities sum to %d ALMs, role region has %d", sum, RoleRegionALMs()))
	}
	for i := 0; i < sc.Count; i++ {
		sh.slots = append(sh.slots, &vSlot{
			index: i, cap: caps[i], vc: slotVCBase + i,
			bucket: tokenBucket{burst: slotBurstBits, tokens: slotBurstBits},
		})
	}
	sh.kindSlot = make(map[uint8]int)
	sh.Tenant.EgressWait = metrics.NewHistogram()
	sh.Tenant.ReconfigNS = metrics.NewHistogram()
	if r := obs.RegistryOf(sh.sim); r != nil {
		r.Counter("shell.tenant.egress_bytes", "bytes", "shell", "tenant datagram bytes entering the egress shaper", &sh.Tenant.EgressBytes)
		r.Counter("shell.tenant.egress_throttled", "dgrams", "shell", "tenant sends delayed by a slot token bucket", &sh.Tenant.EgressThrottled)
		r.Histogram("shell.tenant.egress_wait", "ns", "shell", "token-bucket shaping delay per throttled send", sh.Tenant.EgressWait)
		r.Histogram("shell.tenant.reconfig_ns", "ns", "shell", "partial-reconfiguration duration per slot program", sh.Tenant.ReconfigNS)
		r.Gauge("shell.tenant.slots_loaded", "slots", "shell", "vFPGA slots currently holding a role", &sh.Tenant.SlotsLoaded)
		r.Counter("shell.tenant.dgrams_dropped", "dgrams", "shell", "datagrams swallowed by a down or reprogramming slot", &sh.Tenant.DgramsDropped)
	}
}

// NumSlots reports the shell's vFPGA slot count (0 = single-role shell).
func (sh *Shell) NumSlots() int { return len(sh.slots) }

// SlotCaps returns each slot's ALM capacity.
func (sh *Shell) SlotCaps() []int {
	caps := make([]int, len(sh.slots))
	for i, s := range sh.slots {
		caps[i] = s.cap
	}
	return caps
}

// SlotView reports one slot's state.
func (sh *Shell) SlotView(i int) (SlotInfo, error) {
	s, err := sh.slot(i)
	if err != nil {
		return SlotInfo{}, err
	}
	return SlotInfo{
		Index: s.index, CapALMs: s.cap, UsedALMs: s.used, VC: s.vc,
		Tenant: s.tenant, Up: s.up && !sh.failed, Reconfig: s.reconf,
	}, nil
}

func (sh *Shell) slot(i int) (*vSlot, error) {
	if i < 0 || i >= len(sh.slots) {
		return nil, fmt.Errorf("shell %d: no vFPGA slot %d (have %d)", sh.hostID, i, len(sh.slots))
	}
	return sh.slots[i], nil
}

// SlotUp reports whether slot i is loaded and serving.
func (sh *Shell) SlotUp(i int) bool {
	s, err := sh.slot(i)
	return err == nil && s.up && !s.reconf && !sh.failed
}

// ReconfigureSlot partially reconfigures slot i to hold tenant's role of
// the given ALM footprint. The slot serves nothing while its region
// reprograms; the bridge and the other slots keep running (the §III
// partial-reconfiguration property, now per slot). Returns the modeled
// reconfiguration duration; done (optional) fires with ok=false if the
// board hard-fails or power-cycles mid-program.
func (sh *Shell) ReconfigureSlot(i int, tenant string, alms int, done func(ok bool)) (sim.Time, error) {
	s, err := sh.slot(i)
	if err != nil {
		return 0, err
	}
	if alms > s.cap {
		return 0, fmt.Errorf("shell %d slot %d: role needs %d ALMs, region has %d", sh.hostID, i, alms, s.cap)
	}
	if s.reconf {
		return 0, fmt.Errorf("shell %d slot %d: reconfiguration already in progress", sh.hostID, i)
	}
	if sh.failed {
		return 0, fmt.Errorf("shell %d: board hard-failed", sh.hostID)
	}
	if s.up {
		sh.Tenant.SlotsLoaded.Add(-1)
	}
	s.up, s.reconf = false, true
	s.tenant, s.used = "", 0
	sh.Stats.Reconfigs.Inc()
	dur := reconfigBase + sim.Time(s.cap)*reconfigPerALM
	gen := s.gen
	sh.sim.Schedule(dur, func() {
		if s.gen != gen || sh.failed {
			if done != nil {
				done(false)
			}
			return
		}
		s.up, s.reconf = true, false
		s.tenant, s.used = tenant, alms
		sh.Tenant.SlotsLoaded.Add(1)
		if sh.Tenant.ReconfigNS != nil {
			sh.Tenant.ReconfigNS.Observe(int64(dur))
		}
		if done != nil {
			done(true)
		}
	})
	return dur, nil
}

// ClearSlot immediately empties slot i (lease release; eviction after a
// defrag move). Clearing does not reprogram — the region is simply
// fenced off until the next ReconfigureSlot.
func (sh *Shell) ClearSlot(i int) error {
	s, err := sh.slot(i)
	if err != nil {
		return err
	}
	if s.up {
		sh.Tenant.SlotsLoaded.Add(-1)
	}
	s.gen++ // cancel an in-flight reconfiguration
	s.up, s.reconf = false, false
	s.tenant, s.used = "", 0
	sh.unbindSlotKinds(i)
	return nil
}

// unbindSlotKinds removes slot i's datagram-kind demux entries and
// handler (eviction, reprogram for a new tenant, board failure).
func (sh *Shell) unbindSlotKinds(i int) {
	for k, si := range sh.kindSlot {
		if si == i {
			delete(sh.kindSlot, k)
		}
	}
	sh.slots[i].handler = nil
}

// failSlots invalidates every slot on hard failure or power cycle.
func (sh *Shell) failSlots() {
	for i, s := range sh.slots {
		if s.up {
			sh.Tenant.SlotsLoaded.Add(-1)
		}
		s.gen++
		s.up, s.reconf = false, false
		s.tenant, s.used = "", 0
		sh.unbindSlotKinds(i)
	}
}

// SetSlotEgressRate overrides slot i's token-bucket rate and burst
// (bps <= 0 removes shaping).
func (sh *Shell) SetSlotEgressRate(i int, bps int64, burstBytes int) error {
	s, err := sh.slot(i)
	if err != nil {
		return err
	}
	burst := int64(burstBytes) * 8
	if burst <= 0 {
		burst = s.bucket.burst
	}
	s.bucket = tokenBucket{rateBps: bps, burst: burst, tokens: burst, last: sh.sim.Now()}
	return nil
}

// SetServiceHandlerSlot installs slot i's receiver for incoming service
// datagrams of the given kinds, and routes those kinds' ER traversal
// onto the slot's virtual channel. A kind already bound to another slot
// errors and binds none of kinds; binding to the same slot re-registers
// the handler.
func (sh *Shell) SetServiceHandlerSlot(i int, kinds []uint8, h func(fromHost int, kind uint8, payload []byte)) error {
	s, err := sh.slot(i)
	if err != nil {
		return err
	}
	for _, k := range kinds {
		if prev, ok := sh.kindSlot[k]; ok && prev != i {
			return fmt.Errorf("shell %d: datagram kind %d already bound to slot %d", sh.hostID, k, prev)
		}
	}
	for _, k := range kinds {
		sh.kindSlot[k] = i
	}
	s.handler = h
	sh.ensureDgramIngress()
	return nil
}

// SendDatagramSlot sends a service datagram on behalf of slot i's
// tenant: the payload is charged against the slot's egress token bucket
// (isolation: an elephant tenant is paced before its frames reach the
// shared 40G link), then crosses the ER on the slot's virtual channel.
func (sh *Shell) SendDatagramSlot(i int, remoteHost int, kind uint8, payload []byte) error {
	s, err := sh.slot(i)
	if err != nil {
		return err
	}
	if !sh.SlotUp(i) {
		sh.Tenant.DgramsDropped.Inc()
		return fmt.Errorf("shell %d slot %d: slot not serving", sh.hostID, i)
	}
	sh.Tenant.EgressBytes.Add(uint64(len(payload)))
	sh.Stats.DgramsSent.Inc()
	delay := s.bucket.charge(sh.sim.Now(), len(payload))
	if delay <= 0 {
		sh.scratch = appendDgram(sh.scratch, kind, remoteHost, payload)
		sh.termRole.Send(er.PortRemote, s.vc, sh.scratch)
		return nil
	}
	// The throttled path holds the message across the pacing delay, so it
	// needs its own allocation (the scratch buffer would be overwritten).
	msg := encodeDgram(kind, remoteHost, payload)
	sh.Tenant.EgressThrottled.Inc()
	sh.Tenant.EgressWait.Observe(int64(delay))
	vc := s.vc
	sh.sim.Schedule(delay, func() { sh.termRole.Send(er.PortRemote, vc, msg) })
	return nil
}

// ensureDgramIngress installs the engine-side datagram receiver once.
// Incoming datagrams whose kind is bound to a slot traverse the ER on
// that slot's virtual channel; everything else rides VCService to the
// global handler (service.go).
func (sh *Shell) ensureDgramIngress() {
	if sh.dgramIngress {
		return
	}
	sh.dgramIngress = true
	sh.Engine.SetDatagramHandler(func(src pkt.IP, kind uint8, payload []byte) {
		id, ok := netsim.HostID(src)
		if !ok {
			return
		}
		vc := VCService
		if si, ok := sh.kindSlot[kind]; ok {
			vc = sh.slots[si].vc
		}
		sh.scratch = appendDgram(sh.scratch, kind, id, payload)
		sh.termRemote.Send(er.PortRole, vc, sh.scratch)
	})
}

// dispatchSlotDgram delivers an inbound datagram bound to a slot.
// A down or reprogramming slot swallows it — the unavailability window
// of the reconfiguration cost model is visible to clients as loss.
func (sh *Shell) dispatchSlotDgram(si int, from int, kind uint8, payload []byte) {
	s := sh.slots[si]
	if !sh.SlotUp(si) || s.handler == nil {
		sh.Tenant.DgramsDropped.Inc()
		return
	}
	s.handler(from, kind, payload)
}
