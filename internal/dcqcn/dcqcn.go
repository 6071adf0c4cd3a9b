// Package dcqcn implements the DC-QCN end-to-end congestion control
// scheme (Zhu et al., SIGCOMM 2015) that the paper's LTL engine adopts
// (§V-A): switches ECN-mark packets as queues build, the notification
// point (receiver) converts marks into paced Congestion Notification
// Packets (CNPs), and the reaction point (sender) multiplicatively
// decreases its sending rate on CNP arrival and recovers through fast
// recovery, additive increase, and hyper increase stages.
package dcqcn

import (
	"repro/internal/sim"
)

// The DCQCN constants follow the published parameterization scaled to
// the paper's 40 Gb/s line rate (§V-A).
const (
	// LineRateBps is the port rate a flow starts at and recovers to.
	LineRateBps int64 = 40e9
	minRateBps  int64 = 10e6
	// g is the alpha EWMA gain (1/256 in the paper).
	g = 1.0 / 256
	// alphaTimer is the interval without CNPs after which alpha decays.
	alphaTimer = 55 * sim.Microsecond
	// increaseTimer drives rate-increase stages.
	increaseTimer = 300 * sim.Microsecond
	// fastRecoverySteps is the number of increase events spent in fast
	// recovery before additive increase begins.
	fastRecoverySteps = 5
	// aiRateBps is the additive increase step.
	aiRateBps int64 = 40e6
	// hyperAIRateBps is the hyper increase step after prolonged calm.
	hyperAIRateBps int64 = 400e6
	// hyperThreshold is the number of consecutive additive stages before
	// hyper increase engages.
	hyperThreshold = 5
	// cnpInterval is the notification point's minimum gap between CNPs
	// for one flow.
	cnpInterval = 50 * sim.Microsecond
)

// ReactionPoint is the sender-side rate controller for one flow.
type ReactionPoint struct {
	s *sim.Simulation

	rc, rt     int64 // current and target rate, bps
	alpha      float64
	stage      int // increase events since last CNP
	lastCNP    sim.Time
	alphaTick  *sim.Ticker
	incTick    *sim.Ticker
	cnpsSeen   uint64
	decreases  uint64
	stopped    bool
	sawCNPOnce bool
}

// NewReactionPoint starts a reaction point at full line rate. Its
// alpha-decay and rate-increase timers stay dormant until the first CNP
// arrives: an uncongested flow costs no simulation events.
func NewReactionPoint(s *sim.Simulation) *ReactionPoint {
	return &ReactionPoint{
		s:  s,
		rc: LineRateBps, rt: LineRateBps,
		alpha: 1,
	}
}

// armTimers starts the periodic state machines (idempotent).
func (rp *ReactionPoint) armTimers() {
	if rp.stopped || rp.alphaTick != nil {
		return
	}
	rp.alphaTick = rp.s.Every(alphaTimer, alphaTimer, rp.alphaUpdate)
	rp.incTick = rp.s.Every(increaseTimer, increaseTimer, rp.increase)
}

// Stop cancels the controller's timers.
func (rp *ReactionPoint) Stop() {
	rp.stopped = true
	if rp.alphaTick != nil {
		rp.alphaTick.Stop()
		rp.incTick.Stop()
	}
}

// Rate returns the current permitted sending rate in bits per second.
func (rp *ReactionPoint) Rate() int64 { return rp.rc }

// CNPs returns how many congestion notifications have been processed.
func (rp *ReactionPoint) CNPs() uint64 { return rp.cnpsSeen }

// OnCNP applies the multiplicative decrease for one received CNP.
func (rp *ReactionPoint) OnCNP() {
	rp.armTimers()
	rp.cnpsSeen++
	rp.decreases++
	rp.sawCNPOnce = true
	rp.lastCNP = rp.s.Now()
	rp.rt = rp.rc
	rp.alpha = (1-g)*rp.alpha + g
	rp.rc = int64(float64(rp.rc) * (1 - rp.alpha/2))
	if rp.rc < minRateBps {
		rp.rc = minRateBps
	}
	rp.stage = 0
}

// alphaUpdate decays alpha when no CNP arrived in the last window.
func (rp *ReactionPoint) alphaUpdate() {
	if rp.s.Now()-rp.lastCNP >= alphaTimer {
		rp.alpha = (1 - g) * rp.alpha
	}
}

// disarmTimers quiesces the periodic state machines once the flow is back
// at line rate; a future CNP re-arms them.
func (rp *ReactionPoint) disarmTimers() {
	if rp.alphaTick != nil {
		rp.alphaTick.Stop()
		rp.incTick.Stop()
		rp.alphaTick, rp.incTick = nil, nil
	}
}

// increase advances the recovery state machine one stage.
func (rp *ReactionPoint) increase() {
	if !rp.sawCNPOnce || rp.rc >= LineRateBps {
		rp.disarmTimers()
		return
	}
	rp.stage++
	switch {
	case rp.stage <= fastRecoverySteps:
		// Fast recovery: halve the distance to the target rate.
	case rp.stage <= fastRecoverySteps+hyperThreshold:
		rp.rt += aiRateBps
	default:
		rp.rt += hyperAIRateBps
	}
	if rp.rt > LineRateBps {
		rp.rt = LineRateBps
	}
	rp.rc = (rp.rc + rp.rt) / 2
	if rp.rc > LineRateBps {
		rp.rc = LineRateBps
	}
}

// NotificationPoint is the receiver-side CNP pacer: at most one CNP per
// flow per cnpInterval, regardless of how many marked packets arrive.
type NotificationPoint struct {
	s       *sim.Simulation
	lastCNP map[uint64]sim.Time
	sent    uint64
}

// NewNotificationPoint creates a pacer.
func NewNotificationPoint(s *sim.Simulation) *NotificationPoint {
	return &NotificationPoint{s: s, lastCNP: make(map[uint64]sim.Time)}
}

// OnMarkedPacket reports an ECN-CE data packet for a flow; it returns true
// when a CNP should be emitted now.
func (np *NotificationPoint) OnMarkedPacket(flow uint64) bool {
	now := np.s.Now()
	if last, ok := np.lastCNP[flow]; ok && now-last < cnpInterval {
		return false
	}
	np.lastCNP[flow] = now
	np.sent++
	return true
}

// CNPsSent returns the total CNPs the pacer allowed.
func (np *NotificationPoint) CNPsSent() uint64 { return np.sent }
