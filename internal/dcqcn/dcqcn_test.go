package dcqcn

import (
	"testing"

	"repro/internal/sim"
)

func TestStartsAtLineRate(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	if rp.Rate() != LineRateBps {
		t.Fatalf("initial rate %d, want line rate", rp.Rate())
	}
	rp.Stop()
}

func TestCNPDecreasesRate(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	before := rp.Rate()
	rp.OnCNP()
	if rp.Rate() >= before {
		t.Fatalf("rate did not decrease: %d -> %d", before, rp.Rate())
	}
	// First CNP with alpha=1 (EWMA'd once) should cut roughly in half.
	if rp.Rate() > before*3/5 || rp.Rate() < before*2/5 {
		t.Errorf("first decrease = %d, want ~%d/2", rp.Rate(), before)
	}
	rp.Stop()
}

func TestRepeatedCNPsFloorAtMinRate(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	for i := 0; i < 200; i++ {
		rp.OnCNP()
	}
	if rp.Rate() != minRateBps {
		t.Fatalf("rate %d, want floor %d", rp.Rate(), minRateBps)
	}
	if rp.CNPs() != 200 {
		t.Errorf("CNPs = %d", rp.CNPs())
	}
	rp.Stop()
}

func TestRecoveryAfterCongestionClears(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	for i := 0; i < 10; i++ {
		rp.OnCNP()
	}
	low := rp.Rate()
	// Run 50 ms with no further CNPs: fast recovery then additive/hyper
	// increase should restore substantial rate.
	s.RunFor(50 * sim.Millisecond)
	if rp.Rate() <= low {
		t.Fatalf("no recovery: stayed at %d", rp.Rate())
	}
	if rp.Rate() < LineRateBps/2 {
		t.Errorf("after 50ms calm, rate %d < half line rate", rp.Rate())
	}
	// And it must never exceed line rate.
	s.RunFor(200 * sim.Millisecond)
	if rp.Rate() > LineRateBps {
		t.Fatalf("rate %d exceeds line rate", rp.Rate())
	}
	rp.Stop()
}

func TestFastRecoveryHalvesDistance(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	rp.OnCNP()
	rc, rt := rp.rc, rp.rt
	rp.increase()
	want := (rc + rt) / 2
	if rp.rc != want {
		t.Fatalf("fast recovery: rc = %d, want %d", rp.rc, want)
	}
	rp.Stop()
}

func TestNoIncreaseBeforeFirstCNP(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	s.RunFor(10 * sim.Millisecond)
	if rp.Rate() != LineRateBps {
		t.Fatalf("rate drifted without congestion: %d", rp.Rate())
	}
	rp.Stop()
}

func TestAlphaDecaysWhenCalm(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	rp.OnCNP()
	a0 := rp.alpha
	s.RunFor(10 * alphaTimer)
	if rp.alpha >= a0 {
		t.Fatalf("alpha did not decay: %f -> %f", a0, rp.alpha)
	}
	rp.Stop()
}

func TestSecondCNPLessSevereAfterCalm(t *testing.T) {
	// After alpha decays, a single CNP cuts the rate by less than half.
	s := sim.New(1)
	rp := NewReactionPoint(s)
	rp.OnCNP()
	s.RunFor(100 * alphaTimer) // alpha decays substantially
	before := rp.Rate()
	rp.OnCNP()
	cut := float64(before-rp.Rate()) / float64(before)
	if cut > 0.4 {
		t.Fatalf("decrease after calm = %.2f of rate, want gentle (<0.4)", cut)
	}
	rp.Stop()
}

func TestNotificationPointPacing(t *testing.T) {
	s := sim.New(1)
	np := NewNotificationPoint(s)
	if !np.OnMarkedPacket(1) {
		t.Fatal("first marked packet must produce a CNP")
	}
	for i := 0; i < 10; i++ {
		if np.OnMarkedPacket(1) {
			t.Fatal("CNP sent within pacing interval")
		}
	}
	s.RunFor(cnpInterval)
	if !np.OnMarkedPacket(1) {
		t.Fatal("CNP suppressed after pacing interval elapsed")
	}
	if np.CNPsSent() != 2 {
		t.Errorf("CNPsSent = %d, want 2", np.CNPsSent())
	}
}

func TestNotificationPointPerFlow(t *testing.T) {
	s := sim.New(1)
	np := NewNotificationPoint(s)
	if !np.OnMarkedPacket(1) || !np.OnMarkedPacket(2) {
		t.Fatal("distinct flows must be paced independently")
	}
}

func TestStopHaltsTimers(t *testing.T) {
	s := sim.New(1)
	rp := NewReactionPoint(s)
	rp.OnCNP()
	rp.Stop()
	r := rp.Rate()
	s.RunFor(50 * sim.Millisecond)
	if rp.Rate() != r {
		t.Fatalf("rate changed after Stop: %d -> %d", r, rp.Rate())
	}
	if s.Pending() > 2 {
		t.Errorf("timers still pending after Stop: %d", s.Pending())
	}
}
