package svclb

import (
	"testing"

	"repro/internal/sim"
)

// TestSlotModeConservesAndFailsOver runs the balancer with backends
// leased as vFPGA slot claims instead of whole boards: traffic must
// conserve exactly as in whole-node mode, a mid-run board kill must be
// masked by re-leasing a slot on a spare board, and the HaaS pool must
// report slot-level occupancy.
func TestSlotModeConservesAndFailsOver(t *testing.T) {
	cfg := quickConfig()
	cfg.Clients = 32
	cfg.Policy = PolicyP2C
	cfg.SlotALMs = 40000
	cfg.KillAt = cfg.Warmup + 40*sim.Millisecond + 100*sim.Microsecond
	r := Run(cfg)
	if r.Offered == 0 || r.Completed == 0 {
		t.Fatalf("no traffic: %+v", r)
	}
	if r.Admitted != r.Completed {
		t.Fatalf("admitted %d but completed %d (client-visible loss)", r.Admitted, r.Completed)
	}
	if r.Failovers == 0 {
		t.Fatalf("board kill not detected: %+v", r)
	}
	if r.FinalBackends != cfg.FPGAs {
		t.Fatalf("pool not restored: %d backends, want %d", r.FinalBackends, cfg.FPGAs)
	}
}

// TestSlotModeDeterministic: slot-mode runs replay bit-identically.
func TestSlotModeDeterministic(t *testing.T) {
	cfg := quickConfig()
	cfg.SlotALMs = 40000
	a, b := Run(cfg), Run(cfg)
	if a != b {
		t.Fatalf("slot-mode runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestSlotModePoolAccounting: each backend occupies exactly one slot on
// a distinct board, leaving the boards' second slots free for other
// tenants.
func TestSlotModePoolAccounting(t *testing.T) {
	cfg := quickConfig()
	cfg.SlotALMs = 40000
	sv := NewService(cfg)
	b := sv.b
	used, total, usedALMs, _ := b.Pool.RM().SlotPoolStats()
	if used != cfg.FPGAs {
		t.Errorf("slots used = %d, want %d", used, cfg.FPGAs)
	}
	if want := (cfg.FPGAs + cfg.Spares) * 2; total != want {
		t.Errorf("slots total = %d, want %d", total, want)
	}
	if want := cfg.FPGAs * cfg.SlotALMs; usedALMs != want {
		t.Errorf("ALMs used = %d, want %d", usedALMs, want)
	}
	if got := b.Pool.RM().SlotBoardsInUse(); got != cfg.FPGAs {
		t.Errorf("boards in use = %d, want %d (one slot per board)", got, cfg.FPGAs)
	}
	sv.Stop()
}
