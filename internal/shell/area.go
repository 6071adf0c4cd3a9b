package shell

import (
	"fmt"

	"repro/internal/metrics"
)

// AreaEntry is one row of the shell's area and clock-frequency breakdown
// (Fig. 5): the production-deployed image with remote acceleration
// support on the Altera Stratix V D5 (172,600 ALMs).
type AreaEntry struct {
	Component string
	ALMs      int
	MHz       int  // 0 for rows without a published clock
	Shell     bool // part of the shell (vs. the Role)
}

// TotalALMs is the Stratix V D5's programmable-logic capacity.
const TotalALMs = 172600

// AreaBreakdown returns the Fig. 5 rows. ALM counts sum to the paper's
// 131,350 used (76%); shell components alone are 44% of the device.
func AreaBreakdown() []AreaEntry {
	return []AreaEntry{
		{"Role (FFU/DPF application logic)", 55340, 175, false},
		{"40G MAC/PHY (TOR)", 9785, 313, true},
		{"40G MAC/PHY (NIC)", 13122, 313, true},
		{"Network Bridge / Bypass", 4685, 313, true},
		{"DDR3 Memory Controller", 13225, 200, true},
		{"Elastic Router", 3449, 156, true},
		{"LTL Protocol Engine", 11839, 156, true},
		{"LTL Packet Switch", 4815, 156, true},
		{"PCIe Gen3 DMA x 2", 6817, 250, true},
		{"Other shell functions", 8273, 0, true},
	}
}

// AreaUsed sums all component ALMs.
func AreaUsed() int {
	n := 0
	for _, e := range AreaBreakdown() {
		n += e.ALMs
	}
	return n
}

// ShellALMs sums shell-only ALMs (excludes the role).
func ShellALMs() int {
	n := 0
	for _, e := range AreaBreakdown() {
		if e.Shell {
			n += e.ALMs
		}
	}
	return n
}

// AreaTable renders the Fig. 5 reproduction.
func AreaTable() *metrics.Table {
	t := &metrics.Table{
		Title:   "Fig. 5 — Shell area and frequency breakdown (Stratix V D5)",
		Headers: []string{"Component", "ALMs", "% of device", "MHz"},
	}
	for _, e := range AreaBreakdown() {
		mhz := "-"
		if e.MHz > 0 {
			mhz = fmt.Sprint(e.MHz)
		}
		t.AddRow(e.Component, e.ALMs, fmt.Sprintf("%d%%", pctOfDevice(e.ALMs)), mhz)
	}
	t.AddRow("Total Area Used", AreaUsed(), fmt.Sprintf("%d%%", pctOfDevice(AreaUsed())), "-")
	t.AddRow("Total Area Available", TotalALMs, "100%", "-")
	return t
}

func pctOfDevice(alms int) int {
	return int(float64(alms)/float64(TotalALMs)*100 + 0.5)
}
