package compressor

import (
	"strings"
	"testing"
)

func TestCostModel(t *testing.T) {
	cm := DefaultCostModel()
	// 40 Gb/s of compression in software ≈ dozens of cores; the paper's
	// economics argument.
	cores := cm.CoresSaved(40e9)
	if cores < 40 {
		t.Fatalf("cores for 40Gb/s = %.1f, expected expensive", cores)
	}
	if cm.FPGATime(64<<10) >= cm.SoftwareTime(64<<10) {
		t.Fatal("FPGA not faster than software")
	}
}

func TestTableRendering(t *testing.T) {
	out := DefaultCostModel().Table(40).String()
	if !strings.Contains(out, "software cores") || !strings.Contains(out, "64KB") {
		t.Fatalf("table:\n%s", out)
	}
}
