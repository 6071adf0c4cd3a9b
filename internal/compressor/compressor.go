// Package compressor models the "Expensive compression" workload of
// Fig. 1a as offload economics: a timing model for a hardware DEFLATE
// pipeline versus software, and the table of what a sustained stream
// costs each way.
//
// The economics mirror §VI's crypto/compression discussion: compression
// is a stable, high-volume infrastructure function — exactly the class
// of offload the paper expects to live on the acceleration plane (and
// eventually be hardened).
package compressor

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// CostModel captures software vs hardware compression costs.
type CostModel struct {
	// SwBytesPerSec is a CPU core's DEFLATE throughput (~level 6).
	SwBytesPerSec float64
	// FPGABytesPerSec is the pipeline's throughput (bytes in per second).
	FPGABytesPerSec float64
	// FPGAFixed covers block setup/drain.
	FPGAFixed sim.Time
}

// DefaultCostModel: ~60 MB/s/core software vs a 2.5 GB/s pipeline.
func DefaultCostModel() CostModel {
	return CostModel{
		SwBytesPerSec:   60e6,
		FPGABytesPerSec: 2.5e9,
		FPGAFixed:       3 * sim.Microsecond,
	}
}

// SoftwareTime returns CPU time to compress n bytes.
func (cm CostModel) SoftwareTime(n int) sim.Time {
	return sim.Time(float64(n) / cm.SwBytesPerSec * float64(sim.Second))
}

// FPGATime returns pipeline time to compress n bytes.
func (cm CostModel) FPGATime(n int) sim.Time {
	return cm.FPGAFixed + sim.Time(float64(n)/cm.FPGABytesPerSec*float64(sim.Second))
}

// CoresSaved reports CPU cores freed by offloading a sustained stream.
func (cm CostModel) CoresSaved(streamBps float64) float64 {
	return streamBps / 8 / cm.SwBytesPerSec
}

// Table renders the offload economics for a sustained stream.
func (cm CostModel) Table(streamGbps float64) *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Compression offload at %.0f Gb/s sustained", streamGbps),
		Headers: []string{"metric", "value"},
	}
	t.AddRow("software cores consumed", cm.CoresSaved(streamGbps*1e9))
	t.AddRow("FPGA pipelines needed", streamGbps*1e9/8/cm.FPGABytesPerSec)
	t.AddRow("sw latency 64KB block", cm.SoftwareTime(64<<10).String())
	t.AddRow("fpga latency 64KB block", cm.FPGATime(64<<10).String())
	return t
}
