package ranking

import (
	"encoding/binary"

	"repro/internal/host"
	"repro/internal/sim"
)

// FPGARole is the FFU+DPF accelerator as a shell role: requests carry a
// serialized feature-stage descriptor, the role queues them on the
// engine, and responds with a fixed-size feature vector blob. It serves
// both the local PCIe path and remote LTL requests — the §III image
// "also had support for execution using remote accelerators".
type FPGARole struct {
	sim *sim.Simulation
	// engine serializes feature jobs like the hardware FFU/DPF pair.
	engine *host.CPU
}

// NewFPGARole builds the role.
func NewFPGARole(s *sim.Simulation) *FPGARole {
	return &FPGARole{sim: s, engine: host.NewCPU(s, 1)}
}

// EncodeRequest serializes a feature-stage request: the engine time and
// the response size the cost model derived from the workload.
func EncodeRequest(p Profile) []byte {
	buf := make([]byte, 12+p.ReqBytes)
	binary.BigEndian.PutUint64(buf, uint64(p.FpgaFeature))
	binary.BigEndian.PutUint32(buf[8:], uint32(p.RespBytes))
	return buf
}

// HandleRequest serves one feature-stage request; loaded into a shell as
// its PCIe handler (a shell.Role) by method value.
func (r *FPGARole) HandleRequest(payload []byte, respond func([]byte)) {
	if len(payload) < 12 {
		respond(nil)
		return
	}
	service := sim.Time(binary.BigEndian.Uint64(payload))
	respBytes := int(binary.BigEndian.Uint32(payload[8:]))
	r.engine.Submit(service, func() {
		respond(make([]byte, respBytes))
	})
}

// Utilization reports the feature engine's utilization.
func (r *FPGARole) Utilization() float64 { return r.engine.Utilization() }
