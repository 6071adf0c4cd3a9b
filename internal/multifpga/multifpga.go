// Package multifpga implements multi-FPGA hardware services: pipelines of
// accelerator stages spread across FPGAs that pass work directly over LTL
// with no CPU in the loop — the capability the paper's remote
// acceleration model exists to enable ("to deploy services that consume
// more than one FPGA (e.g. more aggressive web search ranking,
// large-scale machine learning, and bioinformatics), communication among
// FPGAs is crucial", §V).
//
// A Pipeline maps stages onto shells, wires stage-to-stage LTL
// connections, queues work at each stage's accelerator, and returns
// results to the submitting client's FPGA. Stages can be replaced at
// runtime (HaaS-driven repair) without losing subsequent traffic.
package multifpga

import (
	"encoding/binary"
	"fmt"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/shell"
	"repro/internal/sim"
)

// Stage describes one pipeline step.
type Stage struct {
	Name string
	// Service is the fixed accelerator time per request at this stage.
	Service sim.Time
	// ServicePerByte adds size-dependent engine time (0 for fixed-cost
	// stages).
	ServicePerByte sim.Time
	// Transform optionally rewrites the payload as it passes (the
	// functional work); nil passes it through.
	Transform func(payload []byte) []byte
}

// timeFor returns the engine time for a payload of n bytes.
func (st Stage) timeFor(n int) sim.Time {
	return st.Service + st.ServicePerByte*sim.Time(n)
}

// connection id plan: the connection into stage i (from the client when
// i == 0, else from stage i-1) uses base+i, and last->client uses
// base+0x100. All ids live on the involved engines' private tables, so
// multiple pipelines can coexist with different bases.
type wiring struct{ base uint16 }

func (w wiring) into(stage int) uint16 { return w.base + uint16(stage) }
func (w wiring) toClient() uint16      { return w.base + 0x100 }

// Pipeline is a deployed multi-FPGA service instance.
type Pipeline struct {
	sim    *sim.Simulation
	stages []Stage
	shells []*shell.Shell // one per stage
	client *shell.Shell
	w      wiring

	queues []*host.CPU // per-stage accelerator queue

	pending map[uint64]pendingReq
	nextID  uint64

	// Latency records submit -> result arrival at the client FPGA.
	Latency   *metrics.Histogram
	Completed metrics.Counter
	Dropped   metrics.Counter
}

type pendingReq struct {
	at   sim.Time
	done func(result []byte)
}

// New deploys stages onto the given shells (len(shells) == len(stages))
// with client as the submitting FPGA. connBase must be unique per
// pipeline per engine.
func New(s *sim.Simulation, client *shell.Shell, shells []*shell.Shell, stages []Stage, connBase uint16) (*Pipeline, error) {
	if len(shells) != len(stages) || len(stages) == 0 {
		return nil, fmt.Errorf("multifpga: %d shells for %d stages", len(shells), len(stages))
	}
	p := &Pipeline{
		sim: s, stages: stages, shells: shells, client: client,
		w:       wiring{connBase},
		pending: make(map[uint64]pendingReq),
		Latency: metrics.NewHistogram(),
	}
	for range stages {
		p.queues = append(p.queues, host.NewCPU(s, 1))
	}

	// client -> stage 0
	if err := shells[0].OpenRemoteRecv(p.w.into(0), client.HostID(), p.stageHandler(0)); err != nil {
		return nil, err
	}
	if err := client.OpenRemoteSend(p.w.into(0), shells[0].HostID(), p.w.into(0), nil); err != nil {
		return nil, err
	}
	// stage i -> stage i+1
	for i := 0; i+1 < len(stages); i++ {
		conn := p.w.into(i + 1)
		if err := shells[i+1].OpenRemoteRecv(conn, shells[i].HostID(), p.stageHandler(i+1)); err != nil {
			return nil, err
		}
		if err := shells[i].OpenRemoteSend(conn, shells[i+1].HostID(), conn, nil); err != nil {
			return nil, err
		}
	}
	// last stage -> client
	last := len(stages) - 1
	if err := client.OpenRemoteRecv(p.w.toClient(), shells[last].HostID(), p.onResult); err != nil {
		return nil, err
	}
	if err := shells[last].OpenRemoteSend(p.w.toClient(), client.HostID(), p.w.toClient(), nil); err != nil {
		return nil, err
	}
	return p, nil
}

// Stages returns the stage count.
func (p *Pipeline) Stages() int { return len(p.stages) }

// StageShell returns the shell serving stage i.
func (p *Pipeline) StageShell(i int) *shell.Shell { return p.shells[i] }

// Submit sends payload through the pipeline; done receives the final
// transformed payload when the result lands back at the client FPGA.
func (p *Pipeline) Submit(payload []byte, done func(result []byte)) {
	p.nextID++
	id := p.nextID
	p.pending[id] = pendingReq{at: p.sim.Now(), done: done}
	msg := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(msg, id)
	copy(msg[8:], payload)
	p.client.SendRemote(p.w.into(0), msg, nil)
}

// stageHandler returns the LTL receive handler for stage i: queue at the
// accelerator, apply the transform, forward.
func (p *Pipeline) stageHandler(i int) func(payload []byte) {
	return func(msg []byte) {
		if len(msg) < 8 {
			p.Dropped.Inc()
			return
		}
		id := binary.BigEndian.Uint64(msg)
		// The payload is only valid during this call; the stage's queue
		// holds it until service.
		body := append([]byte(nil), msg[8:]...)
		p.queues[i].Submit(p.stages[i].timeFor(len(body)), func() {
			out := body
			if p.stages[i].Transform != nil {
				out = p.stages[i].Transform(body)
			}
			fwd := make([]byte, 8+len(out))
			binary.BigEndian.PutUint64(fwd, id)
			copy(fwd[8:], out)
			if i+1 < len(p.stages) {
				p.shells[i].SendRemote(p.w.into(i+1), fwd, nil)
			} else {
				p.shells[i].SendRemote(p.w.toClient(), fwd, nil)
			}
		})
	}
}

// onResult completes a request at the client.
func (p *Pipeline) onResult(msg []byte) {
	if len(msg) < 8 {
		p.Dropped.Inc()
		return
	}
	id := binary.BigEndian.Uint64(msg)
	req, ok := p.pending[id]
	if !ok {
		p.Dropped.Inc()
		return
	}
	delete(p.pending, id)
	p.Completed.Inc()
	p.Latency.Observe(int64(p.sim.Now() - req.at))
	if req.done != nil {
		req.done(append([]byte(nil), msg[8:]...))
	}
}

// ReplaceStage swaps stage i onto a new shell (HaaS repair after a
// failure). Connections around the stage are re-allocated; requests in
// flight through the dead stage are lost (LTL failure detection at the
// neighbors is the paper's trigger for this call), but subsequent traffic
// flows through the replacement.
func (p *Pipeline) ReplaceStage(i int, fresh *shell.Shell) error {
	old := p.shells[i]
	// Tear down old connections touching stage i.
	if i == 0 {
		p.client.Engine.Close(p.w.into(0))
	} else {
		p.shells[i-1].Engine.Close(p.w.into(i))
	}
	old.Engine.Close(p.w.into(i)) // its recv side
	if i+1 < len(p.stages) {
		old.Engine.Close(p.w.into(i + 1))
		p.shells[i+1].Engine.Close(p.w.into(i + 1))
	} else {
		old.Engine.Close(p.w.toClient())
		p.client.Engine.Close(p.w.toClient())
	}

	p.shells[i] = fresh
	p.queues[i] = host.NewCPU(p.sim, 1)

	// Rewire inbound.
	if i == 0 {
		if err := fresh.OpenRemoteRecv(p.w.into(0), p.client.HostID(), p.stageHandler(0)); err != nil {
			return err
		}
		if err := p.client.OpenRemoteSend(p.w.into(0), fresh.HostID(), p.w.into(0), nil); err != nil {
			return err
		}
	} else {
		conn := p.w.into(i)
		if err := fresh.OpenRemoteRecv(conn, p.shells[i-1].HostID(), p.stageHandler(i)); err != nil {
			return err
		}
		if err := p.shells[i-1].OpenRemoteSend(conn, fresh.HostID(), conn, nil); err != nil {
			return err
		}
	}
	// Rewire outbound.
	if i+1 < len(p.stages) {
		conn := p.w.into(i + 1)
		if err := p.shells[i+1].OpenRemoteRecv(conn, fresh.HostID(), p.stageHandler(i+1)); err != nil {
			return err
		}
		if err := fresh.OpenRemoteSend(conn, p.shells[i+1].HostID(), conn, nil); err != nil {
			return err
		}
	} else {
		if err := p.client.OpenRemoteRecv(p.w.toClient(), fresh.HostID(), p.onResult); err != nil {
			return err
		}
		if err := fresh.OpenRemoteSend(p.w.toClient(), p.client.HostID(), p.w.toClient(), nil); err != nil {
			return err
		}
	}
	return nil
}
