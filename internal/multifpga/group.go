package multifpga

import (
	"encoding/binary"
	"fmt"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/shell"
	"repro/internal/sim"
)

// Group is the scatter/gather shape of multi-FPGA services: a coordinator
// FPGA partitions each request across N worker FPGAs (model-parallel
// machine learning — "large-scale machine learning" consuming more than
// one FPGA, §V), and gathers the partial results. All hops are LTL; no
// CPU touches the data.
type Group struct {
	sim     *sim.Simulation
	coord   *shell.Shell
	workers []*shell.Shell
	w       wiring

	work    Stage // identical logic on every worker
	queues  []*host.CPU
	pending map[uint64]*gatherState
	nextID  uint64

	// Latency is scatter -> last partial gathered.
	Latency   *metrics.Histogram
	Completed metrics.Counter
}

type gatherState struct {
	at       sim.Time
	parts    [][]byte
	received []bool
	missing  int
	done     func(parts [][]byte)
}

// NewGroup wires a coordinator to workers. work.Service is the per-worker
// accelerator time per partial; work.Transform is applied to each shard.
func NewGroup(s *sim.Simulation, coord *shell.Shell, workers []*shell.Shell, work Stage, connBase uint16) (*Group, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("multifpga: group needs workers")
	}
	g := &Group{
		sim: s, coord: coord, workers: workers, w: wiring{connBase},
		work:    work,
		pending: make(map[uint64]*gatherState),
		Latency: metrics.NewHistogram(),
	}
	for wi, wk := range workers {
		wi, wk := wi, wk
		g.queues = append(g.queues, host.NewCPU(s, 1))
		down := g.w.into(wi) // coord -> worker wi
		up := g.w.backToClient() + uint16(wi)
		if err := wk.OpenRemoteRecv(down, coord.HostID(), g.workerHandler(wi)); err != nil {
			return nil, err
		}
		if err := coord.OpenRemoteSend(down, wk.HostID(), down, nil); err != nil {
			return nil, err
		}
		if err := coord.OpenRemoteRecv(up, wk.HostID(), g.gatherHandler(wi)); err != nil {
			return nil, err
		}
		if err := wk.OpenRemoteSend(up, coord.HostID(), up, nil); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Workers returns the group size.
func (g *Group) Workers() int { return len(g.workers) }

// Scatter partitions payload evenly across workers and gathers the
// transformed shards; done receives the ordered parts.
func (g *Group) Scatter(payload []byte, done func(parts [][]byte)) {
	g.nextID++
	id := g.nextID
	n := len(g.workers)
	g.pending[id] = &gatherState{
		at: g.sim.Now(), parts: make([][]byte, n),
		received: make([]bool, n), missing: n, done: done,
	}
	per := (len(payload) + n - 1) / n
	for wi := 0; wi < n; wi++ {
		lo := wi * per
		hi := lo + per
		if lo > len(payload) {
			lo = len(payload)
		}
		if hi > len(payload) {
			hi = len(payload)
		}
		shard := payload[lo:hi]
		msg := make([]byte, 8+len(shard))
		binary.BigEndian.PutUint64(msg, id)
		copy(msg[8:], shard)
		g.coord.SendRemote(g.w.into(wi), msg, nil)
	}
}

// workerHandler runs the shard through the worker's engine and replies.
func (g *Group) workerHandler(wi int) func([]byte) {
	return func(msg []byte) {
		if len(msg) < 8 {
			return
		}
		id := binary.BigEndian.Uint64(msg)
		// The payload is only valid during this call; the worker's queue
		// holds it until service.
		body := append([]byte(nil), msg[8:]...)
		g.queues[wi].Submit(g.work.timeFor(len(body)), func() {
			out := body
			if g.work.Transform != nil {
				out = g.work.Transform(body)
			}
			reply := make([]byte, 8+len(out))
			binary.BigEndian.PutUint64(reply, id)
			copy(reply[8:], out)
			g.workers[wi].SendRemote(g.w.backToClient()+uint16(wi), reply, nil)
		})
	}
}

// gatherHandler collects partials at the coordinator.
func (g *Group) gatherHandler(wi int) func([]byte) {
	return func(msg []byte) {
		if len(msg) < 8 {
			return
		}
		id := binary.BigEndian.Uint64(msg)
		st, ok := g.pending[id]
		if !ok || st.received[wi] {
			return
		}
		st.received[wi] = true
		st.parts[wi] = append([]byte(nil), msg[8:]...)
		st.missing--
		if st.missing == 0 {
			delete(g.pending, id)
			g.Completed.Inc()
			g.Latency.Observe(int64(g.sim.Now() - st.at))
			if st.done != nil {
				st.done(st.parts)
			}
		}
	}
}
