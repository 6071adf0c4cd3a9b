// Package dnnpool reproduces the oversubscription study of §V-E
// (Fig. 12): a small pool of latency-sensitive DNN accelerators is shared
// by multiple software clients in a production datacenter. Each client
// sends synthetic traffic at a rate several times higher than the
// expected per-client deployment throughput; the client:FPGA ratio is
// swept upward (by removing FPGAs from the pool) to find where queueing
// makes latencies spike — the paper finds each FPGA sustains ~22.5 such
// clients.
//
// The remote path is fully packet-level: client -> PCIe -> local shell ->
// LTL over the simulated fabric -> pool FPGA work queue -> DNN service ->
// LTL back -> PCIe -> client. The locally-attached baseline replaces the
// network hops with the PCIe path alone.
package dnnpool

import (
	"encoding/binary"
	"fmt"

	"repro/internal/haas"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pkt"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/svclb"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Config parameterizes one oversubscription measurement.
type Config struct {
	Seed    int64
	Clients int
	FPGAs   int
	// ServiceTime is the DNN evaluation time per request.
	ServiceTime sim.Time
	// ClientRate is each client's request rate (req/s) — "several times
	// higher than the expected throughput per client in deployment".
	ClientRate float64
	ReqBytes   int
	RespBytes  int
	Duration   sim.Time
	Warmup     sim.Time
}

// DefaultConfig calibrates the knee at ~22.5 clients per FPGA:
// capacity = 1/ServiceTime = 4000 req/s; 4000 / 177.8 = 22.5.
func DefaultConfig() Config {
	return Config{
		Seed:        3,
		Clients:     24,
		FPGAs:       24,
		ServiceTime: 250 * sim.Microsecond,
		ClientRate:  177.8,
		ReqBytes:    16 << 10,
		RespBytes:   1 << 10,
		Duration:    1 * sim.Second,
		Warmup:      100 * sim.Millisecond,
	}
}

// KneeClientsPerFPGA returns the analytic saturation ratio for cfg.
func (cfg Config) KneeClientsPerFPGA() float64 {
	return 1 / (cfg.ServiceTime.Seconds() * cfg.ClientRate)
}

// Result is one point of Fig. 12.
type Result struct {
	Ratio     float64 // clients per FPGA
	Avg       sim.Time
	P95       sim.Time
	P99       sim.Time
	Completed uint64
	// PoolHostCPUJobs counts CPU work observed on pool hosts — the paper
	// reports serving remote requests leaves the host untouched.
	PoolHostCPUJobs uint64
}

// RunRemote measures the remote pool at cfg's client:FPGA ratio.
func RunRemote(cfg Config) Result {
	s, dc, shells := svclb.Standalone(cfg.Seed, false, 0)

	// Clients fill TORs starting at host 0; the pool lives on the next
	// TORs of the same pod (requests cross the L1 tier, as a real global
	// pool's would).
	clientHosts := make([]int, cfg.Clients)
	for i := range clientHosts {
		clientHosts[i] = i
		dc.Host(i)
	}
	poolHosts := make([]int, cfg.FPGAs)
	perTOR := dc.Config().HostsPerTOR
	base := ((cfg.Clients + perTOR - 1) / perTOR) * perTOR
	for i := range poolHosts {
		poolHosts[i] = base + i
		dc.Host(base + i)
	}

	// HaaS manages the pool: one service pool leases all pool FPGAs. The
	// data path runs through OpenRemoteRecv handlers, so the role image
	// takes no PCIe requests.
	rm := haas.NewResourceManager(s, haas.RMConfig{})
	for _, h := range poolHosts {
		h := h
		rm.Register(&haas.FPGAManager{
			Node:      haas.NodeID(h),
			Configure: func(string) { shells[h].LoadRole(nil) },
			Healthy:   func() bool { return true },
		})
	}
	pool := haas.NewPool(rm, haas.PoolSpec{Tenant: "dnn", Image: "dnn-v1"})
	for range cfg.FPGAs {
		if _, err := pool.Grow(); err != nil {
			panic(fmt.Sprintf("dnnpool: %v", err))
		}
	}
	members := pool.Members()

	// Accelerator work queues (one in-order engine per pool FPGA).
	queues := map[int]*host.CPU{}
	for _, h := range poolHosts {
		queues[h] = host.NewCPU(s, 1)
	}

	// Wire LTL connections: client c <-> pool member f.
	// client send conn: local f+1, remote c+1; response path mirrored at
	// +1000.
	for ci, ch := range clientHosts {
		for fi, fh := range poolHosts {
			ci, fh := ci, fh
			cs, fs := shells[ch], shells[fh]
			sim.Must(cs.OpenRemoteSend(uint16(fi)+1, fh, uint16(ci)+1))
			sim.Must(fs.OpenRemoteSend(uint16(ci)+1000, ch, uint16(fi)+1000))
			sim.Must(fs.OpenRemoteRecv(uint16(ci)+1, ch, func(payload []byte) {
				// DNN work queue: service then respond over LTL.
				reqID := binary.BigEndian.Uint64(payload)
				queues[fh].Submit(cfg.ServiceTime, func() {
					resp := make([]byte, cfg.RespBytes)
					binary.BigEndian.PutUint64(resp, reqID)
					fs.SendRemote(uint16(ci)+1000, resp, nil)
				})
			}))
		}
	}

	lat := metrics.NewHistogram()
	obs.RegistryOf(s).Histogram("dnnpool.latency", "ns", "dnnpool", "remote-pool request latency", lat)

	// Map a HaaS node id back to a pool index for connection addressing.
	poolIndex := map[haas.NodeID]int{}
	for fi, fh := range poolHosts {
		poolIndex[haas.NodeID(fh)] = fi
	}

	// Production datacenter background: other tenants' lossless (RDMA)
	// traffic shares the L1/L2 switches, giving remote accesses a genuine
	// network tail.
	dc.StartBackgroundLoad(0.05, pkt.ClassRDMA, 1400)

	nextReq := uint64(0)
	for ci, ch := range clientHosts {
		cs := shells[ch]
		pending := map[uint64]sim.Time{} // request id -> start time
		for fi := range poolHosts {
			fi := fi
			sim.Must(cs.OpenRemoteRecv(uint16(fi)+1000, poolHosts[fi], func(payload []byte) {
				reqID := binary.BigEndian.Uint64(payload)
				t0, ok := pending[reqID]
				if !ok {
					return
				}
				delete(pending, reqID)
				s.Schedule(shell.PCIeTime(cfg.RespBytes), func() {
					if t0 >= cfg.Warmup {
						lat.Observe(int64(s.Now() - t0))
					}
				})
			}))
		}
		// The SM hands each client a pointer to one pool member ("A SM
		// provides pointers to the hardware service to one or more end
		// users"), round-robin; oversubscription is the number of
		// clients sharing each pointer.
		assigned := poolIndex[members[ci%len(members)].Node]
		gen := workload.NewOpenLoop(s, cfg.ClientRate, func() {
			nextReq++
			reqID := nextReq
			pending[reqID] = s.Now()
			req := make([]byte, cfg.ReqBytes)
			binary.BigEndian.PutUint64(req, reqID)
			s.Schedule(shell.PCIeTime(cfg.ReqBytes), func() {
				cs.SendRemote(uint16(assigned)+1, req, nil)
			})
		})
		gen.Start()
	}

	s.RunUntil(cfg.Warmup + cfg.Duration)
	rm.Stop()

	// "The host sees no increase in CPU or memory utilization": pool host
	// software never receives a frame — LTL terminates in the shell.
	var poolHostFrames uint64
	for _, fh := range poolHosts {
		poolHostFrames += dc.Host(fh).Received.Value()
	}
	return Result{
		Ratio:           float64(cfg.Clients) / float64(cfg.FPGAs),
		Avg:             sim.Time(int64(lat.Mean())),
		P95:             sim.Time(lat.Percentile(95)),
		P99:             sim.Time(lat.Percentile(99)),
		Completed:       lat.Count(),
		PoolHostCPUJobs: poolHostFrames,
	}
}

// RunLocalBaseline measures the same clients with dedicated
// locally-attached accelerators (1:1, PCIe only) — the normalization
// denominator of Fig. 12.
func RunLocalBaseline(cfg Config) Result {
	s := sim.New(cfg.Seed)
	lat := metrics.NewHistogram()
	obs.RegistryOf(s).Histogram("dnnpool.latency", "ns", "dnnpool", "local-baseline request latency", lat)
	for c := 0; c < cfg.Clients; c++ {
		queue := host.NewCPU(s, 1) // dedicated accelerator
		gen := workload.NewOpenLoop(s, cfg.ClientRate, func() {
			t0 := s.Now()
			s.Schedule(shell.PCIeTime(cfg.ReqBytes), func() {
				queue.Submit(cfg.ServiceTime, func() {
					s.Schedule(shell.PCIeTime(cfg.RespBytes), func() {
						if t0 >= cfg.Warmup {
							lat.Observe(int64(s.Now() - t0))
						}
					})
				})
			})
		})
		gen.Start()
	}
	s.RunUntil(cfg.Warmup + cfg.Duration)
	return Result{
		Ratio: 1,
		Avg:   sim.Time(int64(lat.Mean())),
		P95:   sim.Time(lat.Percentile(95)),
		P99:   sim.Time(lat.Percentile(99)),

		Completed: lat.Count(),
	}
}

// Fig12 sweeps oversubscription ratios by shrinking the pool and returns
// (baseline, points). The baseline and every pool size are independent
// simulations, so all of them fan out across cores at once; points come
// back in fpgaCounts order.
func Fig12(base Config, fpgaCounts []int) (Result, []Result) {
	results := sweep.Map(len(fpgaCounts)+1, func(i int) Result {
		if i == 0 {
			return RunLocalBaseline(base)
		}
		cfg := base
		cfg.FPGAs = fpgaCounts[i-1]
		return RunRemote(cfg)
	})
	return results[0], results[1:]
}
