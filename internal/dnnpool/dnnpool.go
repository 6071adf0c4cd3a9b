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
	"repro/internal/netsim"
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
	// LB, when non-empty, names an svclb routing policy: instead of the
	// static SM pointer handed to each client, every request is routed
	// through a service-level balancer over the whole pool (fed stale
	// periodic depth reports, as the gossip plane would provide).
	LB string
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
	s := sim.New(cfg.Seed)
	dcCfg := netsim.DefaultConfig()
	shells := map[int]*shell.Shell{}
	dcCfg.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
		sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shell.DefaultConfig())
		shells[hostID] = sh
		return sh
	}
	dc := netsim.NewDatacenter(s, dcCfg)

	// Clients fill TORs starting at host 0; the pool lives on the next
	// TORs of the same pod (requests cross the L1 tier, as a real global
	// pool's would).
	clientHosts := make([]int, cfg.Clients)
	for i := range clientHosts {
		clientHosts[i] = i
		dc.Host(i)
	}
	poolHosts := make([]int, cfg.FPGAs)
	base := ((cfg.Clients + dcCfg.HostsPerTOR - 1) / dcCfg.HostsPerTOR) * dcCfg.HostsPerTOR
	for i := range poolHosts {
		poolHosts[i] = base + i
		dc.Host(base + i)
	}

	// HaaS manages the pool: one service manager leases all pool FPGAs.
	rm := haas.NewResourceManager(s, haas.RMConfig{
		PodOf: func(id haas.NodeID) int { p, _, _ := dc.Locate(int(id)); return p },
	})
	for _, h := range poolHosts {
		h := h
		rm.Register(&haas.FPGAManager{
			Node:      haas.NodeID(h),
			Configure: func(string) { shells[h].LoadRole(dnnRole{}) },
			Healthy:   func() bool { return true },
		})
	}
	sm := haas.NewServiceManager(s, rm, "dnn", "dnn-v1")
	if err := sm.Scale(cfg.FPGAs, haas.Constraints{Pod: -1}); err != nil {
		panic(fmt.Sprintf("dnnpool: %v", err))
	}

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
			sim.Must(cs.OpenRemoteSend(uint16(fi)+1, fh, uint16(ci)+1, nil))
			sim.Must(fs.OpenRemoteSend(uint16(ci)+1000, ch, uint16(fi)+1000, nil))
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
	pcie := shell.DefaultConfig()
	pcieTime := func(n int) sim.Time {
		return pcie.PCIeLatency + sim.Time(int64(n)*8*int64(sim.Second)/pcie.PCIeBps)
	}

	// Map a HaaS node id back to a pool index for connection addressing.
	poolIndex := map[haas.NodeID]int{}
	for fi, fh := range poolHosts {
		poolIndex[haas.NodeID(fh)] = fi
	}

	// Production datacenter background: other tenants' lossless (RDMA)
	// traffic shares the L1/L2 switches, giving remote accesses a genuine
	// network tail.
	dc.StartBackgroundLoad(0.05, pkt.ClassRDMA, 1400)

	// With cfg.LB set, the SM routes every request through a service-level
	// balancer instead of handing out static pointers. Its global view is
	// refreshed periodically from the pool's queue depths, so informed
	// policies work from stale data exactly as they would over gossip.
	var router *svclb.Router
	if cfg.LB != "" {
		r, err := svclb.NewRouter(s.NewRand(), cfg.LB)
		if err != nil {
			panic(fmt.Sprintf("dnnpool: %v", err))
		}
		router = r
		for _, fh := range poolHosts {
			router.AddSlot(fh)
		}
		s.Every(100*sim.Microsecond, 100*sim.Microsecond, func() {
			for _, fh := range poolHosts {
				q := queues[fh]
				router.ReportDepth(fh, q.Queued()+q.Busy(), s.Now())
			}
		})
	}

	type pendingReq struct {
		t0   sim.Time
		slot *svclb.Slot
	}
	nextReq := uint64(0)
	for _, ch := range clientHosts {
		cs := shells[ch]
		pending := map[uint64]pendingReq{}
		for fi := range poolHosts {
			fi := fi
			sim.Must(cs.OpenRemoteRecv(uint16(fi)+1000, poolHosts[fi], func(payload []byte) {
				reqID := binary.BigEndian.Uint64(payload)
				p, ok := pending[reqID]
				if !ok {
					return
				}
				delete(pending, reqID)
				if router != nil && p.slot != nil {
					router.Done(p.slot)
				}
				s.Schedule(pcieTime(cfg.RespBytes), func() {
					if p.t0 >= cfg.Warmup {
						lat.Observe(int64(s.Now() - p.t0))
					}
				})
			}))
		}
		// The SM hands each client a pointer to one pool member ("A SM
		// provides pointers to the hardware service to one or more end
		// users"); oversubscription is the number of clients sharing each
		// pointer.
		node, ok := sm.Pick()
		if !ok {
			panic("dnnpool: empty pool")
		}
		assigned := poolIndex[node]
		gen := workload.NewOpenLoop(s, cfg.ClientRate, func() {
			fi := assigned
			var slot *svclb.Slot
			if router != nil {
				sl, ok := router.Pick()
				if !ok {
					return
				}
				slot, fi = sl, poolIndex[haas.NodeID(sl.Host)]
			}
			nextReq++
			reqID := nextReq
			pending[reqID] = pendingReq{t0: s.Now(), slot: slot}
			req := make([]byte, cfg.ReqBytes)
			binary.BigEndian.PutUint64(req, reqID)
			s.Schedule(pcieTime(cfg.ReqBytes), func() {
				cs.SendRemote(uint16(fi)+1, req, nil)
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

// dnnRole marks the pool shells' role slot occupied (the data path runs
// through OpenRemoteRecv handlers).
type dnnRole struct{}

func (dnnRole) Name() string { return "dnn-v1" }
func (dnnRole) HandleRequest(src shell.RequestSource, payload []byte, respond func([]byte)) {
	respond(payload)
}

// RunLocalBaseline measures the same clients with dedicated
// locally-attached accelerators (1:1, PCIe only) — the normalization
// denominator of Fig. 12.
func RunLocalBaseline(cfg Config) Result {
	s := sim.New(cfg.Seed)
	lat := metrics.NewHistogram()
	obs.RegistryOf(s).Histogram("dnnpool.latency", "ns", "dnnpool", "local-baseline request latency", lat)
	pcie := shell.DefaultConfig()
	pcieTime := func(n int) sim.Time {
		return pcie.PCIeLatency + sim.Time(int64(n)*8*int64(sim.Second)/pcie.PCIeBps)
	}
	for c := 0; c < cfg.Clients; c++ {
		queue := host.NewCPU(s, 1) // dedicated accelerator
		gen := workload.NewOpenLoop(s, cfg.ClientRate, func() {
			t0 := s.Now()
			s.Schedule(pcieTime(cfg.ReqBytes), func() {
				queue.Submit(cfg.ServiceTime, func() {
					s.Schedule(pcieTime(cfg.RespBytes), func() {
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
