package svclb

import (
	"math/rand"
	"testing"

	"repro/internal/haas"
	"repro/internal/sim"
)

// TestDeployLayoutProperty stacks a head+pool, a head-less and a second
// head+pool deployment on one fabric, each starting at the previous one's
// NextHostBase, over random client and pool counts. Host sets must be
// disjoint, the head (or a head-less pool) must open a TOR, the pool must
// follow the head directly, and NextHostBase must be TOR-aligned past
// every host the deployment claims.
func TestDeployLayoutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		s, dc, shells := Standalone(int64(trial), false, 0)
		hpt := dc.Config().HostsPerTOR
		owner := map[int]int{}
		claim := func(di, h int) {
			if prev, ok := owner[h]; ok {
				t.Fatalf("trial %d: host %d claimed by deployments %d and %d", trial, h, prev, di)
			}
			if shells[h] == nil {
				t.Fatalf("trial %d: host %d claimed but never built", trial, h)
			}
			owner[h] = di
		}
		base := 0
		for di, policy := range []string{PolicyP2C, "", PolicyRoundRobin} {
			clients, poolSize := rng.Intn(3*hpt), 1+rng.Intn(hpt+2)
			d := Deploy(s, dc, shells, base, clients, policy, poolSize, sim.Millisecond,
				haas.PoolSpec{Tenant: "layout", Image: serviceImage})
			if len(d.ClientEnds) != clients {
				t.Fatalf("trial %d/%d: %d client ends, want %d", trial, di, len(d.ClientEnds), clients)
			}
			for i, sh := range d.ClientEnds {
				if sh.HostID() != base+i {
					t.Fatalf("trial %d/%d: client %d on host %d, want %d", trial, di, i, sh.HostID(), base+i)
				}
				claim(di, sh.HostID())
			}
			// The first host past the clients' TORs is the head, or the
			// pool's first candidate when there is no head.
			poolStart, first := d.hostEnd-poolSize, d.hostEnd-poolSize
			if policy == "" {
				if d.Head != -1 || d.Router != nil {
					t.Fatalf("trial %d/%d: head-less deployment has head %d", trial, di, d.Head)
				}
			} else {
				first = d.Head
				if poolStart != d.Head+1 || d.Router.Policy() != policy {
					t.Fatalf("trial %d/%d: head %d routing %q, pool from %d", trial, di, d.Head, d.Router.Policy(), poolStart)
				}
				claim(di, d.Head)
			}
			if first%hpt != 0 || first < base+clients {
				t.Fatalf("trial %d/%d: head or pool opens at %d (TOR width %d, clients end at %d)", trial, di, first, hpt, base+clients)
			}
			for h := poolStart; h < d.hostEnd; h++ {
				claim(di, h)
			}
			next := d.NextHostBase()
			if next%hpt != 0 || next < d.hostEnd {
				t.Fatalf("trial %d/%d: NextHostBase %d (TOR width %d) not past host end %d", trial, di, next, hpt, d.hostEnd)
			}
			for h := range owner {
				if h >= next {
					t.Fatalf("trial %d/%d: claimed host %d at or past NextHostBase %d", trial, di, h, next)
				}
			}
			d.Stop()
			base = next
		}
	}
}

// TestDeadBackendLeavesRoutingView: a backend killed mid-run leaves the
// routing view when the RM reports it dead, its replacement takes its
// place, and the dead slot gets no further routes. Every pick raises a
// slot's outstanding count and the dead slot's copies are orphaned
// without lowering it, so its count stays frozen while requests keep
// being routed to the rest of the pool.
func TestDeadBackendLeavesRoutingView(t *testing.T) {
	cfg := quickConfig()
	b := NewService(cfg)
	victim := b.Router.Live()[0]
	b.s.Schedule(5*sim.Millisecond, func() { b.In.KillNode(victim.Host) })
	client := 0
	b.s.Every(100*sim.Microsecond, 100*sim.Microsecond, func() {
		b.Submit(client, Request{})
		client = (client + 1) % b.Clients()
	})
	b.s.RunUntil(5*sim.Millisecond + 3*cfg.RMPoll)
	if b.failovers.Value() != 1 {
		t.Fatalf("failovers = %d, want 1", b.failovers.Value())
	}
	if victim.Live() || b.Router.SlotOnHost(victim.Host) != nil {
		t.Fatalf("dead backend %d still in the routing view", victim.Host)
	}
	if n := len(b.Router.Live()); n != cfg.FPGAs {
		t.Fatalf("%d live backends after failover, want %d", n, cfg.FPGAs)
	}
	held, routes := victim.Outstanding, b.Router.routes
	b.s.RunUntil(5*sim.Millisecond + 13*cfg.RMPoll)
	b.Stop()
	if victim.Outstanding != held {
		t.Fatalf("dead backend %d got %d routes after detection", victim.Host, victim.Outstanding-held)
	}
	if b.Router.routes == routes {
		t.Fatal("no request was routed after detection")
	}
}

// BenchmarkServiceBuild measures building svclb's default deployment and
// stopping it, with no requests run: the set-up work ccperf's lb-noise
// workload times as setup_s.
func BenchmarkServiceBuild(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		NewService(cfg).Stop()
	}
}

// TestIdleServiceFiresOnlyHealthPolls: a default service with no requests
// in flight fires nothing but its Resource Manager's health polls, one
// per poll period. No backend reports its load on a timer, and fabric
// noise runs in line at each port.
func TestIdleServiceFiresOnlyHealthPolls(t *testing.T) {
	cfg := DefaultConfig()
	b := NewService(cfg)
	defer b.Stop()
	const window = 10 * sim.Millisecond
	b.s.RunUntil(window) // past the initial leases' reconfiguration
	fired := b.s.Fired()
	b.s.RunUntil(2 * window)
	if got, want := b.s.Fired()-fired, uint64(window/cfg.RMPoll); got != want {
		t.Fatalf("idle service fired %d events in %v, want %d health polls", got, window, want)
	}
}
