// Haasdemo walks the Hardware-as-a-Service lifecycle of §V-F / Fig. 13:
// a Resource Manager leases FPGAs to two services' pools, a leased node
// fails, and the pool swaps in a replacement — all against real shells
// whose role slots get reconfigured.
package main

import (
	"fmt"

	configcloud "repro"
	"repro/internal/haas"
)

func main() {
	cloud := configcloud.New(configcloud.Options{Seed: 2})
	const nodes = 12
	alive := map[haas.NodeID]bool{}

	rm := haas.NewResourceManager(cloud.Sim, haas.RMConfig{})
	for i := 0; i < nodes; i++ {
		id := haas.NodeID(i)
		alive[id] = true
		sh := cloud.Node(i).Shell
		rm.Register(&haas.FPGAManager{
			Node: id,
			Configure: func(string) {
				sh.Reconfigure(true, nil) // partial: bridge stays up
			},
			Healthy: func() bool { return alive[id] },
		})
	}

	repaired := 0
	ranking := haas.NewPool(rm, haas.PoolSpec{
		Tenant: "ranking", Image: "rank-v2",
		OnLost: func(m *haas.Member, dead haas.NodeID) {
			if m.Node != dead {
				repaired++
			}
		},
	})
	dnn := haas.NewPool(rm, haas.PoolSpec{Tenant: "dnn", Image: "dnn-v1"})
	grow(ranking, 5)
	grow(dnn, 4)
	fmt.Printf("pool: %d FPGAs; ranking leased %v; dnn leased %v; free %d\n",
		nodes, members(ranking), members(dnn), rm.FreeCount())

	victim := members(ranking)[1]
	fmt.Printf("\nkilling node %d ...\n", victim)
	alive[victim] = false
	cloud.Run(2 * configcloud.Second)

	fmt.Printf("after health poll: ranking members %v (repaired %d, node %d replaced)\n",
		members(ranking), repaired, victim)
	fmt.Printf("free FPGAs: %d; RM failures detected: %d\n",
		rm.FreeCount(), rm.Failures.Value())

	// Demand shrinks: the dnn service releases capacity back to the pool.
	for dnn.Shrink() != nil {
	}
	fmt.Printf("dnn released its lease; free FPGAs now %d\n", rm.FreeCount())
	rm.Stop()
}

// grow leases n boards into p.
func grow(p *haas.Pool, n int) {
	for range n {
		if _, err := p.Grow(); err != nil {
			panic(err)
		}
	}
}

// members lists p's boards in grant order.
func members(p *haas.Pool) []haas.NodeID {
	var ids []haas.NodeID
	for _, m := range p.Members() {
		ids = append(ids, m.Node)
	}
	return ids
}
