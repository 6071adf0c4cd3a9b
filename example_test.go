package configcloud_test

import (
	"fmt"

	configcloud "repro"
)

// Example demonstrates the core loop: build a cloud, allocate an LTL
// connection pair, message a remote FPGA, and observe the ACK-measured
// round trip.
func Example() {
	cloud := configcloud.New(configcloud.Options{Seed: 1})
	a, b := cloud.Node(0), cloud.Node(1)

	b.Shell.OpenRemoteRecv(7, a.ID, func(p []byte) {
		fmt.Printf("received %q\n", p)
	})
	a.Shell.OpenRemoteSend(7, b.ID, 7)
	a.Shell.SendRemote(7, []byte("hello"), func() {
		fmt.Printf("acked at %v\n", cloud.Sim.Now())
	})
	cloud.Run(configcloud.Millisecond)
	// Output:
	// received "hello"
	// acked at 2.870us
}

// ExampleFig10 reproduces the paper's headline latency figure at reduced
// sample count.
func ExampleFig10() {
	cfg := configcloud.DefaultFig10Config()
	cfg.PingsPer = 50
	res := configcloud.Fig10(cfg)
	fmt.Printf("tiers measured: %d, torus nodes: %d\n", len(res.Tiers), res.TorusNodes)
	fmt.Printf("L0 reaches %d hosts, L2 reaches %d\n",
		res.Tiers[0].Reachable, res.Tiers[2].Reachable)
	// Output:
	// tiers measured: 3, torus nodes: 48
	// L0 reaches 24 hosts, L2 reaches 250560
}
