// Quickstart: build a Configurable Cloud, send a message between two
// FPGAs over LTL, and pass ordinary host traffic through the
// bump-in-the-wire shells — the two roles every deployed FPGA plays at
// once.
package main

import (
	"fmt"

	configcloud "repro"
	"repro/internal/pkt"
)

func main() {
	// A full-scale datacenter (250,560 hosts); only touched servers are
	// instantiated.
	cloud := configcloud.New(configcloud.Options{Seed: 1})
	a := cloud.Node(0)   // two servers on the same TOR
	b := cloud.Node(1)   //
	c := cloud.Node(960) // and one a pod away, across the L2 spine

	// 1. Direct FPGA-to-FPGA messaging: allocate a connection pair in the
	// static LTL connection tables, then send.
	check(b.Shell.OpenRemoteRecv(7, a.ID, func(p []byte) {
		fmt.Printf("[%v] FPGA %d received %q from FPGA %d over LTL\n",
			cloud.Sim.Now(), b.ID, p, a.ID)
	}))
	check(a.Shell.OpenRemoteSend(7, b.ID, 7))
	a.Shell.SendRemote(7, []byte("hello from the role"), func() {
		fmt.Printf("[%v] message fully ACKed (that timestamp is the LTL RTT)\n",
			cloud.Sim.Now())
	})

	// 2. The same FPGAs keep bridging all host traffic.
	b.Host.RegisterUDP(8080, func(f *pkt.Frame) {
		fmt.Printf("[%v] host %d software received %q through the bump-in-the-wire\n",
			cloud.Sim.Now(), b.ID, f.Payload)
	})
	a.Host.SendUDP(b.Host.IP(), 8080, 8080, pkt.ClassBestEffort, []byte("plain host traffic"))

	// 3. Cross-pod LTL: hundreds of thousands of FPGAs are a few
	// microseconds away.
	check(c.Shell.OpenRemoteRecv(9, a.ID, nil))
	check(a.Shell.OpenRemoteSend(9, c.ID, 9))
	start := cloud.Sim.Now()
	a.Shell.SendRemote(9, []byte("cross-pod ping"), func() {
		fmt.Printf("[%v] cross-pod (tier L%d) RTT: %v\n",
			cloud.Sim.Now(), cloud.Tier(a.ID, c.ID), cloud.Sim.Now()-start)
	})

	cloud.Run(10 * configcloud.Millisecond)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
