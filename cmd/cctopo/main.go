// Command cctopo inspects the simulated datacenter topology: tier
// structure, addressing, reachable-host counts, and idle path latencies
// between arbitrary host pairs.
//
// Usage:
//
//	cctopo                      # topology summary
//	cctopo -a 0 -b 1234         # locate both hosts and ping over LTL
package main

import (
	"flag"
	"fmt"
	"os"

	configcloud "repro"
	"repro/internal/netsim"
)

func main() {
	a := flag.Int("a", -1, "first host id")
	b := flag.Int("b", -1, "second host id")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	cloud := configcloud.New(configcloud.Options{Seed: *seed})
	if err := checkHosts(*a, *b, cloud.DC.NumHosts()); err != nil {
		fmt.Fprintf(os.Stderr, "cctopo: %v\n", err)
		os.Exit(1)
	}
	cfg := cloud.DC.Config()
	fmt.Printf("topology: %d hosts/TOR x %d TORs/pod x %d pods = %d hosts\n",
		cfg.HostsPerTOR, cfg.TORsPerPod, cfg.Pods, cloud.DC.NumHosts())
	for tier, name := range []string{"L0 (same TOR)", "L1 (same pod)", "L2 (datacenter)"} {
		fmt.Printf("  %-16s reaches %d hosts\n", name, cloud.DC.ReachableAtTier(tier))
	}

	if *a == -1 && *b == -1 {
		return
	}
	pa, ta, ia := cloud.DC.Locate(*a)
	pb, tb, ib := cloud.DC.Locate(*b)
	fmt.Printf("\nhost %d: pod %d, tor %d, port %d (%s)\n", *a, pa, ta, ia, netsim.HostIP(*a))
	fmt.Printf("host %d: pod %d, tor %d, port %d (%s)\n", *b, pb, tb, ib, netsim.HostIP(*b))
	fmt.Printf("connecting tier: L%d\n", cloud.Tier(*a, *b))

	na, nb := cloud.Node(*a), cloud.Node(*b)
	if err := nb.Shell.Engine.OpenRecv(1, netsim.HostIP(*a), nil); err != nil {
		panic(err)
	}
	if err := na.Shell.Engine.OpenSend(1, netsim.HostIP(*b), netsim.HostMAC(*b), 1, 0, nil); err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		t0 := cloud.Sim.Now()
		var rtt configcloud.Time
		if err := na.Shell.Engine.SendMessage(1, make([]byte, 64), func() {
			rtt = cloud.Sim.Now() - t0
		}); err != nil {
			panic(err)
		}
		cloud.Run(configcloud.Millisecond)
		fmt.Printf("ltl ping %d -> %d: rtt %v\n", *a, *b, rtt)
	}
}

// checkHosts accepts no pair (-a and -b both -1: the summary only) or
// two host ids of the datacenter.
func checkHosts(a, b, hosts int) error {
	if a == -1 && b == -1 {
		return nil
	}
	for _, h := range []struct {
		flag string
		id   int
	}{{"-a", a}, {"-b", b}} {
		if h.id < 0 || h.id >= hosts {
			return fmt.Errorf("%s %d: want a host id from 0 to %d", h.flag, h.id, hosts-1)
		}
	}
	return nil
}
