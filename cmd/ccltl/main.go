// Command ccltl is an LTL microbenchmark driver: it opens a connection
// between two FPGAs at a chosen tier and reports round-trip latency
// percentiles and protocol counters under configurable message size,
// rate, and injected loss.
//
// Usage:
//
//	ccltl -tier 2 -n 1000 -size 256
//	ccltl -tier 0 -loss 0.01            # 1% frame loss on the sender link
package main

import (
	"flag"
	"fmt"
	"os"

	configcloud "repro"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func main() {
	tier := flag.Int("tier", 0, "network tier (0=same TOR, 1=same pod, 2=cross pod)")
	n := flag.Int("n", 1000, "messages")
	size := flag.Int("size", 64, "payload bytes")
	gapUS := flag.Int("gap", 20, "mean inter-message gap (us)")
	loss := flag.Float64("loss", 0, "injected egress frame loss on the sender")
	seed := flag.Int64("seed", 7, "simulation seed")
	flag.Parse()
	if err := checkFlags(*tier, *n, *size, *gapUS, *loss); err != nil {
		fail("%v", err)
	}

	cloud := configcloud.New(configcloud.Options{Seed: *seed})
	topo := cloud.DC.Config()
	var peer int
	switch *tier {
	case 0:
		peer = 1
	case 1:
		peer = topo.HostsPerTOR
	default:
		peer = topo.HostsPerTOR * topo.TORsPerPod
	}
	a, b := cloud.Node(0), cloud.Node(peer)
	if *loss > 0 {
		a.Shell.SetEgressLossRate(*loss)
	}
	check(b.Shell.Engine.OpenRecv(1, netsim.HostIP(0), nil))
	check(a.Shell.Engine.OpenSend(1, netsim.HostIP(peer), netsim.HostMAC(peer), 1, 0, nil))

	h := metrics.NewHistogram()
	payload := make([]byte, *size)
	gap := sim.Time(*gapUS) * sim.Microsecond
	done := 0
	var send func(i int)
	send = func(i int) {
		if i >= *n {
			return
		}
		t0 := cloud.Sim.Now()
		check(a.Shell.Engine.SendMessage(1, payload, func() {
			h.Observe(int64(cloud.Sim.Now() - t0))
			done++
		}))
		cloud.Sim.Schedule(gap, func() { send(i + 1) })
	}
	cloud.Sim.Schedule(0, func() { send(0) })
	cloud.Run(sim.Time(*n)*gap*3 + 100*sim.Millisecond)

	eng := a.Shell.Engine
	fmt.Printf("tier L%d, %d/%d messages of %dB delivered\n", *tier, done, *n, *size)
	fmt.Printf("rtt: %s\n", h.Summary())
	fmt.Printf("frames sent=%d acks=%d retransmits=%d timeouts=%d nacks-recv=%d\n",
		eng.Stats.FramesSent.Value(), eng.Stats.AcksRecv.Value(),
		eng.Stats.Retransmits.Value(), eng.Stats.Timeouts.Value(),
		eng.Stats.NacksRecv.Value())
}

// Flag limits: n and gap keep the run's virtual length, n*gap*3, far
// inside sim.Time, and size bounds the one payload buffer.
const (
	maxMessages = 1_000_000
	maxGapUS    = 1_000_000
	maxSize     = 16 << 20
)

// checkFlags rejects flag values the benchmark cannot run.
func checkFlags(tier, n, size, gapUS int, loss float64) error {
	switch {
	case tier < 0 || tier > 2:
		return fmt.Errorf("-tier %d: want 0, 1 or 2", tier)
	case n < 1 || n > maxMessages:
		return fmt.Errorf("-n %d: want 1 to %d messages", n, maxMessages)
	case size < 0 || size > maxSize:
		return fmt.Errorf("-size %d: want 0 to %d bytes", size, maxSize)
	case gapUS < 0 || gapUS > maxGapUS:
		return fmt.Errorf("-gap %d: want 0 to %d us", gapUS, maxGapUS)
	case !(loss >= 0 && loss <= 1): // also rejects NaN
		return fmt.Errorf("-loss %v: want a frame loss rate from 0 to 1", loss)
	}
	return nil
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccltl: "+format+"\n", args...)
	os.Exit(1)
}
