// Command ccexperiment regenerates the paper's tables and figures as
// text. Every experiment from the evaluation section of "A Cloud-Scale
// Acceleration Architecture" (MICRO 2016) has an id; see -list.
//
// Usage:
//
//	ccexperiment -exp fig10          # one experiment, quick sizing
//	ccexperiment -exp all -full      # everything at paper-like sizing
//	ccexperiment -exp faults -faults lossy   # run under a fault profile
//	ccexperiment -exp svclb -lb jsq          # pick the routing policy
//	ccexperiment -exp fig6 -cpuprofile cpu.pb.gz  # profile the hot path
//	ccexperiment -exp svclb -telemetry out.jsonl  # per-point metrics+spans
//	ccexperiment -exp svclb -telemetry out.jsonl -trace-dump 3  # + waterfalls
//	ccexperiment -exp scale                  # sharded-kernel scaling sweep
//	ccexperiment -exp serve                  # live HTTP frontend + load generator
//
// Experiments (and the sweep points inside them) are independent
// simulations and run in parallel across cores; output order is always
// the id order, byte-identical to a sequential run. -seq forces
// everything onto one goroutine (useful under -cpuprofile when a single
// clean call stack is wanted, or when reading interleaved debug prints).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	configcloud "repro"
	"repro/internal/obs"
	"repro/internal/sweep"
)

func main() {
	// The -exp usage text is generated from the experiment registry, so
	// the flag's documentation cannot drift from what actually runs.
	exp := flag.String("exp", "all", configcloud.ExperimentUsage())
	full := flag.Bool("full", false, "paper-like sizing (slower)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables (for plotting)")
	faults := flag.String("faults", "", "run experiments under a fault profile (see -list)")
	lb := flag.String("lb", "", "service-level load-balancing policy for svclb/fig12 (see -list)")
	seq := flag.Bool("seq", false, "run everything sequentially on one goroutine")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	telemetry := flag.String("telemetry", "", "write per-sweep-point telemetry (metrics + spans) to this JSONL file")
	traceDump := flag.Int("trace-dump", 0, "with -telemetry: also print waterfalls for the N slowest traced flows per point")
	flag.Parse()

	if *list {
		for _, id := range configcloud.ExperimentIDs {
			fmt.Println(id)
		}
		fmt.Println("\nfault profiles (-faults):")
		for _, name := range configcloud.FaultProfileNames() {
			fmt.Println(name)
		}
		fmt.Println("\nload-balancing policies (-lb):")
		for _, name := range configcloud.LBPolicyNames() {
			fmt.Println(name)
		}
		return
	}
	if err := configcloud.SetDefaultFaultProfile(*faults); err != nil {
		fail("%v", err)
	}
	if err := configcloud.SetDefaultLB(*lb); err != nil {
		fail("%v", err)
	}
	sweep.SetSequential(*seq)
	if *traceDump > 0 && *telemetry == "" {
		fail("-trace-dump requires -telemetry")
	}
	configcloud.SetTelemetry(*telemetry != "")
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("%v", err)
		}
		defer pprof.StopCPUProfile()
	}

	scale := configcloud.Quick
	if *full {
		scale = configcloud.Full
	}
	ids := configcloud.ExperimentIDs
	if *exp != "all" {
		ids = []string{*exp}
	}

	// Each experiment renders into its own buffer in parallel; printing
	// happens afterwards in id order so the output is independent of
	// scheduling.
	type rendered struct {
		out string
		err error
	}
	results := sweep.Over(ids, func(_ int, id string) rendered {
		var b strings.Builder
		fmt.Fprintf(&b, "### experiment %s\n\n", id)
		tabs, err := configcloud.RunExperiment(id, scale)
		if err != nil {
			return rendered{err: err}
		}
		for _, t := range tabs {
			if *csv {
				fmt.Fprintf(&b, "# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Fprintln(&b, t.String())
			}
		}
		return rendered{out: b.String()}
	})
	for _, r := range results {
		if r.err != nil {
			pprof.StopCPUProfile()
			fail("%v", r.err)
		}
		fmt.Print(r.out)
	}

	if *telemetry != "" {
		recs := configcloud.DrainTelemetry()
		f, err := os.Create(*telemetry)
		if err != nil {
			fail("%v", err)
		}
		if err := obs.EncodeAll(f, recs); err != nil {
			fail("writing telemetry: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("writing telemetry: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ccexperiment: wrote %d telemetry records to %s\n", len(recs), *telemetry)
		if *traceDump > 0 {
			for _, rec := range recs {
				fmt.Printf("### trace %s %s (%d spans, %d dropped)\n\n",
					rec.Experiment, rec.Point, len(rec.Spans), rec.Dropped)
				fmt.Println(obs.Waterfall(rec.Spans, *traceDump))
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail("%v", err)
		}
		runtime.GC() // materialize final live-heap state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("%v", err)
		}
		f.Close()
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccexperiment: "+format+"\n", args...)
	os.Exit(1)
}
