// Command ccperf is the repository's end-to-end benchmark. It drives one
// workload through the simulator's public entry points (or, for the live
// tier, through the HTTP frontend over a loopback socket), checks every
// operation's result, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"run_s": {"value": 3.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer breakdown. -agree N runs N fresh processes of one
// workload and prints each metric's median and spread. See README.md.
//
// Usage, from the repository root:
//
//	bash cmd/ccperf/run.sh --workload lb-noise --seed 1 --seconds 20 --trace 0
//	bash cmd/ccperf/run.sh --workload kv-rw --agree 10
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads lists the benchmark's workloads in report order. quick shrinks
// each op for the smoke test.
var workloads = []struct {
	name string
	run  func(quick bool, seed int64, budget time.Duration, trace bool, rep *report) error
}{
	{"lb-noise", func(q bool, seed int64, b time.Duration, t bool, rep *report) error {
		return runSim(lbNoise(q), seed, b, t, rep)
	}},
	{"kv-rw", func(q bool, seed int64, b time.Duration, t bool, rep *report) error {
		return runSim(kvRW(q), seed, b, t, rep)
	}},
	{"scale-64", func(q bool, seed int64, b time.Duration, t bool, rep *report) error {
		return runSim(scale64(q), seed, b, t, rep)
	}},
	{"http-mix", func(q bool, seed int64, b time.Duration, t bool, rep *report) error {
		return runHTTP(newHTTPMix(q), seed, b, t, rep)
	}},
}

// report accumulates one run's correctness and metrics.
type report struct {
	attempted, failed int
	firstErr          error
	ops               int      // timed ops behind the medians
	top               []string // traced runs: the most-sampled functions
	notes             []string // unadjusted measurements, printed for reading by eye
	metrics           map[string]float64
}

// raw notes unadjusted values behind a reported metric.
func (r *report) raw(what string, vs []float64) {
	r.notes = append(r.notes, fmt.Sprintf("%s: %.4g", what, vs))
}

// setup reports setup_s: the median host-speed-adjusted time of n builds
// of the system under test, taken in blocks of about 20 that reference
// timings bracket. Each build starts with the heap collected and its memory
// returned to the OS, as in a fresh process; otherwise whether a build
// happens to reuse pages the previous one freed swings the median by 2x
// between processes. Teardown is not timed.
func (r *report) setup(n int, build func() (teardown func())) {
	blocks := max(1, n/20)
	var adj, raw []float64
	before := refTimes()
	for b := 0; b < blocks; b++ {
		var ts []float64
		for i := b * n / blocks; i < (b+1)*n/blocks; i++ {
			debug.FreeOSMemory()
			var teardown func()
			ts = append(ts, measure(func() { teardown = build() }).wall)
			teardown()
		}
		after := refTimes()
		slow := slowdown(before, after)
		before = after
		for _, t := range ts {
			adj = append(adj, t/slow)
			raw = append(raw, t)
		}
	}
	r.metrics["setup_s"] = median(adj)
	r.raw("setup build median seconds, unadjusted", []float64{median(raw)})
}

// check counts one op, failed when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one named workload and returns its result.
func runWorkload(name string, quick bool, seed int64, budget time.Duration, trace bool) (result, *report, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		rep := &report{metrics: map[string]float64{}}
		for _, d := range defs {
			rep.metrics[d.name] = 0
		}
		if err := w.run(quick, seed, budget, trace, rep); err != nil {
			return result{}, rep, err
		}
		res := result{
			Correct:   rep.failed == 0 && rep.attempted > 0,
			Attempted: rep.attempted,
			Failed:    rep.failed,
			Metrics:   map[string]metricValue{},
		}
		for _, d := range defs {
			v := rep.metrics[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		return res, rep, nil
	}
	return result{}, nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 20, "timed work per run, in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer breakdown instead of the end-to-end metrics")
	agree := flag.Int("agree", 0, "run this many fresh processes (seeds seed, seed+1, ...) and print each metric's spread")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if !slices.Contains(workloadNames(), *workload) {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	// Two threads of work on every machine, so runs compare across hosts
	// with more cores; the reference host has two.
	runtime.GOMAXPROCS(2)

	if *agree > 0 {
		if err := runAgree(*workload, *agree, *seed, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println(fingerprint(*workload, *seed, *seconds, *trace))
	budget := time.Duration(*seconds * float64(time.Second))
	res, rep, err := runWorkload(*workload, false, *seed, budget, *trace == 1)
	if err != nil {
		fatal(err)
	}
	printHuman(os.Stdout, res, rep)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "ccperf: %d of %d ops failed; first: %v\n", res.Failed, res.Attempted, rep.firstErr)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccperf:", err)
	os.Exit(2)
}

// fingerprint is the header line naming the machine and build a run's
// numbers belong to.
func fingerprint(workload string, seed int64, seconds float64, trace int) string {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	return fmt.Sprintf("# ccperf workload=%s seed=%d seconds=%g trace=%d go=%s gomaxprocs=%d nproc=%d cpu=%q kernel=%s commit=%s",
		workload, seed, seconds, trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), kernel(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return runtime.GOOS
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// printHuman writes one "name value unit" line per metric, sorted.
func printHuman(w io.Writer, res result, rep *report) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %d timed ops; %d of %d checked ops failed\n", rep.ops, res.Failed, res.Attempted)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if len(rep.top) > 0 {
		fmt.Fprintln(w, "# most-sampled functions (leaf share, layer, function):")
		for _, line := range rep.top {
			fmt.Fprintln(w, "#", line)
		}
	}
}

// runAgree runs n fresh processes of one workload, seeds seed..seed+n-1,
// and prints for every metric the median, the interquartile range as a
// share of the median, and the difference between the medians of the
// first and second halves of the runs, also as a share.
func runAgree(workload string, n int, seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Println(fingerprint(workload, seed, seconds, trace))
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d ops failed", s, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "ccperf: agree %s run %d/%d (seed %d) done\n", workload, i+1, n, s)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %14s %-9s %9s %9s  values\n", "metric", "median", "unit", "iqr", "halves")
	for _, name := range names {
		vs := values[name]
		m := median(vs)
		halves := 0.0
		if m != 0 && len(vs) >= 2 {
			halves = math.Abs(median(vs[:len(vs)/2])-median(vs[len(vs)/2:])) / math.Abs(m)
		}
		strs := make([]string, len(vs))
		for i, v := range vs {
			strs[i] = strconv.FormatFloat(v, 'g', 5, 64)
		}
		fmt.Printf("%-34s %14.6g %-9s %8.2f%% %8.2f%%  %s\n", name, m, units[name],
			100*spread(vs), 100*halves, strings.Join(strs, " "))
	}
	return nil
}

// lastResult parses the JSON object on the last non-empty line of out.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}
