// Package configcloud is the public API of the Configurable Cloud
// reproduction (Caulfield et al., "A Cloud-Scale Acceleration
// Architecture", MICRO 2016 — Catapult v2).
//
// It assembles the substrates in internal/ — a deterministic
// discrete-event simulator, a three-tier datacenter fabric, the
// bump-in-the-wire FPGA shell, the Elastic Router, and the LTL transport
// — into a simulated datacenter where every server carries an FPGA
// between its NIC and the TOR switch, and exposes runners that regenerate
// every table and figure in the paper's evaluation (see EXPERIMENTS.md).
//
// Quick start:
//
//	cloud := configcloud.New(configcloud.Options{Seed: 1})
//	a, b := cloud.Node(0), cloud.Node(1)
//	b.Shell.OpenRemoteRecv(7, a.ID, func(p []byte) { fmt.Printf("got %q\n", p) })
//	a.Shell.OpenRemoteSend(7, b.ID, 7, nil)
//	a.Shell.SendRemote(7, []byte("hello"), nil)
//	cloud.Run(configcloud.Millisecond) // advance virtual time
package configcloud

import (
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/svclb"
)

// Re-exported core types: the facade is the supported import surface.
type (
	// Time is virtual simulation time in nanoseconds.
	Time = sim.Time
	// Simulation is the discrete-event kernel.
	Simulation = sim.Simulation
	// Shell is the per-server FPGA shell (bridge + tap + ER + LTL).
	Shell = shell.Shell
	// Host is a server's network attachment.
	Host = netsim.Host
	// Datacenter is the three-tier fabric.
	Datacenter = netsim.Datacenter
)

// Common durations re-exported for callers of the facade.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultShellConfig returns the production-like shell parameters
// (re-exported for facade users tuning Options.Shell).
func DefaultShellConfig() shell.Config { return shell.DefaultConfig() }

// Options configures a Cloud.
type Options struct {
	// Seed drives all randomness; equal seeds give bit-identical runs.
	Seed int64
	// Topology overrides the fabric configuration (zero value: the
	// paper's 24-host TORs, 960-host pods, 261 pods).
	Topology netsim.Config
	// Shell overrides the FPGA shell configuration.
	Shell shell.Config
	// NoFPGAs builds a plain datacenter without bump-in-the-wire shells
	// (the "software-only datacenter" baseline of Fig. 7).
	NoFPGAs bool
	// FaultProfile names a faultinject profile ("paper", "lossy", "flaky",
	// "chaos") to run the cloud under; every node is registered with the
	// injector as it instantiates and fault schedules start automatically.
	// Empty means the process default set via SetDefaultFaultProfile (and
	// failing that, no faults). Unknown names panic at New.
	FaultProfile string
	// Telemetry enables observability (metrics registry + span tracer)
	// on the cloud's simulation before any component is constructed.
	Telemetry bool
}

// defaultFaultProfile is the process-wide profile applied when
// Options.FaultProfile is empty — how cmd/ccexperiment's -faults flag
// reaches every experiment without threading an option through each one.
var defaultFaultProfile string

// SetDefaultFaultProfile sets (or, with "", clears) the fault profile
// applied to subsequently constructed Clouds that don't name their own.
func SetDefaultFaultProfile(name string) error {
	if name != "" {
		if _, err := faultinject.ByName(name); err != nil {
			return err
		}
	}
	defaultFaultProfile = name
	return nil
}

// FaultProfileNames lists the built-in fault profiles.
func FaultProfileNames() []string { return faultinject.ProfileNames() }

// defaultLB is the process-wide service-level load-balancing policy — how
// cmd/ccexperiment's -lb flag reaches the svclb and dnn-pool experiments
// without threading an option through each one. Empty leaves each
// experiment on its documented default.
var defaultLB string

// SetDefaultLB sets (or, with "", clears) the routing policy used by
// subsequently run load-balanced experiments. Unknown names error.
func SetDefaultLB(name string) error {
	if name != "" {
		if _, err := svclb.NewPolicy(name); err != nil {
			return err
		}
	}
	defaultLB = name
	return nil
}

// LBPolicyNames lists the built-in svclb routing policies.
func LBPolicyNames() []string { return svclb.PolicyNames() }

// Node pairs a server with its FPGA shell.
type Node struct {
	ID    int
	Host  *netsim.Host
	Shell *shell.Shell
}

// Cloud is a simulated Configurable Cloud deployment.
type Cloud struct {
	Sim *sim.Simulation
	DC  *netsim.Datacenter
	// Faults is the cloud's fault injector. Always present; idle unless a
	// fault profile was selected or the caller drives it directly.
	Faults *faultinject.Injector

	shellCfg shell.Config
	shells   map[int]*shell.Shell
}

// New builds a cloud. Servers (and their TOR/L1/L2 chains) instantiate
// lazily on first touch, so a 250,000-host topology costs nothing until
// used.
func New(opts Options) *Cloud {
	s := sim.New(opts.Seed)
	if opts.Telemetry {
		obs.Enable(s)
	}
	topo := opts.Topology
	if topo.HostsPerTOR == 0 {
		topo = netsim.DefaultConfig()
	}
	shCfg := opts.Shell
	if shCfg.BridgeLatency == 0 {
		shCfg = shell.DefaultConfig()
	}
	c := &Cloud{Sim: s, shellCfg: shCfg, shells: make(map[int]*shell.Shell)}
	c.Faults = faultinject.New(s)
	profName := opts.FaultProfile
	if profName == "" {
		profName = defaultFaultProfile
	}
	if profName != "" {
		p, err := faultinject.ByName(profName)
		if err != nil {
			panic(fmt.Sprintf("configcloud: %v", err))
		}
		c.Faults.Start(p)
	}
	if !opts.NoFPGAs {
		topo.Interposer = func(dc *netsim.Datacenter, hostID int) netsim.Interposer {
			sh := shell.New(dc.Sim, hostID, netsim.DefaultPortConfig(), shCfg)
			c.shells[hostID] = sh
			return sh
		}
	}
	c.DC = netsim.NewDatacenter(s, topo)
	return c
}

// Node instantiates (if needed) and returns server id with its shell.
// Each new node is registered with the injector; under a fault profile it
// joins the running schedule.
func (c *Cloud) Node(id int) Node {
	_, known := c.shells[id]
	h := c.DC.Host(id)
	sh := c.shells[id]
	if sh != nil && !known {
		c.Faults.AddNode(id, sh)
	}
	return Node{ID: id, Host: h, Shell: sh}
}

// Run advances virtual time by d.
func (c *Cloud) Run(d Time) { c.Sim.RunFor(d) }

// RunAll drains every pending event.
func (c *Cloud) RunAll() { c.Sim.Run() }

// Tier reports the network tier connecting two hosts (0 = same TOR,
// 1 = same pod, 2 = cross-pod).
func (c *Cloud) Tier(a, b int) int { return c.DC.Tier(a, b) }

// SameTORPeers returns n hosts sharing host 0's TOR.
func (c *Cloud) SameTORPeers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
