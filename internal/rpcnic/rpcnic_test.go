package rpcnic

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

func smallConfig(seed int64, offload bool) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Offload = offload
	cfg.Callers = 4
	cfg.Rate = 10000
	cfg.Backends = 3
	cfg.Spares = 1
	cfg.Duration = 8 * sim.Millisecond
	cfg.Drain = 4 * sim.Millisecond
	return cfg
}

func TestReqRoundTrip(t *testing.T) {
	for _, r := range []Req{
		{Method: MethodEcho, ID: 1},
		{Method: MethodHash, Flags: 0x80, ID: 1 << 40, Args: []byte("payload")},
		{Method: MethodRank, ID: 3, Args: bytes.Repeat([]byte{9}, MaxArgBytes)},
	} {
		got, err := DecodeReq(AppendReq(nil, r))
		if err != nil {
			t.Fatalf("DecodeReq(%+v): %v", r, err)
		}
		if got.Method != r.Method || got.Flags != r.Flags || got.ID != r.ID || !bytes.Equal(got.Args, r.Args) {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
}

func TestRespRoundTrip(t *testing.T) {
	r := Resp{Status: 0, Method: MethodHash, ID: 77, Ret: []byte("result")}
	got, err := DecodeResp(AppendResp(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != r.Status || got.Method != r.Method || got.ID != r.ID || !bytes.Equal(got.Ret, r.Ret) {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}
}

func TestDecodeReqRejectsCorrupt(t *testing.T) {
	good := AppendReq(nil, Req{Method: MethodEcho, ID: 1, Args: []byte("a")})
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:7],
		"bad magic":   append([]byte{0x00}, good[1:]...),
		"bad version": {reqMagic, 9, MethodEcho, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
		"bad method":  {reqMagic, reqVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
		"huge args": func() []byte {
			b := append([]byte(nil), good...)
			b[12], b[13] = 0xFF, 0xFF
			return b
		}(),
	}
	for name, buf := range cases {
		if _, err := DecodeReq(buf); err == nil {
			t.Errorf("%s: DecodeReq accepted corrupt input", name)
		}
	}
}

// TestOffloadBeatsHost is the Dagger-style headline: the same workload,
// seed, and topology, decoded on the FPGA vs in host software. Offload
// must win on median and tail, and must leave the dispatcher host idle.
func TestOffloadBeatsHost(t *testing.T) {
	off := Run(smallConfig(7, true))
	host := Run(smallConfig(7, false))
	if off.Completed == 0 || host.Completed == 0 {
		t.Fatalf("no completions: off=%+v host=%+v", off, host)
	}
	if off.P50 >= host.P50 {
		t.Fatalf("offload P50 %v not below host P50 %v", off.P50, host.P50)
	}
	if off.P99 >= host.P99 {
		t.Fatalf("offload P99 %v not below host P99 %v", off.P99, host.P99)
	}
	if off.HostBusy != 0 {
		t.Fatalf("offload mode ran the host CPU: %v", off.HostBusy)
	}
	if host.HostBusy <= 0 {
		t.Fatalf("host mode shows no CPU time: %+v", host)
	}
}

// TestRunDeterminism: same seed and mode — identical digest, route hash,
// and counters across runs.
func TestRunDeterminism(t *testing.T) {
	for _, offload := range []bool{true, false} {
		a := Run(smallConfig(19, offload))
		b := Run(smallConfig(19, offload))
		a.Record, b.Record = nil, nil
		if a != b {
			t.Fatalf("same-seed %s runs diverged:\n a=%+v\n b=%+v", a.Mode, a, b)
		}
	}
	a := Run(smallConfig(19, true))
	c := Run(smallConfig(20, true))
	if a.Digest == c.Digest {
		t.Fatalf("different seeds produced equal digests (%d)", a.Digest)
	}
}

// TestDispatchSpans: telemetry captures both the caller RPC span and the
// dispatcher's per-request dispatch span.
func TestDispatchSpans(t *testing.T) {
	cfg := smallConfig(29, true)
	cfg.Telemetry = true
	r := Run(cfg)
	if r.Record == nil {
		t.Fatal("telemetry enabled but no record")
	}
	names := map[string]int{}
	for _, sp := range r.Record.Spans {
		names[sp.Name]++
	}
	if names["rpcnic.rpc"] == 0 || names["rpcnic.dispatch"] == 0 {
		t.Fatalf("missing rpc/dispatch spans: %v", names)
	}
	if names["rpcnic.host_decode"] != 0 {
		t.Fatalf("offload run recorded host decode spans: %v", names)
	}
}

// TestBackendFailover: killing a backend swings traffic to the rest of
// the pool and replaces the lease from the spare.
func TestBackendFailover(t *testing.T) {
	cfg := smallConfig(37, true)
	cfg.RMPoll = 1 * sim.Millisecond
	d := NewDispatcher(cfg)
	s := d.s
	victim := d.Router.Live()[0].Host
	s.Schedule(2*sim.Millisecond-s.Now(), func() { d.In.KillNode(victim) })
	s.RunUntil(8 * sim.Millisecond)

	live := d.Router.Live()
	if len(live) != cfg.Backends {
		t.Fatalf("pool not repaired: %d live backends, want %d", len(live), cfg.Backends)
	}
	for _, sl := range live {
		if sl.Host == victim {
			t.Fatalf("dead backend %d still routable", victim)
		}
	}

	// An RPC issued now must complete on the repaired pool.
	done := false
	d.callers[0].call(MethodEcho, []byte("post-failover"))
	pre := d.Stats.Replies.Value()
	s.RunUntil(s.Now() + 2*sim.Millisecond)
	done = d.Stats.Replies.Value() > pre
	d.Stop()
	if !done {
		t.Fatal("post-failover RPC never completed")
	}
}

// TestFailoverReplacesLease: a dead backend's board is swapped inside
// its lease (HaaS ReplaceNode) instead of a fresh lease being taken
// while the dead one, and its failure callback, stay registered.
func TestFailoverReplacesLease(t *testing.T) {
	cfg := smallConfig(41, true)
	cfg.RMPoll = 1 * sim.Millisecond
	d := NewDispatcher(cfg)
	victim := d.Router.Live()[0].Host
	d.s.Schedule(2*sim.Millisecond-d.s.Now(), func() { d.In.KillNode(victim) })
	d.s.RunUntil(8 * sim.Millisecond)
	d.Stop()
	if g, r := d.Pool.RM().Granted.Value(), d.Pool.RM().Replaced.Value(); g != uint64(cfg.Backends) || r != 1 {
		t.Fatalf("haas granted=%d replaced=%d, want %d and 1", g, r, cfg.Backends)
	}
}

// TestDeadBackendGetsNoRoutes: once the RM reports a backend dead, its
// slot leaves the routing view and gets no further routes. Every pick
// raises a slot's outstanding count and only a reply lowers it, so the
// dead slot's count stays frozen while callers keep issuing RPCs that
// the rest of the pool answers.
func TestDeadBackendGetsNoRoutes(t *testing.T) {
	cfg := smallConfig(43, true)
	cfg.RMPoll = 1 * sim.Millisecond
	d := NewDispatcher(cfg)
	victim := d.Router.Live()[0]
	d.s.Schedule(2*sim.Millisecond-d.s.Now(), func() { d.In.KillNode(victim.Host) })
	d.s.Every(50*sim.Microsecond, 50*sim.Microsecond, func() {
		d.callers[0].call(MethodEcho, []byte("x"))
	})
	d.s.RunUntil(4 * sim.Millisecond) // past detection
	if victim.Live() || d.Router.SlotOnHost(victim.Host) != nil {
		t.Fatalf("dead backend %d still in the routing view", victim.Host)
	}
	held, dispatched := victim.Outstanding, d.Stats.Dispatched.Value()
	d.s.RunUntil(8 * sim.Millisecond)
	d.Stop()
	if victim.Outstanding != held {
		t.Fatalf("dead backend %d routed %d more requests after detection", victim.Host, victim.Outstanding-held)
	}
	if d.Stats.Dispatched.Value() == dispatched {
		t.Fatal("no request was dispatched after detection")
	}
}
