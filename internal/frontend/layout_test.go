package frontend

import (
	"testing"

	"repro/internal/sim"
)

// TestDefaultKVLayout pins the KV pipeline that DefaultConfig builds when
// only KV.Enabled is set: 4 clients on 2 shards with no spares, a
// 512-key space of 16-byte keys and 128-byte values, a 2 ms timeout and
// every 4th request a PUT.
func TestDefaultKVLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Replay
	cfg.Expect = 1
	cfg.KV.Enabled = true
	f := New(cfg)
	defer f.Close()

	pl := f.pipes["kv"]
	if pl == nil {
		t.Fatal("no kv pipeline")
	}
	if got := len(pl.kv.Clients()); got != 4 {
		t.Errorf("kv clients = %d, want 4", got)
	}
	if got := len(pl.kv.ShardHosts()); got != 2 {
		t.Errorf("kv shards = %d, want 2", got)
	}
	if got := len(pl.kv.Pool.Members()); got != 2 {
		t.Errorf("kv pool members = %d, want 2", got)
	}
	if got := pl.kv.Pool.RM().FreeCount(); got != 0 {
		t.Errorf("kv spares = %d, want 0", got)
	}
	want := KVConfig{
		Enabled: true, Clients: 4, Shards: 2,
		Keys: 512, KeyBytes: 16, ValBytes: 128,
		Timeout: 2 * sim.Millisecond, PutEvery: 4,
	}
	if pl.kvCfg != want {
		t.Errorf("kv config = %+v, want %+v", pl.kvCfg, want)
	}
}
