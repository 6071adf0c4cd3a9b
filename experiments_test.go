package configcloud

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := RunExperiment("nope", Quick); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestExperimentIDsAllRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is heavy")
	}
	// The heavier figure sweeps are covered by dedicated tests below and
	// in their packages; here every light experiment must produce
	// non-empty tables. ("scale" and "serve" render wall-clock columns,
	// so they are checked for shape here and for determinism by their
	// digest tests, not by byte-comparing tables.)
	for _, id := range []string{"fig5", "power", "reliability", "crypto", "haas", "ltlloss", "scale", "serve"} {
		tabs, err := RunExperiment(id, Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs) == 0 {
			t.Fatalf("%s: no tables", id)
		}
		for _, tab := range tabs {
			out := tab.String()
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s: table suspiciously small:\n%s", id, out)
			}
		}
	}
}

// The sharded points' tables (E16, E18c, E19c) replay: rendered twice
// at Quick sizing, every cell but the trailing wall-clock column agrees.
func TestShardedTablesIdentical(t *testing.T) {
	for _, exp := range []func(Scale) *Table{ExpScale, expNetsvcScale, expTenancyScale} {
		a, b := exp(Quick), exp(Quick)
		col := len(a.Headers) - 1
		if a.Headers[col] != "seq wall" || len(a.Rows) == 0 || len(b.Rows) != len(a.Rows) {
			t.Fatalf("%s: no trailing wall column, no rows, or a row count that changed on rerun", a.Title)
		}
		for i, row := range a.Rows {
			if got := b.Rows[i]; !reflect.DeepEqual(row[:col], got[:col]) {
				t.Errorf("%s: row %v, rerun %v", a.Title, row[:col], got[:col])
			}
		}
	}
}

func TestExpCryptoTransparency(t *testing.T) {
	tab := ExpCryptoFunctional()
	out := tab.String()
	// All 200 packets must be encrypted, decrypted, and delivered as
	// plaintext with zero auth failures.
	for _, want := range []string{"200"} {
		if strings.Count(out, want) < 4 {
			t.Fatalf("crypto transparency broken:\n%s", out)
		}
	}
}

func TestExpLTLLossShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loss sweep is heavy")
	}
	tab := ExpLTLLoss(Quick)
	out := tab.String()
	// The black-holed connection must be declared failed.
	if !strings.Contains(out, "true") {
		t.Errorf("100%% loss did not fail the connection:\n%s", out)
	}
	// Lossy-but-alive rows must deliver everything.
	if !strings.Contains(out, "400/400") {
		t.Errorf("reliable delivery under loss broken:\n%s", out)
	}
}

func TestMeasureLTLRTTs(t *testing.T) {
	rtts := MeasureLTLRTTs(3, 1, 50)
	if len(rtts) != 50 {
		t.Fatalf("collected %d RTTs", len(rtts))
	}
	for _, r := range rtts {
		// L1 tier: ~7.8us.
		if r < 5*Microsecond || r > 15*Microsecond {
			t.Fatalf("implausible L1 RTT %v", r)
		}
	}
}

func TestExpHaaSSelfHeals(t *testing.T) {
	out := ExpHaaS().String()
	if !strings.Contains(out, "service A repaired") {
		t.Fatalf("missing repair row:\n%s", out)
	}
}
