package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

func TestExperimentFlagsReadsMain(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../ccexperiment/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := experimentFlags(f)
	for _, want := range []string{"exp", "full", "csv", "faults", "telemetry", "trace-dump", "h"} {
		if !names[want] {
			t.Errorf("flag -%s not found", want)
		}
	}
	if names["shards"] {
		t.Error("-shards reported, but main.go does not define it")
	}
}

func TestUndefinedFlags(t *testing.T) {
	doc := "Intro `ccexperiment -exp fig10` and `-old` alone.\n" +
		"```bash\n" +
		"go run ./cmd/ccexperiment -exp scale -full   # -shards N\n" +
		"ccexperiment -csv | sort -u -old\n" +
		"go test -old ./...\n" +
		"```\n" +
		"A wrapped span (`ccexperiment\n-exp scale -lb jsq`) and on-fabric prose.\n" +
		"\n" +
		"Deleted `ccexperiment -old` last round.\n"
	defined := map[string]bool{"exp": true, "full": true, "csv": true}
	want := []string{
		"3: ccexperiment has no flag -shards",
		"7: ccexperiment has no flag -lb",
	}
	if got := undefinedFlags(doc, defined); !reflect.DeepEqual(got, want) {
		t.Errorf("undefinedFlags = %q, want %q", got, want)
	}
}
