package main

import (
	"reflect"
	"testing"
)

func TestInternalDeclsReadsPackages(t *testing.T) {
	decls := internalDecls("../..")
	haas := decls["haas"]
	for _, want := range []string{"Pool", "NewPool", "Grow", "NodeStateOf", "freeNode"} {
		if !haas[want] {
			t.Errorf("haas.%s not found", want)
		}
	}
	if haas["ServiceManager"] {
		t.Error("haas.ServiceManager reported, but package haas does not declare it")
	}
	if !decls["shard"]["NewGroup"] {
		t.Error("a nested package (internal/sim/shard) was not read")
	}
}

func TestUndeclaredIdents(t *testing.T) {
	decls := map[string]map[string]bool{
		"haas": {"Pool": true, "Grow": true},
	}
	doc := "`haas.Pool` grows with `haas.Pool.Grow()`; `p.Grow` is a variable's.\n" +
		"`haas.granted`, `haas.go`, `internal/haas.Gone`, `other.Gone` and haas.Gone are skipped.\n" +
		"The deleted `haas.ServiceManager` and `haas.viewOf(e)` are not.\n"
	want := []string{
		"3: package haas declares no ServiceManager",
		"3: package haas declares no viewOf",
	}
	if got := undeclaredIdents(doc, decls); !reflect.DeepEqual(got, want) {
		t.Errorf("undeclaredIdents = %q, want %q", got, want)
	}
}
