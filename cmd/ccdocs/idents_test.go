package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestInternalDeclsReadsPackages(t *testing.T) {
	decls := internalDecls("../..")
	haas := decls["haas"]
	for _, want := range []string{"Pool", "NewPool", "Grow", "NodeStateOf", "freeNode"} {
		if !haas.names[want] {
			t.Errorf("haas.%s not found", want)
		}
	}
	if !haas.members["Pool"]["Grow"] {
		t.Error("method haas.Pool.Grow not found")
	}
	if haas.names["ServiceManager"] {
		t.Error("haas.ServiceManager reported, but package haas does not declare it")
	}

	// No internal package is nested today, so build one.
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "outer", "inner")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "inner.go"), []byte("package inner\n\nfunc Nested() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !internalDecls(root)["inner"].names["Nested"] {
		t.Error("a nested package (internal/outer/inner) was not read")
	}
}

func TestUndeclaredIdents(t *testing.T) {
	haas := newPkgDecls()
	haas.names["Pool"], haas.names["Grow"] = true, true
	haas.member("Pool", "Grow")
	decls := map[string]*pkgDecls{"haas": haas}
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

// A third segment must be a field or method of the type, its own or
// promoted through an embedded field.
func TestUndeclaredMembers(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "cfg")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package cfg

import "sync"

type Base struct{ Seed int }

func (b *Base) Reset() {}

type Sweep struct {
	*Base
	Cores int
}

type Locked struct{ sync.Mutex }

type Loop struct{ *Loop }

type Mode int

func (Mode) String() string { return "" }

type Runner interface{ Run() }

func New() *Sweep { return nil }
`
	if err := os.WriteFile(filepath.Join(dir, "cfg.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := "`cfg.Sweep.Cores`, `cfg.Sweep.Seed`, `cfg.Sweep.Reset()`, `cfg.Sweep.Base.Seed` and `cfg.Mode.String` resolve.\n" +
		"So do `cfg.Runner.Run`, `cfg.Locked.Lock` (sync is not listed) and `cfg.New.Seed` (not a type).\n" +
		"The deleted `cfg.Sweep.RemoteFPGAs`, `cfg.Mode.Parse`, `cfg.Runner.Stop` and `cfg.Loop.Gone` do not.\n"
	want := []string{
		"3: cfg.Sweep has no RemoteFPGAs",
		"3: cfg.Mode has no Parse",
		"3: cfg.Runner has no Stop",
		"3: cfg.Loop has no Gone",
	}
	if got := undeclaredIdents(doc, internalDecls(root)); !reflect.DeepEqual(got, want) {
		t.Errorf("undeclaredIdents = %q, want %q", got, want)
	}
}
