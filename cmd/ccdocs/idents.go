// Identifier cross-check: every backticked pkg.Name in the reference
// docs whose pkg is a package under internal/ must name a top-level
// declaration or a method of that package, so a deleted or renamed
// identifier cannot linger in the docs. The declarations are read with
// go/parser from the package's non-test files. A token is the dotted run
// starting at pkg; only its first two segments are checked. A Name of
// lowercase letters, digits and underscores alone is skipped: that is
// the shape of telemetry names (haas.granted) and file names (haas.go),
// which share the pkg.name form. CHANGES.md and ROADMAP.md record
// history and plans, so they are not checked.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

var (
	// identDocs are the root docs whose identifiers must resolve; every
	// markdown file under .claude/skills/ is checked too.
	identDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md"}
	// dottedRe matches a dotted run of identifier-like segments.
	dottedRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+`)
)

// checkDocIdents reports every pkg.Name in the reference docs that no
// internal/ package declares.
func checkDocIdents(root string) []string {
	decls := internalDecls(root)
	var problems []string
	for _, md := range markdownFiles(root) {
		rel, _ := filepath.Rel(root, md)
		rel = filepath.ToSlash(rel)
		if !slices.Contains(identDocs, rel) && !strings.HasPrefix(rel, ".claude/skills/") {
			continue
		}
		data, _ := os.ReadFile(md) // checkMarkdownLinks reports read errors
		for _, p := range undeclaredIdents(string(data), decls) {
			problems = append(problems, rel+":"+p)
		}
	}
	return problems
}

// internalDecls maps each package name under internal/ to the names of
// its top-level declarations and methods. Files that fail to parse are
// skipped; checkTelemetryDocs reports them.
func internalDecls(root string) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	return decls
}

// undeclaredIdents returns "line: package pkg declares no Name" for each
// code-span token in doc that names an internal package and an
// identifier the package lacks.
func undeclaredIdents(doc string, decls map[string]map[string]bool) []string {
	var problems []string
	for ln, line := range strings.Split(doc, "\n") {
		for _, span := range backtickRe.FindAllStringSubmatch(line, -1) {
			code := span[1]
			for _, at := range dottedRe.FindAllStringIndex(code, -1) {
				if at[0] > 0 && strings.ContainsRune("/.-", rune(code[at[0]-1])) {
					continue // a path or a longer dotted name's tail
				}
				tok := code[at[0]:at[1]]
				segs := strings.Split(tok, ".")
				names, ok := decls[segs[0]]
				if !ok || names[segs[1]] || strings.ToLower(segs[1]) == segs[1] {
					continue // not an internal package, declared, or telemetry/file-shaped
				}
				problems = append(problems, fmt.Sprintf("%d: package %s declares no %s",
					ln+1, segs[0], segs[1]))
			}
		}
	}
	return problems
}
