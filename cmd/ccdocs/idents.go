// Identifier cross-check: every backticked pkg.Name in the reference
// docs whose pkg is a package under internal/ must name a top-level
// declaration or a method of that package, so a deleted or renamed
// identifier cannot linger in the docs. When Name is a type, a third
// segment (pkg.Type.Member) must name a field or method of that type, its
// own or promoted through an embedded field. The declarations are read
// with go/parser from the package's non-test files. A token is the dotted
// run starting at pkg; only its first three segments are checked. A Name of
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
	"go/types"
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
// internal/ package declares, and every pkg.Type.Member the type lacks.
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

// pkgDecls is what one internal package declares.
type pkgDecls struct {
	// names holds the top-level declarations and methods.
	names map[string]bool
	// members maps each declared type to its own fields and methods.
	members map[string]map[string]bool
	// embeds maps a type to its embedded types, as {pkg, type}; pkg is ""
	// for a type of the same package.
	embeds map[string][][2]string
	// open marks a type defined from another named type: its members
	// cannot be listed here, so any member resolves.
	open map[string]bool
}

func newPkgDecls() *pkgDecls {
	return &pkgDecls{
		names:   map[string]bool{},
		members: map[string]map[string]bool{},
		embeds:  map[string][][2]string{},
		open:    map[string]bool{},
	}
}

// member records m as a field or method of type typ.
func (pd *pkgDecls) member(typ, m string) {
	if pd.members[typ] == nil {
		pd.members[typ] = map[string]bool{}
	}
	pd.members[typ][m] = true
}

// typeName unwraps pointers and type arguments to the named type of e,
// as {pkg, name}; ok is false for any other type expression.
func typeName(e ast.Expr) (ref [2]string, ok bool) {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return [2]string{"", t.Name}, true
		case *ast.SelectorExpr:
			if x, isIdent := t.X.(*ast.Ident); isIdent {
				return [2]string{x.Name, t.Sel.Name}, true
			}
			return ref, false
		default:
			return ref, false
		}
	}
}

// addType records a type declaration's fields, embedded types and
// interface methods.
func (pd *pkgDecls) addType(s *ast.TypeSpec) {
	name := s.Name.Name
	pd.names[name] = true
	if pd.members[name] == nil {
		pd.members[name] = map[string]bool{}
	}
	var fields *ast.FieldList
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	case *ast.Ident:
		pd.open[name] = types.Universe.Lookup(t.Name) == nil
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr, *ast.IndexListExpr:
		pd.open[name] = true
	}
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			pd.member(name, n.Name)
		}
		if len(f.Names) > 0 {
			continue
		}
		ref, ok := typeName(f.Type)
		if !ok {
			continue // a type-set term of a constraint interface
		}
		pd.member(name, ref[1]) // an embedded field is named after its type
		pd.embeds[name] = append(pd.embeds[name], ref)
	}
}

// internalDecls maps each package name under internal/ to its
// declarations. Files that fail to parse are skipped;
// checkTelemetryDocs reports them.
func internalDecls(root string) map[string]*pkgDecls {
	decls := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		pd := decls[f.Name.Name]
		if pd == nil {
			pd = newPkgDecls()
			decls[f.Name.Name] = pd
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				pd.names[d.Name.Name] = true
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if ref, ok := typeName(d.Recv.List[0].Type); ok {
						pd.member(ref[1], d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						pd.addType(s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							pd.names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	return decls
}

// hasMember reports whether type pkg.typ has a field or method m, its
// own or promoted through an embedded field. A type this check cannot
// list, one outside internal/ or an open one, has every member.
func hasMember(decls map[string]*pkgDecls, pkg, typ, m string, seen map[[2]string]bool) bool {
	pd := decls[pkg]
	if pd == nil || pd.open[typ] || pd.members[typ] == nil {
		return true
	}
	if seen[[2]string{pkg, typ}] {
		return false
	}
	seen[[2]string{pkg, typ}] = true
	if pd.members[typ][m] {
		return true
	}
	for _, e := range pd.embeds[typ] {
		if e[0] == "" {
			e[0] = pkg
		}
		if hasMember(decls, e[0], e[1], m, seen) {
			return true
		}
	}
	return false
}

// undeclaredIdents returns "line: package pkg declares no Name" for each
// code-span token in doc that names an internal package and an
// identifier the package lacks, and "line: pkg.Type has no Member" for
// each pkg.Type.Member the type lacks.
func undeclaredIdents(doc string, decls map[string]*pkgDecls) []string {
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
				pd, ok := decls[segs[0]]
				if !ok || strings.ToLower(segs[1]) == segs[1] {
					continue // not an internal package, or telemetry/file-shaped
				}
				if !pd.names[segs[1]] {
					problems = append(problems, fmt.Sprintf("%d: package %s declares no %s",
						ln+1, segs[0], segs[1]))
					continue
				}
				if len(segs) > 2 && !hasMember(decls, segs[0], segs[1], segs[2], map[[2]string]bool{}) {
					problems = append(problems, fmt.Sprintf("%d: %s.%s has no %s",
						ln+1, segs[0], segs[1], segs[2]))
				}
			}
		}
	}
	return problems
}
