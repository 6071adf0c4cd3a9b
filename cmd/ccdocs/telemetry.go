// Telemetry inventory cross-check: every metric, span, and event name
// registered in code must be documented in OBSERVABILITY.md, and every
// name OBSERVABILITY.md documents must still be registered somewhere —
// the doc is the operator's index into telemetry JSONL, and a stale row
// in either direction makes `-trace-dump` diagnosis lie.
//
// The code side is extracted statically (go/parser, no execution): any
// call whose method is Counter/Gauge/Histogram/RuntimeCounter/
// RuntimeGauge takes its name from argument 0; Start/StartAt/Event/
// Range take it from argument 1. Names built by string concatenation
// fold non-literal parts to `*` ("frontend."+name+".shed" becomes
// frontend.*.shed) and Sprintf verbs become `*` (er.flits_vc%d becomes
// er.flits_vc*). A name the folder cannot resolve at all is skipped —
// the doc→code direction then flags its documented counterpart, which
// in practice pushes span names toward literals.
//
// The doc side collects backticked dotted-lowercase tokens whose first
// segment is a prefix some code name uses, normalizing <placeholders>
// to `*` so `er.flits_vc<v>` matches the Sprintf form. Tokens with a
// literal `*` (family globs like `net.*` in section headers) and
// file-name lookalikes (`svclb.go`) are ignored.
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
	"sort"
	"strconv"
	"strings"
)

// telemetryNameRe is the registered-name shape: lowercase dotted, at
// least two segments, `*` allowed as a folded wildcard.
var telemetryNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_*]+)+$`)

// sprintfVerbRe matches printf conversion verbs for wildcard folding.
var sprintfVerbRe = regexp.MustCompile(`%[#+\- 0-9.]*[a-zA-Z]`)

// backtickRe captures inline-code tokens in markdown.
var backtickRe = regexp.MustCompile("`([^`]+)`")

// placeholderRe matches doc-side placeholders like <p> or <v>.
var placeholderRe = regexp.MustCompile(`<[^<>]+>`)

// nameArgIndex maps registration/tracing method names to the position
// of their name argument.
var nameArgIndex = map[string]int{
	"Counter": 0, "Gauge": 0, "Histogram": 0,
	"RuntimeCounter": 0, "RuntimeGauge": 0,
	"Start": 1, "StartAt": 1, "Event": 1, "Range": 1,
}

// checkTelemetryDocs cross-checks code-registered telemetry names
// against OBSERVABILITY.md, both directions.
func checkTelemetryDocs(root string) []string {
	codeNames, problems := collectCodeTelemetry(root)

	docPath := filepath.Join(root, "OBSERVABILITY.md")
	data, err := os.ReadFile(docPath)
	if err != nil {
		return append(problems, fmt.Sprintf("OBSERVABILITY.md: %v", err))
	}
	prefixes := make(map[string]bool)
	for name := range codeNames {
		prefixes[name[:strings.IndexByte(name, '.')]] = true
	}
	docNames := collectDocTelemetry(string(data), prefixes)

	for name, site := range codeNames {
		if _, ok := docNames[name]; !ok {
			problems = append(problems, fmt.Sprintf(
				"OBSERVABILITY.md: missing %q (registered at %s)", name, site))
		}
	}
	for name, line := range docNames {
		if _, ok := codeNames[name]; ok {
			continue
		}
		// `er.flits_vc2` in prose is an instance of the registered
		// family er.flits_vc* — accept it.
		if matchesWildcardFamily(name, codeNames) {
			continue
		}
		problems = append(problems, fmt.Sprintf(
			"OBSERVABILITY.md:%d: documents %q but nothing in the tree registers it", line, name))
	}
	sort.Strings(problems)
	return problems
}

// matchesWildcardFamily reports whether name instantiates some
// wildcard-bearing code name (each `*` standing for one literal
// lowercase run, e.g. er.flits_vc3 against er.flits_vc*).
func matchesWildcardFamily(name string, codeNames map[string]string) bool {
	for pattern := range codeNames {
		if !strings.ContainsRune(pattern, '*') {
			continue
		}
		re := regexp.QuoteMeta(pattern)
		re = "^" + strings.ReplaceAll(re, `\*`, `[a-z0-9_]+`) + "$"
		if regexp.MustCompile(re).MatchString(name) {
			return true
		}
	}
	return false
}

// collectCodeTelemetry parses every non-test Go file under root and
// returns each extracted telemetry name mapped to its first
// registration site (file:line, root-relative).
func collectCodeTelemetry(root string) (map[string]string, []string) {
	names := make(map[string]string)
	var problems []string
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)

	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			idx, ok := nameArgIndex[sel.Sel.Name]
			if !ok || len(call.Args) <= idx {
				return true
			}
			name := foldStringExpr(call.Args[idx])
			if name == "" || !telemetryNameRe.MatchString(name) {
				return true // not a telemetry call (or a non-literal name)
			}
			if _, seen := names[name]; !seen {
				pos := fset.Position(call.Pos())
				rel, _ := filepath.Rel(root, pos.Filename)
				names[name] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
			}
			return true
		})
	}
	return names, problems
}

// foldStringExpr resolves a string expression to a comparable name:
// literals verbatim, concatenations with non-literal parts as `*`,
// Sprintf formats with verbs as `*`. Unresolvable expressions yield "".
func foldStringExpr(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind == token.STRING {
			if s, err := strconv.Unquote(v.Value); err == nil {
				return s
			}
		}
	case *ast.ParenExpr:
		return foldStringExpr(v.X)
	case *ast.BinaryExpr:
		if v.Op == token.ADD {
			l, r := foldStringExpr(v.X), foldStringExpr(v.Y)
			if l == "" {
				l = "*"
			}
			if r == "" {
				r = "*"
			}
			return l + r
		}
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(v.Args) > 0 {
			if format := foldStringExpr(v.Args[0]); format != "" {
				return sprintfVerbRe.ReplaceAllString(format, "*")
			}
		}
	}
	return ""
}

// collectDocTelemetry extracts documented telemetry names from the
// OBSERVABILITY.md text, mapped to their first line number. prefixes
// limits candidates to families some code name actually uses, so prose
// tokens like `out.jsonl` are never mistaken for telemetry.
func collectDocTelemetry(text string, prefixes map[string]bool) map[string]int {
	names := make(map[string]int)
	for ln, line := range strings.Split(text, "\n") {
		for _, m := range backtickRe.FindAllStringSubmatch(line, -1) {
			tok := m[1]
			if strings.ContainsRune(tok, '*') {
				continue // family glob (`net.*`), not one name
			}
			tok = placeholderRe.ReplaceAllString(tok, "*")
			if !telemetryNameRe.MatchString(tok) {
				continue
			}
			if isFileToken(tok) || !prefixes[tok[:strings.IndexByte(tok, '.')]] {
				continue
			}
			if _, seen := names[tok]; !seen {
				names[tok] = ln + 1
			}
		}
	}
	return names
}

// isFileToken reports whether a dotted token is really a file name
// (`svclb.go`, `out.jsonl`) rather than a telemetry name.
func isFileToken(tok string) bool {
	switch tok[strings.LastIndexByte(tok, '.')+1:] {
	case "go", "md", "txt", "json", "jsonl", "yml", "yaml", "html":
		return true
	}
	return false
}
