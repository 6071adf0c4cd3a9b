// Flag cross-check: every -name on a ccexperiment command line in a
// *.md file must be a flag cmd/ccexperiment/main.go defines, so a
// deleted flag cannot linger in the docs. The flags are read with
// go/parser: a flag.X call names its flag in argument 1 for the ...Var
// definers and in argument 0 otherwise; -h and -help are the flag
// package's own. A command line is the rest of a fenced-block line, or
// of an inline code span (which may wrap), after the word ccexperiment,
// up to a shell separator; shell comments count. A line saying a flag
// was deleted or removed, as a change log does, may still name it.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	commandRe   = regexp.MustCompile(`\bccexperiment\b`)
	flagTokenRe = regexp.MustCompile(`(?:^|\s)--?([a-z][a-z0-9-]*)`)
	shellSepRe  = regexp.MustCompile(`\s(?:\||&&|;)`)
	codeSpanRe  = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)*)`") // wraps, but not past a blank line
	retiredRe   = regexp.MustCompile(`(?i)\b(?:delete[sd]?|remove[sd]?|drop(?:s|ped)?|gone)\b`)
)

// checkExperimentFlags reports every flag a markdown file passes to
// ccexperiment that cmd/ccexperiment/main.go does not define.
func checkExperimentFlags(root string) []string {
	src := filepath.Join(root, "cmd", "ccexperiment", "main.go")
	f, err := parser.ParseFile(token.NewFileSet(), src, nil, 0)
	if err != nil {
		return []string{err.Error()}
	}
	defined := experimentFlags(f)
	var problems []string
	for _, md := range markdownFiles(root) {
		data, _ := os.ReadFile(md) // checkMarkdownLinks reports read errors
		rel, _ := filepath.Rel(root, md)
		for _, p := range undefinedFlags(string(data), defined) {
			problems = append(problems, rel+":"+p)
		}
	}
	return problems
}

// experimentFlags returns the flag names f defines.
func experimentFlags(f *ast.File) map[string]bool {
	names := map[string]bool{"h": true, "help": true}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
					i := 0
					if strings.HasSuffix(sel.Sel.Name, "Var") {
						i = 1
					}
					if i < len(call.Args) {
						if name := foldStringExpr(call.Args[i]); name != "" {
							names[name] = true
						}
					}
				}
			}
		}
		return true
	})
	return names
}

// undefinedFlags returns "line: ccexperiment has no flag -name" for each
// flag a ccexperiment command line in doc passes that defined lacks.
func undefinedFlags(doc string, defined map[string]bool) []string {
	var problems []string
	check := func(cmd, lines string, line int) {
		at := commandRe.FindStringIndex(cmd)
		if at == nil || retiredRe.MatchString(lines) {
			return
		}
		rest := cmd[at[1]:]
		if sep := shellSepRe.FindStringIndex(rest); sep != nil {
			rest = rest[:sep[0]]
		}
		for _, m := range flagTokenRe.FindAllStringSubmatch(rest, -1) {
			if !defined[m[1]] {
				problems = append(problems, fmt.Sprintf("%d: ccexperiment has no flag -%s", line, m[1]))
			}
		}
	}
	var prose strings.Builder // doc with fenced lines blanked, so offsets keep their line
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
		} else if fenced {
			check(line, line, i+1)
		} else {
			prose.WriteString(line)
		}
		prose.WriteByte('\n')
	}
	text := prose.String()
	for _, m := range codeSpanRe.FindAllStringSubmatchIndex(text, -1) {
		start := strings.LastIndexByte(text[:m[0]], '\n') + 1
		end := m[1] + strings.IndexByte(text[m[1]:], '\n')
		check(text[m[2]:m[3]], text[start:end], strings.Count(text[:m[0]], "\n")+1)
	}
	return problems
}
