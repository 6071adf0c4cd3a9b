// Command ccdocs is the documentation linter run by CI's docs job. It
// enforces four repo invariants with nothing but the standard library:
//
//   - every relative markdown link in the repo's *.md files resolves to a
//     file or directory that exists (anchors and external URLs are not
//     checked),
//   - every package under internal/ and cmd/ carries a package doc
//     comment — the godoc sweep that maps each subsystem to its paper
//     section must not rot as packages are added, and
//   - every metric, span, and event name registered in code appears in
//     OBSERVABILITY.md and every name documented there is still
//     registered by code (see telemetry.go for the extraction rules), and
//   - every flag a ccexperiment command line in the docs passes is one
//     cmd/ccexperiment defines (see flags.go).
//
// Usage:
//
//	ccdocs [-root dir]
//
// Exits non-zero listing every violation.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// linkRe matches inline markdown links and images: [text](target).
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

func main() {
	root := flag.String("root", ".", "repository root to lint")
	flag.Parse()

	var problems []string
	problems = append(problems, checkMarkdownLinks(*root)...)
	problems = append(problems, checkPackageDocs(*root)...)
	problems = append(problems, checkTelemetryDocs(*root)...)
	problems = append(problems, checkExperimentFlags(*root)...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "ccdocs: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("ccdocs: ok")
}

// checkMarkdownLinks verifies that relative link targets in every
// markdown file under root exist on disk.
func checkMarkdownLinks(root string) []string {
	var problems []string
	mds := markdownFiles(root)
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", md, err))
			continue
		}
		for ln, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				continue
			}
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if skipLink(target) {
					continue
				}
				// Strip an in-file anchor; a bare file check is all the
				// stdlib affords.
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
					if target == "" {
						continue
					}
				}
				p := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
				if _, err := os.Stat(p); err != nil {
					rel, _ := filepath.Rel(root, md)
					problems = append(problems,
						fmt.Sprintf("%s:%d: broken link %q", rel, ln+1, m[1]))
				}
			}
		}
	}
	return problems
}

func skipLink(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "#")
}

// markdownFiles lists *.md files at the root and one level of
// subdirectories the repo documents (skipping VCS and vendor-ish dirs).
func markdownFiles(root string) []string {
	var mds []string
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
		if strings.EqualFold(filepath.Ext(path), ".md") {
			mds = append(mds, path)
		}
		return nil
	})
	sort.Strings(mds)
	return mds
}

// checkPackageDocs parses every Go package directory under internal/ and
// cmd/ and reports those whose files all lack a package doc comment.
func checkPackageDocs(root string) []string {
	var problems []string
	var dirs []string
	for _, base := range []string{"internal", "cmd"} {
		filepath.WalkDir(filepath.Join(root, base), func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() {
				dirs = append(dirs, path)
			}
			return nil
		})
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		matches, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		documented, hasGo := false, false
		fset := token.NewFileSet()
		for _, g := range matches {
			if strings.HasSuffix(g, "_test.go") {
				continue
			}
			hasGo = true
			f, err := parser.ParseFile(fset, g, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", g, err))
				continue
			}
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				documented = true
			}
		}
		if hasGo && !documented {
			rel, _ := filepath.Rel(root, dir)
			problems = append(problems,
				fmt.Sprintf("%s: package has no package doc comment", rel))
		}
	}
	return problems
}
