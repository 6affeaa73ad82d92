// The docs gate: a backticked `pkg.Name` or `pkg.Name.Member` in README.md
// or docs/*.md names live code, so a doc cannot keep describing a
// declaration after it is deleted or renamed.
package main

import (
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"graphpart/internal/analysis"
)

// codeSpan is one inline code span; it may wrap lines but not cross a
// blank line, so one stray backtick misreads a paragraph at most.
var codeSpan = regexp.MustCompile("`(?:[^`\n]|\n[^`\n])+`")

// docRef is a package-qualified reference inside a span: a lowercase
// package name, a capitalised declaration and an optional member. A
// lowercase tail (`partition.assign_s`, a benchmark metric) never matches.
var docRef = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)

// TestDocsNameLiveCode loads ./... the way TestGraphlintClean does and fails
// on every reference whose package is one of the module's (by name) and
// whose declaration, or member of it, go/types does not find. A prefix that
// is no package of the module (`time.Now`, `svc.qps`) is not checked.
func TestDocsNameLiveCode(t *testing.T) {
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]*types.Package{}
	for _, p := range pkgs {
		if name := p.Types.Name(); name != "main" {
			byName[name] = append(byName[name], p.Types)
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, doc := range append([]string{"README.md"}, docs...) {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := withoutFences(string(src))
		for _, span := range codeSpan.FindAllStringIndex(text, -1) {
			for _, m := range docRef.FindAllStringSubmatchIndex(text[span[0]:span[1]], -1) {
				at := func(g int) string {
					if m[2*g] < 0 {
						return ""
					}
					return text[span[0]+m[2*g] : span[0]+m[2*g+1]]
				}
				candidates, ok := byName[at(1)]
				if !ok {
					continue
				}
				checked++
				if !resolves(candidates, at(2), at(3)) {
					ref := strings.TrimSuffix(at(1)+"."+at(2)+"."+at(3), ".")
					line := 1 + strings.Count(text[:span[0]+m[2]], "\n")
					t.Errorf("%s:%d: `%s` names nothing declared in package %s", doc, line, ref, at(1))
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no package-qualified reference found in the docs; the scan is broken")
	}
}

// withoutFences blanks every line of a fenced code block, keeping the line
// count, so line numbers still point into the file.
func withoutFences(src string) string {
	lines := strings.Split(src, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

// resolves reports whether any of the same-named packages declares name at
// package level and, when member is set, whether that declaration's type
// has a field or method of that name.
func resolves(pkgs []*types.Package, name, member string) bool {
	for _, p := range pkgs {
		obj := p.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if member == "" {
			return true
		}
		if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p, member); m != nil {
			return true
		}
	}
	return false
}
