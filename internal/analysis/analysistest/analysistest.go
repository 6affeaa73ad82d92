// Package analysistest runs graphlint analyzers over fixture packages under
// testdata/src and checks their diagnostics against expectations embedded in
// the fixtures, mirroring golang.org/x/tools/go/analysis/analysistest on the
// repo's stdlib-only framework.
//
// An expectation is a comment of the form
//
//	// want `regexp`
//
// on the line the diagnostic is reported at. Where a comment on that line
// would change the analyzer's behavior (unsafeguard treats any adjacent
// comment as an invariant comment), the expectation can sit on a nearby
// line and point at the real one with a relative offset:
//
//	// want:-2 `regexp`
//
// Every diagnostic must match an expectation on its line and every
// expectation must be matched by at least one diagnostic; anything else
// fails the test.
package analysistest

import (
	"regexp"
	"strconv"
	"testing"

	"graphpart/internal/analysis"
)

var wantRe = regexp.MustCompile("//\\s*want(?::(-?\\d+))?\\s+`([^`]+)`")

type lineKey struct {
	file string
	line int
}

// Run loads the fixture packages matching root/<path> (root is the
// testdata/src directory; path may end in /... for a fixture of several
// packages) with analysis.Load, exactly as the tree itself is loaded, applies
// the analyzers, and asserts the diagnostics and the fixtures' want comments
// match exactly. It returns the diagnostics.
func Run(t *testing.T, root, path string, analyzers ...*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := analysis.Load(root, "./"+path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no package", path)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", path, err)
	}

	type expect struct {
		re      *regexp.Regexp
		raw     string
		key     lineKey
		matched bool
	}
	var expects []*expect
	byKey := map[lineKey][]*expect{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						line := pos.Line
						if m[1] != "" {
							off, err := strconv.Atoi(m[1])
							if err != nil {
								t.Fatalf("%s:%d: bad want offset %q", pos.Filename, pos.Line, m[1])
							}
							line += off
						}
						re, err := regexp.Compile(m[2])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[2], err)
						}
						e := &expect{re: re, raw: m[2], key: lineKey{pos.Filename, line}}
						expects = append(expects, e)
						byKey[e.key] = append(byKey[e.key], e)
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, e := range byKey[k] {
			if e.re.MatchString(d.Message) {
				e.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", k.file, k.line, d.Analyzer, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("missing diagnostic at %s:%d: no finding matched %q", e.key.file, e.key.line, e.raw)
		}
	}
	return diags
}
