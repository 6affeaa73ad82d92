// Package analysis is the repo's static-analyzer suite: four checkers that
// mechanically prove the determinism, capability, and hot-path invariants
// every regression gate in this reproduction leans on. The golden renders,
// the worker-count-independent engines, and the BENCH_seed1.json cell diffs
// are only trustworthy because result paths never observe map iteration
// order, wall-clock time, or GOMAXPROCS — contracts that used to live in
// tests and reviewer memory and are enforced here instead. The root
// package's TestGraphlintClean runs the suite over ./... in-process, so
// `go test ./...` is the gate; cmd/graphlint prints the same findings.
//
// The framework mirrors the golang.org/x/tools/go/analysis shape (Analyzer,
// Pass, Diagnostic) but is built purely on the standard library's go/ast and
// go/types, with export data supplied by `go list -export`, so the suite
// needs no dependencies outside the Go toolchain.
//
// The analyzers:
//
//   - forbid: one table of "only X may do Y" rows — wall-clock, global
//     math/rand, core counts, sync.Once, the environment, unsafe, the
//     daemon's imports, private fan-outs, per-strategy ingress declarations,
//     init functions — each with its sanctioned packages and its waiver
//     marker, if any.
//   - detrange: no ranging over maps, in any package, unless the keys are
//     collected (optionally filtered) and sorted, the loop is an
//     order-independent idiom (map clearing), or the site carries a
//     //graphlint:unordered waiver explaining why order cannot reach a
//     result.
//   - nondet: where a nondeterministic source is legal (internal/service
//     times requests), it still may not be embedded directly in a
//     report.Cell Value.
//   - unsafeguard: inside the mmap layer (internal/graph/mmap*.go,
//     csr_view.go), each unsafe use is covered by an invariant comment.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a Pass and reports findings
// through Pass.Reportf; returning an error means the analyzer itself could
// not run (not that the code is in violation).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diagnostics []Diagnostic
	comments    map[string]map[int][]string // filename → line → comment texts
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the full graphlint suite in the order the multichecker runs it.
func All() []*Analyzer {
	return []*Analyzer{Detrange, Forbid, Nondet, Unsafeguard}
}

// RunAnalyzers applies each analyzer to each package and returns every
// diagnostic, sorted by file position then analyzer name.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Types.Path(), err)
			}
			out = append(out, pass.diagnostics...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// --- shared predicates -------------------------------------------------

// Waived reports whether node carries (or is immediately preceded by) a
// comment containing the given //graphlint:<name> marker. Waivers document
// why the invariant cannot be violated at this site; the analyzer trusts
// the human, but the marker makes every exception greppable, and forbid
// flags a marker that states no reason.
func (p *Pass) Waived(f *ast.File, node ast.Node, marker string) bool {
	p.buildComments(f)
	pos := p.Fset.Position(node.Pos())
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, text := range p.comments[pos.Filename][line] {
			if strings.Contains(text, marker) {
				return true
			}
		}
	}
	return false
}

func (p *Pass) buildComments(f *ast.File) {
	name := p.Fset.Position(f.Pos()).Filename
	if p.comments == nil {
		p.comments = map[string]map[int][]string{}
	}
	if p.comments[name] != nil {
		return
	}
	lines := map[int][]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			start := p.Fset.Position(c.Pos()).Line
			end := p.Fset.Position(c.End()).Line
			for line := start; line <= end; line++ {
				lines[line] = append(lines[line], c.Text)
			}
		}
	}
	p.comments[name] = lines
}

// enclosingFunc returns the innermost FuncDecl or FuncLit body containing
// pos, or nil.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos < body.End() {
			best = body // keep descending: inner funcs overwrite outer
		}
		return true
	})
	return best
}

// calleeFunc resolves a call expression to the package-level function it
// invokes (directly or via a package selector), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
