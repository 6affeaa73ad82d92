package analysis

import (
	"go/ast"
	"go/types"
)

// NondetWaiver marks a site where a wall-clock / core-count / global-rand
// read provably cannot reach a deterministic result, with the proof cited:
// //graphlint:nondet <why the value never reaches a result>.
const NondetWaiver = "graphlint:nondet"

// Nondet flags nondeterministic value sources in packages whose outputs are
// regression-gated byte-for-byte. Two rules:
//
//  1. Outside the sanctioned packages (service, which times requests, and
//     par, which owns the one GOMAXPROCS worker default), no internal
//     package may call time.Now/Since/Until, runtime.GOMAXPROCS/NumCPU, or
//     the global math/rand functions (seeded rand.New sources are fine —
//     they are deterministic by construction). A read that provably cannot
//     reach a result carries a //graphlint:nondet waiver saying why.
//  2. Inside a sanctioned package, timing is legal but must flow through
//     named variables: a nondeterministic call embedded directly in a
//     report.Cell's Value is flagged, so every wall-clock cell is auditable
//     at the measurement site.
var Nondet = &Analyzer{
	Name: "nondet",
	Doc:  "flag wall-clock, global rand, and core-count reads on deterministic result paths",
	Run:  runNondet,
}

// nondetFuncName describes a flagged source for diagnostics, or "" if the
// function is not a nondeterminism source.
func nondetFuncName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "runtime":
		switch fn.Name() {
		case "GOMAXPROCS", "NumCPU":
			return "runtime." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		// Constructors of explicitly-seeded generators are deterministic;
		// everything else at package level draws from the global source.
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return ""
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "" // methods on a seeded *Rand are fine
		}
		return "rand." + fn.Name()
	}
	return ""
}

func runNondet(pass *Pass) error {
	sanctioned := nondetSanctioned[pass.Pkg.Name()]
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sanctioned {
				return inspectCellValue(pass, f, n)
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := nondetFuncName(calleeFunc(pass.Info, call))
			if name == "" {
				return true
			}
			if stmtWaived(pass, f, call, NondetWaiver) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s in deterministic package %s: results here are regression-gated byte-for-byte; thread the value in as an input, or waive with //%s <proof it cannot reach a result>",
				name, pass.Pkg.Name(), NondetWaiver)
			return true
		})
	}
	return nil
}

// inspectCellValue enforces rule 2 in the sanctioned packages: a
// report.Cell composite literal whose Value entry contains a
// nondeterministic call directly.
func inspectCellValue(pass *Pass, f *ast.File, n ast.Node) bool {
	cl, ok := n.(*ast.CompositeLit)
	if !ok {
		return true
	}
	tv, ok := pass.Info.Types[cl]
	if !ok || !isReportCell(tv.Type) {
		return true
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Value" {
			continue
		}
		ast.Inspect(kv.Value, func(v ast.Node) bool {
			call, ok := v.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := nondetFuncName(calleeFunc(pass.Info, call))
			if name == "" {
				return true
			}
			if stmtWaived(pass, f, cl, NondetWaiver) || stmtWaived(pass, f, call, NondetWaiver) {
				return true
			}
			pass.Reportf(call.Pos(),
				"%s embedded directly in a report.Cell Value; measure into a named variable at the sanctioned timing site, then derive the cell",
				name)
			return true
		})
	}
	return true
}

// isReportCell reports whether t is (a pointer to) the Cell type of a
// package named report.
func isReportCell(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Cell" && obj.Pkg() != nil && obj.Pkg().Name() == "report"
}

// stmtWaived extends Waived to also accept the marker on the enclosing
// statement's first line, so a call nested in a multi-line expression can
// be waived where the statement starts.
func stmtWaived(pass *Pass, f *ast.File, node ast.Node, marker string) bool {
	if pass.Waived(f, node, marker) {
		return true
	}
	// Walk up to the statement that contains the node, approximated by the
	// innermost enclosing function's statement list.
	body := enclosingFunc(f, node.Pos())
	if body == nil {
		return false
	}
	var stmt ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(ast.Stmt); ok && s.Pos() <= node.Pos() && node.End() <= s.End() {
			stmt = s // innermost wins: keep descending
		}
		return true
	})
	return stmt != nil && pass.Waived(f, stmt, marker)
}
