package analysis

import (
	"go/ast"
	"go/types"
)

// Nondet keeps nondeterministic values auditable where reading them is
// legal. Which sources are nondeterministic, and which packages may read
// them at all, is the forbid table's business (the rows marked nondet:
// wall-clock, core count, global math/rand). This analyzer adds the one rule
// a table row cannot state: such a source may not be embedded directly in a
// report.Cell's Value. Timing flows through named variables, so every
// wall-clock cell is auditable at the measurement site.
var Nondet = &Analyzer{
	Name: "nondet",
	Doc:  "flag wall-clock, global rand, and core-count reads embedded directly in a report.Cell value",
	Run:  runNondet,
}

func runNondet(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			return inspectCellValue(pass, f, n)
		})
	}
	return nil
}

// inspectCellValue flags a report.Cell composite literal whose Value entry
// refers to a nondeterministic source directly.
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
			id, ok := v.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				return true
			}
			if r := refRule(obj); r == nil || !r.nondet {
				return true
			}
			if stmtWaived(pass, f, cl, NondetWaiver) || stmtWaived(pass, f, id, NondetWaiver) {
				return true
			}
			pass.Reportf(id.Pos(),
				"%s embedded directly in a report.Cell Value; measure into a named variable at the sanctioned timing site, then derive the cell",
				qualified(obj))
			return true
		})
	}
	return true
}

// isReportCell reports whether t is (a pointer to) the Cell type of a
// package named report.
func isReportCell(t types.Type) bool {
	obj := namedObj(t)
	return obj != nil && obj.Name() == "Cell" && obj.Pkg() != nil && obj.Pkg().Name() == "report"
}

// namedObj returns the name of t's type, behind at most one pointer; nil
// when that type is not named.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
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
