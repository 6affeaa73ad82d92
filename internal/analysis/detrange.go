package analysis

import (
	"go/ast"
	"go/types"
)

// UnorderedWaiver is the comment marker that waives a map-range finding:
// the author asserts iteration order cannot reach any result. Write it as
// //graphlint:unordered <why order does not matter>.
const UnorderedWaiver = "graphlint:unordered"

// Detrange flags `for ... := range m` over maps in every package. Map
// iteration order is randomized per loop, so any map range on a result
// path can leak scheduling noise into golden renders, BENCH cell values,
// fitted models or replies. Three shapes are recognized as safe:
//
//   - collect-and-sort: every statement in the body, or in the body's one
//     else-less if, appends to slices, and each collected slice is later
//     passed to a sort.* / slices.* call in the same function;
//   - map clearing: a body that only delete()s the ranged key from the
//     ranged map (order-independent by the language spec);
//   - `for range m` with no iteration variables (pure repetition).
//
// Anything else needs a //graphlint:unordered waiver stating why order
// cannot be observed.
var Detrange = &Analyzer{
	Name: "detrange",
	Doc:  "flag unordered map iteration",
	Run:  runDetrange,
}

func runDetrange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Info.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if rs.Key == nil && rs.Value == nil {
				return true // pure repetition; no order observable
			}
			if pass.Waived(f, rs, UnorderedWaiver) {
				return true
			}
			if isMapClearLoop(pass, rs) || isCollectAndSort(pass, f, rs) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"non-deterministic iteration over map %s; iterate sorted keys, or waive with //%s <reason>",
				types.ExprString(rs.X), UnorderedWaiver)
			return true
		})
	}
	return nil
}

// isMapClearLoop matches `for k := range m { delete(m, k) }`, which the
// spec defines to remove every entry regardless of order.
func isMapClearLoop(pass *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 || rs.Value != nil {
		return false
	}
	es, ok := rs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "delete" {
		return false
	}
	if b, ok := pass.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "delete" {
		return false
	}
	return sameObject(pass, call.Args[0], rs.X) && sameObject(pass, call.Args[1], rs.Key)
}

// isCollectAndSort matches the sorted-key idiom: the body only appends the
// iteration variables into slices, or is one if without an else that only
// does (a filter), and every one of those slices reaches a sort.* or
// slices.* call later in the same function. The sort is what discharges
// the obligation — collecting alone still leaks order.
func isCollectAndSort(pass *Pass, f *ast.File, rs *ast.RangeStmt) bool {
	stmts := rs.Body.List
	if len(stmts) == 1 {
		if is, ok := stmts[0].(*ast.IfStmt); ok && is.Init == nil && is.Else == nil {
			stmts = is.Body.List
		}
	}
	var collected []types.Object
	for _, stmt := range stmts {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "append" {
			return false
		}
		if b, ok := pass.Info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		obj := exprObject(pass, as.Lhs[0])
		if obj == nil {
			return false
		}
		collected = append(collected, obj)
	}
	if len(collected) == 0 {
		return false
	}
	body := enclosingFunc(f, rs.Pos())
	if body == nil {
		return false
	}
	for _, obj := range collected {
		if !sortedAfter(pass, body, rs, obj) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj is passed (anywhere in the argument
// tree) to a sort.* or slices.* call after the loop, in the same function.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() < rs.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if e, ok := a.(ast.Expr); ok && exprObject(pass, e) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// exprObject resolves an identifier or a field selector (x.f) to the
// variable object it denotes, so collect-and-sort also recognizes slices
// held in struct fields.
func exprObject(pass *Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[x]; obj != nil {
			return obj
		}
		return pass.Info.Defs[x]
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
	}
	return nil
}

// sameObject reports whether two expressions are uses of the same
// variable.
func sameObject(pass *Pass, a, b ast.Expr) bool {
	ai, ok := ast.Unparen(a).(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := ast.Unparen(b).(*ast.Ident)
	if !ok {
		return false
	}
	ao := pass.Info.Uses[ai]
	bo := pass.Info.Uses[bi]
	if bo == nil {
		bo = pass.Info.Defs[bi]
	}
	return ao != nil && ao == bo
}
