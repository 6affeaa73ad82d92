package analysis

import "go/ast"

// Unsafeguard holds the mmap layer to its documentation. The zero-copy load
// path reinterprets mapped bytes as []Edge / []uint32 slices, which is sound
// only under the invariants csr_view.go states (little-endian host,
// 8-aligned payload, pinned mapping). Where unsafe and reflect-header
// aliasing may appear at all is a row of the forbid table; inside the files
// that row sanctions, every use must be covered by an invariant comment — a
// doc comment on the enclosing declaration or a comment on the preceding
// line — so each aliasing site states why it is sound.
var Unsafeguard = &Analyzer{
	Name: "unsafeguard",
	Doc:  "every unsafe/reflect-header use inside the mmap layer carries an invariant comment",
	Run:  runUnsafeguard,
}

func runUnsafeguard(pass *Pass) error {
	aliasing := refRules["unsafe.*"]
	for _, f := range pass.Files {
		if !aliasing.sanctions(pass.Pkg.Name(), pass.Fset.Position(f.Pos()).Filename) {
			continue // outside the layer every use is already a forbid finding
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || refRule(obj) != aliasing {
				return true
			}
			if !hasInvariantComment(pass, f, sel) {
				pass.Reportf(sel.Pos(),
					"%s without an invariant comment: state why this aliasing is sound on the enclosing declaration or the preceding line", qualified(obj))
			}
			return true
		})
	}
	return nil
}

// hasInvariantComment reports whether the use is covered by documentation:
// a comment on the line before the use (or its enclosing statement), or a
// doc comment on the enclosing top-level declaration.
func hasInvariantComment(pass *Pass, f *ast.File, n ast.Node) bool {
	p := pass // any comment suffices; the content is reviewed by humans
	if p.Waived(f, n, "") {
		return true
	}
	if stmtWaived(p, f, n, "") {
		return true
	}
	for _, decl := range f.Decls {
		if decl.Pos() <= n.Pos() && n.End() <= decl.End() {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				return d.Doc != nil
			case *ast.GenDecl:
				if d.Doc != nil {
					return true
				}
				for _, spec := range d.Specs {
					if spec.Pos() <= n.Pos() && n.End() <= spec.End() {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							return s.Doc != nil || s.Comment != nil
						case *ast.TypeSpec:
							return s.Doc != nil || s.Comment != nil
						}
					}
				}
			}
		}
	}
	return false
}
