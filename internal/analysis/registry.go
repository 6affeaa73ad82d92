package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Registry enforces the strategy-registration contract of the partition
// package: strategies are dispatched by capability, never by name, and the
// registry is the only construction path. Concretely, in any package named
// partition that declares a Strategy interface and a Register function:
//
//   - every non-interface type that satisfies Strategy must be registered
//     from an init function in the same file that declares it — named
//     inside a Register call, or the type (or pointer to it) of a value a
//     Register call's factory returns, as when one type's package-level
//     rows register under several names (adding a strategy must never
//     require central edits, and a declared strategy that is not registered
//     is dead weight the experiment tables silently miss);
//   - every such type must implement exactly one ingress capability —
//     StatelessStrategy, StreamingStrategy, or MultiPassStrategy — because
//     ShapeOf, the stream builders and AsIncremental dispatch on exactly
//     one.
var Registry = &Analyzer{
	Name: "registry",
	Doc:  "every strategy type registers in its file's init and declares exactly one ingress capability",
	Run:  runRegistry,
}

// ingressCapabilities are the mutually-exclusive stream-consumption
// contracts, in dispatch order.
var ingressCapabilities = []string{"StatelessStrategy", "StreamingStrategy", "MultiPassStrategy"}

func runRegistry(pass *Pass) error {
	if pass.Pkg.Name() != "partition" {
		return nil
	}
	scope := pass.Pkg.Scope()
	base := lookupInterface(scope, "Strategy")
	registerFn, _ := scope.Lookup("Register").(*types.Func)
	if base == nil || registerFn == nil {
		return nil // not a strategy-registry package
	}
	caps := map[string]*types.Interface{}
	for _, name := range ingressCapabilities {
		if iface := lookupInterface(scope, name); iface != nil {
			caps[name] = iface
		}
	}
	for _, f := range pass.Files {
		registered := registeredTypes(pass, f, registerFn)
		for _, ts := range typeSpecs(f) {
			obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				continue
			}
			T := obj.Type()
			if types.IsInterface(T) || !implements(T, base) {
				continue
			}
			if !registered[obj] {
				pass.Reportf(ts.Pos(),
					"strategy type %s is not registered: call Register(%q, ...) from an init in this file (strategies self-register; no central construction switch exists)",
					obj.Name(), obj.Name())
			}
			var have []string
			for _, name := range ingressCapabilities {
				if iface, ok := caps[name]; ok && implements(T, iface) {
					have = append(have, name)
				}
			}
			switch len(have) {
			case 1: // exactly one ingress capability: correct
			case 0:
				pass.Reportf(ts.Pos(),
					"strategy type %s implements no ingress capability: ShapeOf and the stream builders need exactly one of %s",
					obj.Name(), strings.Join(ingressCapabilities, " / "))
			default:
				pass.Reportf(ts.Pos(),
					"strategy type %s implements %d ingress capabilities (%s): ingress dispatch needs exactly one",
					obj.Name(), len(have), strings.Join(have, ", "))
			}
		}
	}
	return nil
}

// registeredTypes collects the type objects referenced anywhere inside a
// Register(...) call within an init function of file f, and the types
// (behind one pointer) of the values its return statements return.
func registeredTypes(pass *Pass, f *ast.File, registerFn *types.Func) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "init" || fd.Recv != nil || fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); fn != registerFn {
				return true
			}
			ast.Inspect(call, func(a ast.Node) bool {
				switch a := a.(type) {
				case *ast.Ident:
					if tn, ok := pass.Info.Uses[a].(*types.TypeName); ok {
						out[tn] = true
					}
				case *ast.ReturnStmt:
					for _, r := range a.Results {
						if tn := namedObj(pass.Info.TypeOf(r)); tn != nil {
							out[tn] = true
						}
					}
				}
				return true
			})
			return true
		})
	}
	return out
}

// typeSpecs returns every type declaration in the file.
func typeSpecs(f *ast.File) []*ast.TypeSpec {
	var out []*ast.TypeSpec
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				out = append(out, ts)
			}
		}
	}
	return out
}

func lookupInterface(scope *types.Scope, name string) *types.Interface {
	tn, ok := scope.Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

// implements reports whether T or *T satisfies iface.
func implements(T types.Type, iface *types.Interface) bool {
	return types.Implements(T, iface) || types.Implements(types.NewPointer(T), iface)
}
