package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// NondetWaiver marks a site where a wall-clock or global-rand read provably
// cannot reach a deterministic result, with the proof cited:
// //graphlint:nondet <why the value never reaches a result>.
const NondetWaiver = "graphlint:nondet"

// Forbid is the table of things that may not appear outside the package that
// owns them. Every "only X may do Y" invariant of the repo is one row of
// forbidden: what is banned, where it is sanctioned, whether a single site
// can be waived, and what to do instead. Rows are resolved through go/types,
// so a renamed import, a dot import or a function value (`f := time.Now`) is
// the same finding as the plain call. The analyzer also holds the waiver
// grammar to its word: a //graphlint: marker with no justification after it
// is a finding.
var Forbid = &Analyzer{
	Name: "forbid",
	Doc:  "flag banned references, imports and declarations outside the package that owns them",
	Run:  runForbid,
}

// A rule is one row. A site trips it by referring to one of refs, importing
// one of imports, or declaring one of decls, in a package (and file) the row
// does not sanction, without the row's waiver.
type rule struct {
	refs    []string // "pkgpath.Name" of a package-level object; "pkgpath.*" is every one but except
	except  []string
	imports []string // import paths, banned as direct imports
	decls   []string // declared names; "Name()" is only a method without parameters
	in      []string // names of the sanctioned packages; none means nowhere
	files   []string // base-name globs narrowing in to some files; none means all
	waiver  string   // marker excusing one site with its proof; "" means not waivable
	nondet  bool     // a nondeterministic value source (see Nondet)

	// The finding reads "<what> <where> <package>: <why>".
	where, why string
}

const deterministic = "in deterministic package"

var forbidden = []rule{
	{
		refs: []string{"time.Now", "time.Since", "time.Until"},
		in:   []string{"main", "service"}, waiver: NondetWaiver, nondet: true,
		where: deterministic,
		why:   "results here are regression-gated byte-for-byte; thread the value in as an input, or waive with //" + NondetWaiver + " <proof it cannot reach a result>",
	},
	{
		refs: []string{"runtime.GOMAXPROCS", "runtime.NumCPU"},
		in:   []string{"main", "par"}, nondet: true,
		where: deterministic,
		why:   "internal/par owns the one worker-count default; call par.Workers (no waiver exists for this)",
	},
	{
		// Everything at package level draws from the global source, except
		// the API of an explicitly seeded generator.
		refs: []string{"math/rand.*", "math/rand/v2.*"},
		except: []string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8",
			"Rand", "Source", "Source64", "Zipf", "PCG", "ChaCha8"},
		in: []string{"main", "service"}, waiver: NondetWaiver, nondet: true,
		where: deterministic,
		why:   "the global source is not seeded by the config; draw from rand.New(rand.NewSource(seed)), or waive with //" + NondetWaiver + " <proof it cannot reach a result>",
	},
	{
		refs:  []string{"sync.Once", "sync.OnceFunc", "sync.OnceValue", "sync.OnceValues"},
		in:    []string{"par"},
		where: "outside internal/par, in package",
		why:   "par.OnceMap is the one compute-once cache",
	},
	{
		refs:  []string{"os.Getenv", "os.LookupEnv", "os.Environ", "os.ExpandEnv", "syscall.Getenv"},
		where: "in package",
		why:   "every setting is a flag or a Config field; nothing reads the environment",
	},
	{
		refs:    []string{"unsafe.*", "reflect.SliceHeader", "reflect.StringHeader"},
		imports: []string{"unsafe"},
		in:      []string{"graph"}, files: []string{"mmap*.go", "csr_view.go"},
		where: "outside the mmap layer, in package",
		why:   "aliasing is confined to internal/graph/mmap*.go and csr_view.go",
	},
	{
		imports: []string{"graphpart/internal/service", "net/http"},
		in:      []string{"main", "service"},
		where:   "outside the service layer, in package",
		why:     "the daemon is tested in internal/service; nothing else links it or speaks HTTP",
	},
	{
		imports: []string{"graphpart/internal/oracle"},
		in:      []string{"main"},
		where:   "outside a main package, in package",
		why:     "internal/oracle is the tests' independent reference; product code that called it could hide the same bug in both",
	},
	{
		decls: []string{"forShards", "forEachShard", "resolveWorkers"},
		where: "in package",
		why:   "internal/par owns every fan-out; call par.Do",
	},
	{
		decls: []string{"Passes()", "Heuristic()", "IsHeuristic", "HeuristicStrategy", "isGreedy"},
		where: "in package",
		why:   "a strategy's capability interface is the only statement of its ingress shape; read partition.ShapeOf",
	},
	{
		decls: []string{"init"},
		where: "in package",
		why:   "registries are literal tables; nothing registers itself at init",
	},
	{
		decls: []string{"ForEachReplica", "HasInEdges", "HasOutEdges", "Holds"},
		in:    []string{"oracle"},
		where: "in package",
		why:   "the engines read placement a row at a time; take the words from Assignment.Rows",
	},
	{
		decls: []string{"InEdgeIDs", "OutEdgeIDs"},
		where: "in package",
		why:   "the engine slices adjacency from the view Execute took once; take graph.Adjacency and slice it by Index",
	},
}

// sanctions reports whether the row allows its subject in this file.
func (r *rule) sanctions(pkgName, filename string) bool {
	if !slices.Contains(r.in, pkgName) {
		return false
	}
	base := filepath.Base(filename)
	return len(r.files) == 0 || slices.ContainsFunc(r.files, func(glob string) bool {
		ok, _ := filepath.Match(glob, base)
		return ok
	})
}

// index maps each key of one column of the table to its row.
func index(column func(*rule) []string) map[string]*rule {
	m := map[string]*rule{}
	for i := range forbidden {
		for _, key := range column(&forbidden[i]) {
			m[key] = &forbidden[i]
		}
	}
	return m
}

var (
	refRules    = index(func(r *rule) []string { return r.refs })
	importRules = index(func(r *rule) []string { return r.imports })
	declRules   = index(func(r *rule) []string { return r.decls })
)

// refRule is the row banning references to obj, or nil. Only package-level
// objects are ever banned: a method on a seeded *rand.Rand is not rand.Intn.
func refRule(obj types.Object) *rule {
	pkg := obj.Pkg()
	if pkg == nil || obj.Parent() != pkg.Scope() {
		return nil
	}
	if r := refRules[pkg.Path()+"."+obj.Name()]; r != nil {
		return r
	}
	if r := refRules[pkg.Path()+".*"]; r != nil && !slices.Contains(r.except, obj.Name()) {
		return r
	}
	return nil
}

// declRule is the row banning the declaration of obj, or nil.
func declRule(obj types.Object) *rule {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && sig.Params().Len() == 0 {
		if r := declRules[obj.Name()+"()"]; r != nil {
			return r
		}
	}
	return declRules[obj.Name()]
}

// qualified spells a package-level object the way source does: rand.Intn.
func qualified(obj types.Object) string {
	return obj.Pkg().Name() + "." + obj.Name()
}

func runForbid(pass *Pass) error {
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		check := func(n ast.Node, r *rule, what string) {
			if r == nil || r.sanctions(pass.Pkg.Name(), filename) {
				return
			}
			if r.waiver != "" && stmtWaived(pass, f, n, r.waiver) {
				return
			}
			pass.Reportf(n.Pos(), "%s %s %s: %s", what, r.where, pass.Pkg.Name(), r.why)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				path, _ := strconv.Unquote(n.Path.Value)
				check(n, importRules[path], "import of "+path)
			case *ast.Ident:
				if obj := pass.Info.Uses[n]; obj != nil {
					if r := refRule(obj); r != nil {
						check(n, r, qualified(obj))
					}
				} else if obj := pass.Info.Defs[n]; obj != nil {
					check(n, declRule(obj), "declaration of "+n.Name)
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, marker := range []string{NondetWaiver, UnorderedWaiver} {
					if rest, ok := strings.CutPrefix(c.Text, "//"+marker); ok && strings.TrimSpace(rest) == "" {
						pass.Reportf(c.Pos(), "bare //%s waiver: a waiver carries its proof; say after the marker why the invariant holds here", marker)
					}
				}
			}
		}
	}
	return nil
}
