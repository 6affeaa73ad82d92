// The size gate: SIZE.json records how big the system is — code-only lines,
// exported identifiers and exported struct fields per package, flags per
// binary, the registries and the docs' bytes — and TestSize fails when the
// tree no longer matches it.
// Growth is allowed, but only as a visible SIZE.json diff in the same change:
//
//	go test . -run TestSize -update
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"graphpart/internal/bench"
	"graphpart/internal/partition"
)

var update = flag.Bool("update", false, "rewrite SIZE.json from the tree")

// TestSize is not skipped under -short: it parses the module's sources and
// reads two registries, well under a second.
func TestSize(t *testing.T) {
	got, err := measureSize()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("SIZE.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile("SIZE.json")
	if err != nil {
		t.Fatalf("%v (create it with go test . -run TestSize -update)", err)
	}
	var want map[string]map[string]int
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("SIZE.json: %v", err)
	}
	wantFlat, gotFlat := flatten(want), flatten(got)
	for _, key := range unionKeys(wantFlat, gotFlat) {
		w, inWant := wantFlat[key]
		g, inGot := gotFlat[key]
		if inWant != inGot || w != g {
			t.Errorf("%s: SIZE.json has %s, the tree has %s (run go test . -run TestSize -update and commit the diff)",
				key, orAbsent(w, inWant), orAbsent(g, inGot))
		}
	}
}

// measureSize builds the document SIZE.json holds. Every section is a map,
// so encoding/json writes it in sorted key order.
func measureSize() (map[string]map[string]int, error) {
	size := map[string]map[string]int{
		"code_lines": {}, // per package: lines carrying a non-comment token
		"exported":   {}, // per package: exported package-level names and methods
		"fields":     {}, // per package: exported fields of exported struct types
		"flags":      {}, // per cmd/* binary: flag definitions
		"registry": {
			"experiments": len(bench.All()),
			"strategies":  len(partition.AllNames()),
		},
		"doc_bytes": {}, // README.md and docs/*.md
	}
	dirs, err := packageDirs()
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		files, lines, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		size["code_lines"][dir] = lines
		size["exported"][dir] = exportedNames(files)
		size["fields"][dir] = exportedFields(files)
		if filepath.Dir(dir) == "cmd" {
			size["flags"][dir] = flagDefinitions(files)
		}
		switch dir {
		case "internal/service":
			size["registry"]["routes"] = countCalls(files, "handle")
		case "internal/analysis":
			size["registry"]["forbid_rows"] = compositeLen(files, "forbidden")
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		return nil, err
	}
	for _, doc := range append([]string{"README.md"}, docs...) {
		fi, err := os.Stat(doc)
		if err != nil {
			return nil, err
		}
		size["doc_bytes"][filepath.ToSlash(doc)] = int(fi.Size())
	}
	return size, nil
}

// packageDirs lists, slash-separated and relative to the module root, every
// directory `./...` matches that holds a non-test .go file. Build tags are
// not consulted, so the list is the same on every GOOS; benchmark/ is a
// module of its own and is left out, as `./...` leaves it out.
func packageDirs() ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "benchmark" || path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if isSource(d.Name()) {
			seen[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	dirs := make([]string, 0, len(seen))
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	return dirs, err
}

func isSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseDir parses every non-test .go file of dir and counts its code-only
// lines: a line counts when a token other than a comment (or a semicolon the
// scanner inserted) starts on it or, for a multi-line raw string, spans it.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	var files []*ast.File
	lines := 0
	for _, e := range entries {
		if e.IsDir() || !isSource(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, 0, err
		}
		files = append(files, f)

		var s scanner.Scanner
		var scanErr error
		s.Init(fset.AddFile(path, -1, len(src)), src, func(pos token.Position, msg string) {
			scanErr = fmt.Errorf("%s: %s", pos, msg)
		}, 0)
		seen := map[int]bool{}
		for {
			pos, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.SEMICOLON && lit == "\n" {
				continue
			}
			first := fset.Position(pos).Line
			for l := first; l <= first+strings.Count(lit, "\n"); l++ {
				seen[l] = true
			}
		}
		if scanErr != nil {
			return nil, 0, scanErr
		}
		lines += len(seen)
	}
	return files, lines, nil
}

// exportedNames counts the package-level exported names (functions, types,
// variables, constants) plus the exported methods of exported types.
func exportedNames(files []*ast.File) int {
	n := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv.List[0].Type)) {
					n++
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							n++
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								n++
							}
						}
					}
				}
			}
		}
	}
	return n
}

// exportedFields counts the exported fields of package-level exported struct
// types, embedded ones under their type's name: each is a value a caller can
// set, as a flag is.
func exportedFields(files []*ast.File) int {
	n := 0
	for _, f := range files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() {
					continue
				}
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 && receiverExported(field.Type) {
						n++
					}
					for _, name := range field.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverExported reports whether a method receiver's or an embedded
// field's base type — behind a pointer, a package name and type parameters —
// is exported.
func receiverExported(x ast.Expr) bool {
	for {
		switch r := x.(type) {
		case *ast.StarExpr:
			x = r.X
		case *ast.IndexExpr:
			x = r.X
		case *ast.IndexListExpr:
			x = r.X
		case *ast.SelectorExpr:
			x = r.Sel
		case *ast.Ident:
			return r.IsExported()
		default:
			return false
		}
	}
}

// flagDefiners are the flag package's (and *flag.FlagSet's) definitions.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// flagDefinitions counts calls of a flag definer on the flag package or on a
// variable assigned from its NewFlagSet. The walk is in source order, so the
// assignment is seen before the definitions it receives.
func flagDefinitions(files []*ast.File) int {
	n := 0
	for _, f := range files {
		recv := map[string]bool{}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "flag" {
				name := "flag"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				recv[name] = true
			}
		}
		ast.Inspect(f, func(node ast.Node) bool {
			if as, ok := node.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i, rhs := range as.Rhs {
					if fun, ok := calledSelector(rhs); ok && recv[identName(fun.X)] && fun.Sel.Name == "NewFlagSet" {
						recv[identName(as.Lhs[i])] = true
					}
				}
			}
			if fun, ok := calledSelector(node); ok && recv[identName(fun.X)] && flagDefiners[fun.Sel.Name] {
				n++
			}
			return true
		})
	}
	return n
}

// countCalls counts calls of a method or package function named name.
func countCalls(files []*ast.File, name string) int {
	n := 0
	for _, f := range files {
		ast.Inspect(f, func(node ast.Node) bool {
			if fun, ok := calledSelector(node); ok && fun.Sel.Name == name {
				n++
			}
			return true
		})
	}
	return n
}

// compositeLen is the element count of the composite literal a
// package-level variable named name is initialised with.
func compositeLen(files []*ast.File, name string) int {
	for _, f := range files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if id.Name == name && i < len(vs.Values) {
						if lit, ok := vs.Values[i].(*ast.CompositeLit); ok {
							return len(lit.Elts)
						}
					}
				}
			}
		}
	}
	return -1
}

func calledSelector(node ast.Node) (*ast.SelectorExpr, bool) {
	call, ok := node.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return sel, ok
}

func identName(x ast.Expr) string {
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func flatten(doc map[string]map[string]int) map[string]int {
	flat := map[string]int{}
	for section, m := range doc {
		for k, v := range m {
			flat[section+"["+k+"]"] = v
		}
	}
	return flat
}

// unionKeys is every key of a or b, sorted.
func unionKeys(a, b map[string]int) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func orAbsent(v int, ok bool) string {
	if !ok {
		return "no entry"
	}
	return strconv.Itoa(v)
}
