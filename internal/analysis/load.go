package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one package's non-test files, parsed and type-checked. The
// invariants are about production code: tests assert them and may time or
// randomize freely, so no analyzer is ever shown a _test.go file.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns with the go tool from dir, compiles export data
// for every dependency, and parses + type-checks each matched package from
// its GoFiles. Dependencies are
// imported from export data, so only the packages under analysis are
// type-checked from source — the same split `go vet` uses, without requiring
// golang.org/x/tools. A package under testdata/ loads like any other when a
// pattern names its directory, which is how the fixtures are loaded.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	closure, err := goList(dir, append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listedPkg
	for _, p := range closure {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var pkgs []*Package
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := checkFiles(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = t.Dir
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs one `go list` invocation in dir and decodes its JSON stream.
func goList(dir string, args []string) ([]listedPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup adapts an importpath→exportfile map to the lookup function
// the gc importer wants.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// checkFiles parses and type-checks one package from explicit file paths.
func checkFiles(fset *token.FileSet, importPath string, files []string, imp types.Importer) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      syntax,
		Types:      tpkg,
		Info:       info,
	}, nil
}
