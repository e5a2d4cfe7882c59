package lint

// Fixture loading for the analyzer tests (lint_test.go): they type-check
// testdata packages and inline source strings against the standard library
// only.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sync"
)

// The export index for std dependencies is built once per process and
// grown on demand.
var fixtures struct {
	mu      sync.Mutex
	fset    *token.FileSet
	exports map[string]string
	imp     types.Importer
}

// checkFixtureFiles type-checks already-parsed fixture files under the
// given import path, resolving their (standard-library) imports via
// `go list -export`.
func checkFixtureFiles(fset *token.FileSet, files []*ast.File, pkgPath string) (*Package, error) {
	fixtures.mu.Lock()
	defer fixtures.mu.Unlock()
	if fixtures.exports == nil {
		fixtures.exports = map[string]string{}
	}
	var missing []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path := importPathOf(spec)
			if path == "" || path == "unsafe" {
				continue
			}
			if _, ok := fixtures.exports[path]; !ok {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) > 0 {
		listed, err := goList(".", missing...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				fixtures.exports[p.ImportPath] = p.Export
			}
		}
		// The importer caches by path against one FileSet; invalidate it so
		// the next check sees the grown index.
		fixtures.imp = nil
	}
	if fixtures.imp == nil || fixtures.fset != fset {
		fixtures.fset = fset
		fixtures.imp = exportImporter(fset, fixtures.exports)
	}
	info := newInfo()
	conf := types.Config{Importer: fixtures.imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking fixture %s: %v", pkgPath, err)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadFixtureDir parses and type-checks every .go file in dir as one
// package with the given import path. Fixtures live under testdata/, which
// the go tool ignores, so violations seeded there never break the build.
func LoadFixtureDir(dir, pkgPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no fixture files in %s", dir)
	}
	return checkFixtureFiles(fset, files, pkgPath)
}

// LoadFixtureSource parses and type-checks one in-memory source file as a
// package with the given import path.
func LoadFixtureSource(src, pkgPath string) (*Package, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return checkFixtureFiles(fset, []*ast.File{f}, pkgPath)
}

func importPathOf(spec *ast.ImportSpec) string {
	path := spec.Path.Value
	if len(path) >= 2 {
		return path[1 : len(path)-1]
	}
	return ""
}
