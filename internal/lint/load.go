package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis. When a directory
// contains an external test package (package foo_test), it is loaded as a
// separate Package with the same Dir.
type Package struct {
	Path  string // import path ("_test" suffix for external test packages)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// IsTestFile reports whether f was parsed from a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-local imports are resolved from source relative
// to the module root, everything else through go/importer's source importer.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std  types.Importer
	deps map[string]*types.Package // memoized import-view (no test files)
}

// NewLoader returns a Loader for the module rooted at dir (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := modulePath(data)
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s", filepath.Join(root, "go.mod"))
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleRoot: root,
		std:        importer.ForCompiler(fset, "source", nil),
		deps:       make(map[string]*types.Package),
	}, nil
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer. Module-local paths are type-checked from
// source (excluding test files); all other paths go to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.checkDir(dir, path, importFiles, l)
		if err != nil {
			return nil, err
		}
		l.deps[path] = pkg.Types
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// LoadPatterns expands go-list patterns (e.g. "./...") from the module root
// and loads every matched package for analysis, including its test files.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	dirs, err := l.listDirs(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		got, err := l.LoadDir(d.dir, d.importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

type listedDir struct {
	dir        string
	importPath string
}

// listDirs enumerates package directories via `go list -json`.
func (l *Loader) listDirs(patterns []string) ([]listedDir, error) {
	args := append([]string{"list", "-json=Dir,ImportPath"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModuleRoot
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v: %s", strings.Join(patterns, " "), err, errb.String())
	}
	var dirs []listedDir
	dec := json.NewDecoder(&out)
	for dec.More() {
		var p struct {
			Dir        string
			ImportPath string
		}
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		dirs = append(dirs, listedDir{dir: p.Dir, importPath: p.ImportPath})
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].importPath < dirs[j].importPath })
	return dirs, nil
}

// LoadDir parses and type-checks the package in dir under the given import
// path, test files included. It returns one Package for the base package
// (with in-package test files) and, when present, one for the external
// _test package, which sees the base package with its in-package test
// files, as go test builds it, so it may use an export_test.go.
func (l *Loader) LoadDir(dir, importPath string) ([]*Package, error) {
	base, err := l.checkDir(dir, importPath, includeInPackageTests, l)
	if err != nil {
		return nil, err
	}
	pkgs := []*Package{base}
	xtest, err := l.checkDir(dir, importPath+"_test", onlyExternalTests, testImporter{l, base})
	if err != nil {
		return nil, err
	}
	if xtest != nil && len(xtest.Files) > 0 {
		pkgs = append(pkgs, xtest)
	}
	return pkgs, nil
}

// testImporter resolves the package under test to its type-checked view
// with in-package test files, and every other import through the Loader.
type testImporter struct {
	*Loader
	base *Package
}

func (t testImporter) Import(path string) (*types.Package, error) {
	if path == t.base.Path && t.base.Types != nil {
		return t.base.Types, nil
	}
	return t.Loader.Import(path)
}

// File-selection modes for checkDir.
type fileMode int

const (
	importFiles           fileMode = iota // non-test files only (import view)
	includeInPackageTests                 // base package plus same-package _test.go files
	onlyExternalTests                     // the external foo_test package
)

// checkDir parses the .go files of dir selected by mode and type-checks
// them as one package, resolving imports through imp. It returns a
// Package with no Files when the mode selects nothing (e.g. no external
// test package exists).
func (l *Loader) checkDir(dir, importPath string, mode fileMode, imp types.Importer) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	type parsed struct {
		file   *ast.File
		isTest bool
	}
	var all []parsed
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		// Keep only the files the go command builds for this GOOS/GOARCH,
		// so per-architecture files (foo_amd64.go beside a //go:build
		// !amd64 fallback) do not redeclare each other.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		all = append(all, parsed{file: f, isTest: strings.HasSuffix(name, "_test.go")})
	}
	// The base package name is whatever the non-test files declare (falling
	// back to test files' unsuffixed name in test-only directories).
	basePkg := ""
	for _, p := range all {
		if !p.isTest {
			basePkg = p.file.Name.Name
			break
		}
	}
	if basePkg == "" {
		for _, p := range all {
			basePkg = strings.TrimSuffix(p.file.Name.Name, "_test")
			break
		}
	}
	var files []*ast.File
	for _, p := range all {
		switch mode {
		case importFiles:
			if !p.isTest && p.file.Name.Name == basePkg {
				files = append(files, p.file)
			}
		case includeInPackageTests:
			if p.file.Name.Name == basePkg {
				files = append(files, p.file)
			}
		case onlyExternalTests:
			if p.isTest && p.file.Name.Name == basePkg+"_test" {
				files = append(files, p.file)
			}
		}
	}
	if len(files) == 0 {
		return &Package{Path: importPath, Dir: dir, Fset: l.Fset}, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
