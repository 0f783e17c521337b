package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a whole Go module loaded from source and type-checked with
// nothing but the standard library: go/build picks each directory's
// files for the running platform, imports inside the module resolve to
// the freshly checked packages, and standard-library imports go through
// go/importer's source importer. This keeps the analysis suite runnable
// in hermetic environments with no export data and no golang.org/x/tools.
type Module struct {
	Fset *token.FileSet
	Dir  string // absolute module root (the directory holding go.mod)
	Path string // module path from the go.mod module directive

	// Packages maps import path → loaded package, regular (non-test)
	// files only. Test variants are loaded on demand by LoadTestPackages.
	Packages map[string]*Package

	importer *moduleImporter
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TestVariant marks packages assembled from _test.go files
	// (in-package augmented or external _test packages). They are
	// type-checked leniently and never imported from.
	TestVariant bool
}

// PackageBySuffix returns the module package whose import path matches
// the "/"-delimited suffix, or nil.
func (m *Module) PackageBySuffix(suffix string) *Package {
	for path, pkg := range m.Packages {
		if pathMatches(path, suffix) {
			return pkg
		}
	}
	return nil
}

// SortedPackages returns the regular packages in import-path order.
func (m *Module) SortedPackages() []*Package {
	pkgs := make([]*Package, 0, len(m.Packages))
	for _, p := range m.Packages {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// LoadModule loads every package under dir's module from source. When
// includeTests is true, a package's in-package _test.go files are
// type-checked together with its regular files — the mode the
// analysistest fixtures use. Drivers for the real tree load with
// includeTests=false and add test variants via LoadTestPackages so that
// regular packages stay exactly what importers see.
func LoadModule(dir string, includeTests bool) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Fset:     token.NewFileSet(),
		Dir:      root,
		Path:     modPath,
		Packages: map[string]*Package{},
	}
	m.importer = &moduleImporter{
		m:            m,
		std:          importer.ForCompiler(m.Fset, "source", nil),
		loading:      map[string]bool{},
		includeTests: includeTests,
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		path := importPathFor(m, d)
		if _, err := m.importer.load(path); err != nil {
			if _, ok := err.(errNoGoFiles); ok {
				continue
			}
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
	}
	return m, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, path string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// packageDirs lists, once each, every directory under root that contains
// .go files, skipping hidden dirs, testdata, and vendor trees. (The walk
// can return to a directory after one of its subdirectories.)
func packageDirs(root string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if dir := filepath.Dir(p); strings.HasSuffix(p, ".go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

func importPathFor(m *Module, dir string) string {
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil || rel == "." {
		return m.Path
	}
	return m.Path + "/" + filepath.ToSlash(rel)
}

func (m *Module) dirFor(importPath string) string {
	if importPath == m.Path {
		return m.Dir
	}
	rel := strings.TrimPrefix(importPath, m.Path+"/")
	return filepath.Join(m.Dir, filepath.FromSlash(rel))
}

type errNoGoFiles string

func (e errNoGoFiles) Error() string { return fmt.Sprintf("no non-test Go files in %s", string(e)) }

// moduleImporter resolves module-internal imports by type-checking them
// from source (memoized in m.Packages) and delegates everything else to
// the standard library source importer.
type moduleImporter struct {
	m            *Module
	std          types.Importer
	loading      map[string]bool
	includeTests bool
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == im.m.Path || strings.HasPrefix(path, im.m.Path+"/") {
		pkg, err := im.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return im.std.Import(path)
}

func (im *moduleImporter) load(path string) (*Package, error) {
	if pkg, ok := im.m.Packages[path]; ok {
		return pkg, nil
	}
	if im.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	im.loading[path] = true
	defer delete(im.loading, path)

	dir := im.m.dirFor(path)
	bp, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if im.includeTests {
		names = append(names[:len(names):len(names)], bp.TestGoFiles...)
	}
	if len(names) == 0 {
		return nil, errNoGoFiles(dir)
	}
	files, err := parseFiles(im.m.Fset, dir, names)
	if err != nil {
		return nil, err
	}

	info := newInfo()
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(path, im.m.Fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	im.m.Packages[path] = pkg
	return pkg, nil
}

// listDir is go/build's selection of dir's files for the running
// platform: GOOS/GOARCH filename suffixes and build constraints applied,
// regular, in-package test and external test files listed apart. A
// directory with nothing to build lists no files rather than failing.
func listDir(dir string) (*build.Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return bp, nil
	}
	return bp, err
}

// parseFiles parses the named files of dir, in order.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadTestPackages assembles the test variants of every module package:
// in-package _test.go files type-checked together with their package's
// regular files, and external "_test"-suffixed packages on their own.
// Variants are checked leniently (type errors are tolerated) because the
// analyzers that target test files only need import resolution, and a
// strict check would entangle variant identity with the regular packages
// their dependencies imported.
func (m *Module) LoadTestPackages() []*Package {
	var out []*Package
	dirs, err := packageDirs(m.Dir)
	if err != nil {
		return nil
	}
	for _, dir := range dirs {
		bp, err := listDir(dir)
		if err != nil {
			continue
		}
		basePath := importPathFor(m, dir)
		for _, v := range []struct {
			path  string
			names []string
		}{{basePath, bp.TestGoFiles}, {basePath + "_test", bp.XTestGoFiles}} {
			tfiles, err := parseFiles(m.Fset, dir, v.names)
			if err != nil || len(tfiles) == 0 {
				continue
			}
			all := tfiles
			if reg, ok := m.Packages[basePath]; ok && v.path == basePath {
				// in-package tests: augment with the regular files
				all = append(append([]*ast.File{}, reg.Files...), tfiles...)
			}
			info := newInfo()
			conf := types.Config{
				Importer: m.importer,
				Error:    func(error) {}, // lenient: collect what resolves
			}
			tpkg, _ := conf.Check(v.path, m.Fset, all, info)
			if tpkg == nil {
				continue
			}
			out = append(out, &Package{
				Path: v.path, Dir: dir, Files: all, Types: tpkg, Info: info,
				TestVariant: true,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
