package analysis_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/analysis"
)

// otherGOOS returns a released GOOS name that is not the running one,
// for building files the loader must exclude.
func otherGOOS() string {
	if runtime.GOOS == "windows" {
		return "linux"
	}
	return "windows"
}

// writeModule materializes a throwaway module from name→content pairs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadModuleFileSelection(t *testing.T) {
	// The excluded files all reference an undefined symbol: if the loader
	// ever parsed them in, type-checking (and the test) would fail.
	dir := writeModule(t, map[string]string{
		"go.mod":                              "module tmpmod\n\ngo 1.22\n",
		"a/one.go":                            "package a\n\nfunc One() int { return 1 }\n",
		"a/two.go":                            "package a\n\nfunc Two() int { return One() + 1 }\n",
		"a/ignored.go":                        "//go:build ignore\n\npackage a\n\nfunc broken() { undefinedSymbol() }\n",
		"a/legacy.go":                         "// +build never\n\npackage a\n\nfunc legacy() { undefinedSymbol() }\n",
		"a/cross_" + otherGOOS() + ".go":      "package a\n\nfunc cross() { undefinedSymbol() }\n",
		"a/native_" + runtime.GOOS + ".go":    "package a\n\nfunc Native() int { return 3 }\n",
		"a/cross_" + otherGOOS() + "_test.go": "package a\n\nfunc crossTest() { undefinedSymbol() }\n",
	})
	mod, err := analysis.LoadModule(dir, false)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkg, ok := mod.Packages["tmpmod/a"]
	if !ok {
		t.Fatalf("package tmpmod/a not loaded; have %v", mod.Packages)
	}
	if len(pkg.Files) != 3 {
		t.Errorf("loaded %d files in tmpmod/a, want 3 (one, two, native_%s)", len(pkg.Files), runtime.GOOS)
	}
	if pkg.Types.Scope().Lookup("Native") == nil {
		t.Errorf("matching-GOOS file was not loaded: Native missing")
	}
	if pkg.Types.Scope().Lookup("broken") != nil || pkg.Types.Scope().Lookup("legacy") != nil {
		t.Errorf("build-constrained files leaked into the package scope")
	}
}

func TestLoadModuleMultiFilePackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   "module tmpmod\n\ngo 1.22\n",
		"b/one.go": "package b\n\nconst base = 2\n",
		"b/two.go": "package b\n\nfunc Double(x int) int { return base * x }\n",
	})
	mod, err := analysis.LoadModule(dir, false)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	pkg := mod.PackageBySuffix("b")
	if pkg == nil {
		t.Fatal("PackageBySuffix(b) = nil")
	}
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want 2", len(pkg.Files))
	}
	if pkg.Types.Scope().Lookup("Double") == nil {
		t.Errorf("cross-file reference did not type-check: Double missing")
	}
}

func TestLoadTestPackagesVariants(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":        "module tmpmod\n\ngo 1.22\n",
		"c/lib.go":      "package c\n\nfunc Lib() int { return 7 }\n",
		"c/in_test.go":  "package c\n\nimport \"testing\"\n\nfunc TestLib(t *testing.T) { _ = Lib() }\n",
		"c/ext_test.go": "package c_test\n\nimport \"testing\"\n\nfunc TestExt(t *testing.T) {}\n",
		"c/f/f.go":      "package f\n", // the walk leaves c for c/f, then returns to c
	})
	mod, err := analysis.LoadModule(dir, false)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if got := len(mod.PackageBySuffix("c").Files); got != 1 {
		t.Fatalf("regular package has %d files, want 1 (tests excluded)", got)
	}

	variants := mod.LoadTestPackages()
	byPath := map[string]*analysis.Package{}
	for _, v := range variants {
		if !v.TestVariant {
			t.Errorf("%s: TestVariant not set", v.Path)
		}
		byPath[v.Path] = v
	}
	if len(byPath) != len(variants) {
		t.Errorf("%d test variants for %d import paths: a directory was loaded twice", len(variants), len(byPath))
	}
	inPkg, ok := byPath["tmpmod/c"]
	if !ok {
		t.Fatalf("no in-package test variant; have %v", byPath)
	}
	if len(inPkg.Files) != 2 {
		t.Errorf("in-package variant has %d files, want 2 (lib.go + in_test.go)", len(inPkg.Files))
	}
	ext, ok := byPath["tmpmod/c_test"]
	if !ok {
		t.Fatalf("no external test variant; have %v", byPath)
	}
	if len(ext.Files) != 1 {
		t.Errorf("external variant has %d files, want 1", len(ext.Files))
	}
}
