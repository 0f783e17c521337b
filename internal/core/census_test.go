package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneBuilderCensus keeps "how a survey becomes a solvable problem"
// in this package: outside it, the test kit, tests and the frozen
// benchmark, no product file calls the steps of the sequence
// (dense kernel, compression, problem binding, store write/open)
// itself, and none imports the test kit. A new caller that needs the
// sequence calls BuildPipeline, or NewSurvey once and Survey.Build per
// configuration, and, for out-of-core, Pipeline.StoreBack/WriteStore; a step the builder cannot express is
// argued for in DESIGN.md §2, "One pipeline builder", first.
func TestOneBuilderCensus(t *testing.T) {
	steps := map[string]map[string]bool{
		"repro/internal/mdc":     {"NewDenseKernel": true, "CompressKernel": true},
		"repro/internal/mdd":     {"NewProblem": true},
		"repro/internal/opstore": {"WriteFile": true, "OpenFile": true},
	}
	const testkit = "repro/internal/testkit"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			switch {
			case rel == "bench", rel == "bin", rel == "internal/core", rel == "internal/testkit",
				d.Name() == "testdata", strings.HasPrefix(d.Name(), ".") && path != root:
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		// local name → import path, for the packages that own a step
		owners := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if ip == testkit || strings.HasPrefix(ip, testkit+"/") {
				t.Errorf("%s imports %s: product code does not depend on the test kit", rel, ip)
			}
			if steps[ip] == nil {
				continue
			}
			name := ip[strings.LastIndex(ip, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			owners[name] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || !steps[owners[pkg.Name]][sel.Sel.Name] {
				return true
			}
			t.Errorf("%s: %s.%s is a step of the pipeline builder; call core.BuildPipeline or Survey.Build (or Pipeline.StoreBack/WriteStore) instead",
				fset.Position(call.Pos()), pkg.Name, sel.Sel.Name)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("census walked %d product files from %s; the tree has more — is the root right?", files, root)
	}
}
