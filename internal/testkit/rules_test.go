package testkit

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// Five whole-tree rules that guard the paper's arithmetic, the
// replayability of the tests, and the option and export surfaces. All but
// TestRandIsSeeded, which is syntactic, type-check the tree with the
// standard library alone. Each rule that has exceptions keeps them in a
// table keyed by function or field, with the reason, and a row that no
// longer excuses anything fails its test: delete the row, or move it to
// what it now excuses.

// moduleRoot is the repository root seen from this package's directory.
var moduleRoot = filepath.Join("..", "..")

// srcImporter type-checks imports from source (go/build picks the files
// for this platform; module packages resolve through the go command) and
// memoizes them, so the rules share one type-check of each dependency.
var srcImporter = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

// checkPackage type-checks the non-test files go/build selects for the
// module package in rel on this platform (so gemv_noasm.go stays out on
// amd64, as it does in the build).
func checkPackage(t *testing.T, rel string) (*types.Package, []*ast.File, *types.Info) {
	t.Helper()
	dir := filepath.Join(moduleRoot, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var srcs []string
	for _, name := range bp.GoFiles {
		srcs = append(srcs, filepath.Join(dir, name))
	}
	_, imp := srcImporter()
	return check(t, imp, "repro/"+rel, srcs, nil)
}

// modPkg is one module package's non-test files, type-checked.
type modPkg struct {
	rel   string // directory, slash-separated, relative to the module root
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// walkModule type-checks, resolving imports through imp, the non-test
// files go/build selects in every package directory of the module and
// hands each package to visit. It prunes testdata, dot and underscore
// directories, and every directory (with what is under it) that skip
// names.
func walkModule(t *testing.T, imp types.Importer, skip func(rel string) bool, visit func(modPkg)) {
	t.Helper()
	err := filepath.WalkDir(moduleRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(p, moduleRoot+string(filepath.Separator)))
		if p != moduleRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || skip(rel)) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		var srcs []string
		for _, name := range bp.GoFiles {
			srcs = append(srcs, filepath.Join(p, name))
		}
		pkg, files, info := check(t, imp, "repro/"+rel, srcs, nil)
		visit(modPkg{rel, pkg, files, info})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exportImporter imports packages from the compiler's export data, which
// the go command lists for the module and its dependencies (building
// what its cache lacks): a whole-tree check then type-checks only the
// files it reads, not every dependency from source again.
var exportImporter = sync.OnceValues(func() (types.Importer, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...")
	cmd.Dir = moduleRoot
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exports[path] = file
	}
	fset, _ := srcImporter()
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	}), nil
})

// check parses and type-checks one package, resolving its imports
// through imp (nil for a package that imports nothing): the named files,
// or, when src is set, src as the package's only file.
func check(t *testing.T, imp types.Importer, pkgPath string, names []string, src any) (*types.Package, []*ast.File, *types.Info) {
	t.Helper()
	fset, _ := srcImporter()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	return pkg, files, info
}

// where prints a position with its file relative to the repository root
// (the importer's files have absolute names, checkPackage's relative).
func where(pos token.Pos) string {
	fset, _ := srcImporter()
	p := fset.Position(pos)
	root, err1 := filepath.Abs(moduleRoot)
	abs, err2 := filepath.Abs(p.Filename)
	if rel, err := filepath.Rel(root, abs); err1 == nil && err2 == nil && err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return p.String()
}

// checkExemptions fails every finding of a function that table does not
// excuse, and every row of table that excuses no finding.
func checkExemptions(t *testing.T, tableName string, found map[string][]string, table map[string]string) {
	t.Helper()
	for _, msg := range exemptionErrors(tableName, found, table) {
		t.Error(msg)
	}
}

// exemptionErrors returns checkExemptions' failures: the findings table
// does not excuse, in key order, then a line per row that excuses none.
func exemptionErrors(tableName string, found map[string][]string, table map[string]string) []string {
	var errs []string
	keys := make([]string, 0, len(found))
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, ok := table[key]; !ok {
			errs = append(errs, found[key]...)
		}
	}
	rows := make([]string, 0, len(table))
	for key := range table {
		rows = append(rows, key)
	}
	sort.Strings(rows)
	for _, key := range rows {
		if len(found[key]) == 0 {
			errs = append(errs, fmt.Sprintf("%s[%q] (%s) excuses nothing: delete the row, or move it to what it excuses", tableName, key, table[key]))
		}
	}
	return errs
}

// funcKey names a function "pkg.Func" or a method "pkg.Recv.Method".
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := namedOf(recv.Type()); named != nil {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// kernelPackages hold the float32 kernels whose hot loops the paper's
// precision claims are about (§6.4, Fig. 10; §6.6's four real FMAC
// streams): a loop-carried value widened to float64/complex128 changes
// both the numerics and the modelled memory traffic.
var kernelPackages = []string{"internal/tlr", "internal/cfloat", "internal/precision"}

// widenOK lists the kernel-package functions whose float64 arithmetic is
// deliberate, with the reason.
var widenOK = map[string]string{
	"cfloat.axpyGo":            "set-up path (survey synthesis's P− = dA·R·Kᵀ, orthonormalisation under dense, CGLS, residual checks): gc's float64 complex product is kept, its bits are the synthetic survey's and feed pinned compression facts",
	"cfloat.ScaleSub":          "deliberate float64 accumulation of the norm, as in Nrm2",
	"cfloat.Dotc":              "deliberate float64 accumulation for numerical stability",
	"cfloat.Nrm2":              "deliberate float64 accumulation for numerical stability",
	"cfloat.Gemm":              "set-up path (dense.Mul, the reconstructions): float64 accumulators and gc's float64 complex products are kept, their bits feed pinned compression facts",
	"precision.quantizeMatrix": "power-of-two scaling is carried out exactly in float64",
}

// TestKernelLoopsStayFloat32 flags the two ways a float32 kernel loop
// ends up computing in float64: float32→float64 and
// complex64→complex128 conversions, and complex64 products (`*`, `*=`),
// which gc lowers to four widening converts, float64 arithmetic and two
// narrowing ones, a widening no conversion in the source shows. Both are
// flagged inside for/range loops of the kernel packages' non-test files
// (a loop in an enclosing function does not make a closure hot), unless
// widenOK excuses the function.
func TestKernelLoopsStayFloat32(t *testing.T) {
	const planted = `package p

func f(x []float32, z []complex64, a complex64) (s float64) {
	for i := range x {
		s += float64(x[i])
		z[i] *= a
		z[i] = a * z[i] + 2i*2i
	}
	return s + float64(x[0])
}
`
	_, files, info := check(t, nil, "planted", []string{"planted.go"}, planted)
	got := map[string][]string{}
	if loops := loopWidenings(files, info, got); loops != 1 || len(got["p.f"]) != 3 {
		t.Fatalf("planted package: %d loops, findings %q; want 1 loop and 3 findings in p.f", loops, got)
	}

	found := map[string][]string{}
	loops := 0
	for _, rel := range kernelPackages {
		_, files, info := checkPackage(t, rel)
		loops += loopWidenings(files, info, found)
	}
	if loops < 40 {
		t.Fatalf("walked %d loops in %v; the kernels have more — is the root right?", loops, kernelPackages)
	}
	checkExemptions(t, "widenOK", found, widenOK)
}

// loopWidenings appends each widening inside a loop to found under its
// function's key and returns the number of loops it walked.
func loopWidenings(files []*ast.File, info *types.Info, found map[string][]string) (loops int) {
	for _, f := range files {
		for _, decl := range f.Decls {
			key := f.Name.Name
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					key = funcKey(fn)
				}
			}
			var stack []ast.Node
			ast.Inspect(decl, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					loops++
				}
				if inLoop(stack) {
					if pos, what := widening(info, n); what != "" {
						found[key] = append(found[key], fmt.Sprintf("%s: %s in a kernel hot loop changes numerics and modelled traffic; write the float32 arithmetic out, or add the function to widenOK with the reason", where(pos), what))
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	return loops
}

// inLoop reports whether a for/range statement encloses the node whose
// ancestors are stack, inside the innermost enclosing function.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

// widening reports a float32→float64 or complex64→complex128
// conversion, or a complex64 product evaluated at run time (a product
// folded to a constant is not).
func widening(info *types.Info, n ast.Node) (token.Pos, string) {
	const product = "complex64 product (gc computes it in float64)"
	switch n := n.(type) {
	case *ast.CallExpr:
		if len(n.Args) != 1 || !info.Types[n.Fun].IsType() {
			return 0, ""
		}
		from, to := basicKind(info.TypeOf(n.Args[0])), basicKind(info.Types[n.Fun].Type)
		switch {
		case from == types.Float32 && to == types.Float64:
			return n.Pos(), "silent float32→float64 widening"
		case from == types.Complex64 && to == types.Complex128:
			return n.Pos(), "silent complex64→complex128 widening"
		}
	case *ast.BinaryExpr:
		if tv := info.Types[n]; n.Op == token.MUL && tv.Value == nil && basicKind(tv.Type) == types.Complex64 {
			return n.OpPos, product
		}
	case *ast.AssignStmt:
		if n.Tok == token.MUL_ASSIGN && basicKind(info.TypeOf(n.Lhs[0])) == types.Complex64 {
			return n.TokPos, product
		}
	}
	return 0, ""
}

func basicKind(t types.Type) types.BasicKind {
	if t == nil {
		return types.Invalid
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind()
	}
	return types.Invalid
}

// oraclePackages host the TLR-MVM execution paths: each must stay under
// the differential oracle's cross-implementation checks and §6.5–§6.7
// invariants (TESTING.md, "Adding an implementation to the oracle").
var oraclePackages = []string{"internal/tlr", "internal/mdc", "internal/wsesim", "internal/dense", "internal/precision"}

// oracleExempt lists the entry points the oracle deliberately does not
// call, with the reason.
var oracleExempt = map[string]string{
	"mdc.TimeOperator.Apply":          "time-domain wrapper over the registered FreqOperator; its vector space (channels × Nt) does not match the oracle matrix, and mdc's reference, round-trip and adjoint tests cover it",
	"mdc.TimeOperator.ApplyAdjoint":   "time-domain wrapper over the registered FreqOperator; as Apply, over Kᴴ",
	"mdc.TimeOperator.AnalyzeTime":    "DFT sampling stage, not an MVM path; mdc's round-trip tests check its unitarity",
	"mdc.TimeOperator.SynthesizeTime": "DFT sampling stage, not an MVM path; mdc's round-trip tests check its unitarity",
	"tlr.Matrix.MulVecSoA":            "forward to MulVec, which the oracle registers; kept only for frozen bench/",
	"tlr.Matrix.MulVecConjTransSoA":   "forward to MulVecConjTrans, which the oracle registers; kept only for frozen bench/",
	"tlr.Matrix.MulVecBatched":        "forward to MulVec, which the oracle registers; kept only for frozen bench/",
}

// TestOracleCoversEveryEntryPoint requires every exported kernel entry
// point of the oracle packages — a function, or a method of an exported
// concrete type, taking at least two []complex64 vectors and returning
// nothing or an error — to be referenced from this package's non-test
// files, unless oracleExempt excuses it. A path the oracle cannot see is
// a path the differential tests silently stopped covering.
func TestOracleCoversEveryEntryPoint(t *testing.T) {
	const planted = `package p

type Matrix struct{}

func (m *Matrix) MulVecFast(x, y []complex64) error { return nil }
func (m *Matrix) mulVec(x, y []complex64)           {}
func (m *Matrix) Scale(a complex64, x []complex64)  {}
func (m *Matrix) Rank() (int, error)                { return 0, nil }

type Kernel interface{ Apply(x, y []complex64) }

type inner struct{}

func (inner) MulVec(x, y []complex64) {}
`
	pkg, _, _ := check(t, nil, "planted", []string{"planted.go"}, planted)
	if eps := entryPoints(pkg); len(eps) != 1 || funcKey(eps[0]) != "p.Matrix.MulVecFast" {
		t.Fatalf("planted package: entry points %v, want exactly p.Matrix.MulVecFast", eps)
	}

	_, _, info := checkPackage(t, "internal/testkit")
	used := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	_, imp := srcImporter()
	found := map[string][]string{}
	entries := 0
	for _, rel := range oraclePackages {
		// the importer's copy, the one the oracle's references resolve to
		pkg, err := imp.Import("repro/" + rel)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range entryPoints(pkg) {
			entries++
			if key := funcKey(fn); !used[fn] {
				found[key] = append(found[key], fmt.Sprintf("%s: exported kernel entry point %s is not referenced by the internal/testkit differential oracle; register it as an Impl (TESTING.md, \"Adding an implementation to the oracle\") or add it to oracleExempt with the reason", where(fn.Pos()), key))
			}
		}
	}
	if entries < 15 {
		t.Fatalf("found %d entry points in %v; the tree has more — is the root right?", entries, oraclePackages)
	}
	checkExemptions(t, "oracleExempt", found, oracleExempt)
}

// entryPoints lists pkg's exported functions, and exported methods of its
// exported non-interface types, with the execution-path shape.
func entryPoints(pkg *types.Package) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() && kernelShaped(obj) {
				out = append(out, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() || !obj.Exported() || types.IsInterface(named) {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() && kernelShaped(m) {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// kernelShaped matches at least two []complex64 parameters (input and
// output vectors) and no result or a single error.
func kernelShaped(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	vecs := 0
	for i := range sig.Params().Len() {
		if sl, ok := sig.Params().At(i).Type().Underlying().(*types.Slice); ok && basicKind(sl.Elem()) == types.Complex64 {
			vecs++
		}
	}
	res := sig.Results()
	return vecs >= 2 && (res.Len() == 0 ||
		res.Len() == 1 && types.Identical(res.At(0).Type(), types.Universe.Lookup("error").Type()))
}

// TestRandIsSeeded keeps randomness replayable where a failure must
// reproduce from its seed: every _test.go file (benchmarks and fuzz seed
// corpora included), every file of the packages whose randomized trials
// or schedules must replay (randScope), and the cmd/ and examples/
// programs, whose runs feed committed artifacts. There, no call draws
// from math/rand's shared global source, and no generator is seeded
// from the wall clock, crypto/rand or the process id.
func TestRandIsSeeded(t *testing.T) {
	const planted = `package p

import (
	mrand "math/rand"
	"time"
)

func f(t0 time.Time) {
	_ = mrand.Intn(3)
	_ = mrand.New(mrand.NewSource(time.Now().UnixNano()))
	_ = mrand.New(mrand.NewSource(t0.Unix()))
	_ = mrand.New(mrand.NewSource(7)).Intn(3)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "planted_test.go", planted, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := unseededRand(fset, f); len(got) != 3 {
		t.Fatalf("planted file: findings %q, want 3", got)
	}

	files := 0
	err = filepath.WalkDir(moduleRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(p, moduleRoot+string(filepath.Separator)))
		if d.IsDir() {
			if p != moduleRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || !randScope(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, msg := range unseededRand(fset, f) {
			t.Errorf("%s:%s", rel, msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 80 {
		t.Fatalf("parsed %d files from %s; the tree has more — is the root right?", files, moduleRoot)
	}
}

// randScope reports whether the file at the root-relative path rel must
// seed its randomness: test files, the test kit, the chaos schedules of
// internal/fault, the serving layer (results are keyed on spec seeds,
// client backoff must replay), the tile store's and the noise
// estimator's randomized property tests, and the cmd/ and examples/
// programs.
func randScope(rel string) bool {
	if strings.HasSuffix(rel, "_test.go") {
		return true
	}
	dir := path.Dir(rel)
	switch dir {
	case "internal/testkit", "internal/fault", "internal/mddserve", "internal/mddclient",
		"internal/opstore", "internal/estimator":
		return true
	}
	for _, seg := range strings.Split(dir, "/") {
		if seg == "cmd" || seg == "examples" {
			return true
		}
	}
	return false
}

// globalRand are the math/rand (v1 and v2) top-level draws backed by the
// shared global source.
var globalRand = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// unseededRand lists f's global math/rand draws and the nondeterministic
// seeds passed to a generator constructor, resolving package names
// through f's imports.
func unseededRand(fset *token.FileSet, f *ast.File) []string {
	imports := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(strings.TrimSuffix(p, "/v2"))
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	// callee returns the import path of a package-qualified call ("" for
	// a method call) and the selected name
	callee := func(call *ast.CallExpr) (string, string) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", ""
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			return imports[id.Name], sel.Sel.Name
		}
		return "", sel.Sel.Name
	}
	isRand := func(p string) bool { return p == "math/rand" || p == "math/rand/v2" }
	var out []string
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if !seen[pos] {
			seen[pos] = true
			out = append(out, fmt.Sprintf("%d:%d: ", fset.Position(pos).Line, fset.Position(pos).Column)+fmt.Sprintf(format, args...))
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch p, name := callee(call); {
		case isRand(p) && globalRand[name]:
			report(call.Pos(), "global %s.%s uses the shared unseeded source; construct rand.New(rand.NewSource(seed)) with an explicit seed so failures reproduce", p, name)
		case isRand(p) && (name == "New" || name == "NewSource" || name == "NewPCG" || name == "NewChaCha8"):
			for _, arg := range call.Args {
				if pos, src := nondetSeed(arg, callee); src != "" {
					report(pos, "RNG seeded from %s is different every run; use a fixed seed so failures reproduce", src)
				}
			}
		}
		return true
	})
	return out
}

// nondetSeed returns the position and name of the first wall-clock,
// crypto-entropy or process-id call in a seed expression ("" if none).
func nondetSeed(arg ast.Expr, callee func(*ast.CallExpr) (string, string)) (pos token.Pos, what string) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && what == "" {
			switch p, name := callee(call); {
			case p == "time" && name == "Now":
				what = "time.Now"
			case p == "crypto/rand" && (name == "Read" || name == "Int"):
				what = "crypto/rand"
			case p == "os" && name == "Getpid":
				what = "os.Getpid"
			case p == "" && (name == "UnixNano" || name == "Unix" || name == "UnixMicro" || name == "UnixMilli" || name == "Nanosecond"):
				what = "a wall-clock timestamp"
			}
			pos = call.Pos()
		}
		return what == ""
	})
	return pos, what
}

// optionExempt lists the option fields no non-test file sets that stay
// settable, with the reason.
var optionExempt = map[string]string{
	"batch.ShardOptions.MaxAttempts": "the TestCancel* wakeup tests and TestChaosStickyDeathFailoverCounts build their schedules from it",
	"batch.ShardOptions.DeathAfter":  "the TestCancel* wakeup tests and TestChaosStickyDeathFailoverCounts build their schedules from it",
	"mddclient.Options.MaxAttempts":  "the load tests retry 100–200 times and the probe once",
	"mddclient.Options.Backoff":      "the TestCancel* tests set an hour to prove that the context arm ends the wait",
	"mddclient.Options.MaxBackoff":   "the TestCancel* tests set an hour to prove that the context arm ends the wait",
	"mddclient.Options.PollInterval": "the TestCancel* tests set an hour to prove that the context arm ends the wait",
	"mddclient.Options.Sleep":        "test clock",
	"mddserve.Config.FaultSleep":     "test clock",
	"mddserve.Config.BackoffSleep":   "test clock",
}

// TestEveryOptionHasACaller keeps each option earning its place: every
// exported field of an exported struct type named *Options or *Config,
// outside internal/testkit, is set — by a keyed composite-literal
// element or an assignment — in some non-test file of the module outside
// internal/testkit (cmd/, examples/ and bench/ count), unless
// optionExempt excuses it. An assignment inside the declaring package is
// that package filling in its default, not a caller choosing a value. A
// field no caller sets is a constant every caller already gets.
func TestEveryOptionHasACaller(t *testing.T) {
	const planted = `package p

import "net/http"

type RunOptions struct {
	Literal, Defaulted, Example, Unset int
	hidden                             int
}

type Config struct{ A, B int }

type runConfig struct{ Unset int }

type client struct{ http.Client }

func (o *RunOptions) withDefaults() {
	if o.Defaulted == 0 {
		o.Defaulted = 1
	}
}

func f(c *client) {
	_ = RunOptions{Literal: 1}
	_ = []*Config{{1, 2}}
	c.Timeout++
}
`
	imp, err := exportImporter()
	if err != nil {
		t.Fatal(err)
	}
	// the test kit is neither a declarer nor a caller
	skip := func(rel string) bool { return under(rel, "internal/testkit") }
	var fields map[string]token.Pos
	var set map[string]bool
	var ntypes int
	visit := func(p modPkg) {
		ntypes += optionFields(p.pkg, fields)
		optionSets(p.files, p.info, p.pkg.Path(), set)
	}

	fields, set = map[string]token.Pos{}, map[string]bool{}
	pkgs := map[string]*types.Package{}
	pimp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := pkgs[path]; pkg != nil {
			return pkg, nil
		}
		return imp.Import(path)
	})
	for _, pl := range []struct{ rel, src string }{
		{"internal/p", planted},
		{"examples/x", "package main\n\nimport \"planted/internal/p\"\n\nfunc main() { _ = p.RunOptions{Example: 1} }\n"},
		{"internal/testkit", "package testkit\n\nimport \"planted/internal/p\"\n\nvar _ = p.RunOptions{Unset: 1}\n"},
	} {
		if skip(pl.rel) {
			continue
		}
		pkg, files, info := check(t, pimp, "planted/"+pl.rel, []string{path.Base(pl.rel) + ".go"}, pl.src)
		pkgs[pkg.Path()] = pkg
		visit(modPkg{pl.rel, pkg, files, info})
	}
	unset := unsetOptions(fields, set)
	if ntypes != 2 || len(fields) != 6 || !slices.Equal(unset, []string{"p.RunOptions.Defaulted", "p.RunOptions.Unset"}) || !set["http.Client.Timeout"] {
		t.Fatalf("planted packages: %d types, %d fields, unset %q, http.Client.Timeout set %v; want 2 types, 6 fields, p.RunOptions.Defaulted and Unset unset (an example program is a caller, the test kit is not), Timeout set",
			ntypes, len(fields), unset, set["http.Client.Timeout"])
	}

	fields, set, ntypes = map[string]token.Pos{}, map[string]bool{}, 0
	walkModule(t, imp, skip, visit)
	if ntypes < 13 || len(fields) < 55 {
		t.Fatalf("found %d option fields in %d types; the tree has more — is the root right?", len(fields), ntypes)
	}
	t.Logf("%d option fields in %d types", len(fields), ntypes)
	found := map[string][]string{}
	for _, key := range unsetOptions(fields, set) {
		found[key] = []string{fmt.Sprintf("%s: option %s is set by no non-test file outside internal/testkit; make it the constant every caller gets, or add it to optionExempt with the reason", where(fields[key]), key)}
	}
	checkExemptions(t, "optionExempt", found, optionExempt)
}

// optionFields adds every exported field of pkg's exported struct types
// named *Options or *Config to fields, keyed "pkg.Type.Field", and
// returns how many such types pkg has.
func optionFields(pkg *types.Package, fields map[string]token.Pos) (ntypes int) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || obj.IsAlias() || !obj.Exported() || !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		ntypes++
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() {
				fields[optionKey(obj, f.Name())] = f.Pos()
			}
		}
	}
	return ntypes
}

func optionKey(typ *types.TypeName, field string) string {
	return typ.Pkg().Name() + "." + typ.Name() + "." + field
}

// optionSets marks in set the key of every struct field that a
// composite-literal element, an assignment or an increment in files sets
// (a promoted field under the struct that declares it). The files are
// package self's, and its assignments to its own types' fields are its
// defaults, so they are skipped.
func optionSets(files []*ast.File, info *types.Info, self string, set map[string]bool) {
	assigned := func(lhs ast.Expr) {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		typ := s.Recv()
		for depth, i := range s.Index() {
			named := namedOf(typ)
			if named == nil {
				return
			}
			f := named.Underlying().(*types.Struct).Field(i)
			if depth == len(s.Index())-1 && named.Obj().Pkg().Path() != self {
				set[optionKey(named.Obj(), f.Name())] = true
			}
			typ = f.Type()
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				named := namedOf(info.TypeOf(n))
				if named == nil {
					return true
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					name := st.Field(i).Name()
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						name = kv.Key.(*ast.Ident).Name
					}
					set[optionKey(named.Obj(), name)] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assigned(lhs)
				}
			case *ast.IncDecStmt:
				assigned(n.X)
			}
			return true
		})
	}
}

// unsetOptions returns the keys of fields that set lacks, sorted.
func unsetOptions(fields map[string]token.Pos, set map[string]bool) []string {
	var out []string
	for key := range fields {
		if !set[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// exportExempt lists the exported functions and methods that no
// non-test file outside their package calls and that stay exported,
// with the test or command that needs each.
var exportExempt = map[string]string{
	"batch.ShardRunner.Dead":       "fault's TestChaosStickyDeathFailoverCounts asserts which shard the schedule killed",
	"batch.ShardRunner.Revoke":     "mdc's TestStressShardedOperatorMidFlightRevocation (make race-stress) revokes a shard while a product runs",
	"batch.ShardRunner.Revive":     "mdc's TestStressShardedOperatorMidFlightRevocation (make race-stress) returns the shard after each round",
	"mddclient.APIError.Retryable": "the serve suite (TestServeSuite) holds the client's retry classes to the server's status codes",
	"mddclient.Client.Cancel":      "the serve suite's cancellation cases and TestStressServeCancelStorm cancel over HTTP",
	"mddclient.Client.Health":      "the serve suite's testHealthStatsAndMetrics",
	"mddclient.Client.Metrics":     "the serve suite's testHealthStatsAndMetrics",
	"mddclient.Client.Run":         "the serve suite, the serve stress tests and TestTimersRecordEverySpan run jobs over HTTP",
	"mddclient.Client.ServerStats": "the serve suite reads queue depth and per-tenant counts over HTTP",
	"mddclient.Client.Wait":        "the serve suite and the serve stress tests poll jobs to their end",
	"mddserve.Server.Pause":        "the serve suite parks the workers to hold jobs queued",
	"mddserve.Server.Resume":       "the serve suite releases the workers it parked",
}

// TestEveryExportHasACaller keeps each export earning its place: every
// exported function, and every exported method of an exported type, in
// internal/ outside internal/testkit is named by some non-test file
// outside its package (cmd/, examples/, frozen bench/ and
// internal/testkit count), unless exportExempt excuses it. A method is also
// reached when its receiver type, or a pointer to it, implements an
// interface that holds the method and that a non-test file of the module
// names, or error, or fmt.Stringer: the call then goes through the
// interface. A function only its own package calls is unexported, one
// only tests call moves into them, and one nothing calls is deleted.
func TestEveryExportHasACaller(t *testing.T) {
	planted := []struct{ rel, file, src string }{
		{"internal/p", "p.go", `package p

type T struct{}

func New() T           { return T{} }
func Own() int         { return New().Size() }
func TestOnly() int    { return 0 }
func ExampleOnly() int { return 0 }

func (T) Size() int      { return 0 }
func (T) Shape() int     { return 1 }
func (T) String() string { return "t" }
`},
		{"cmd/q", "q.go", `package main

import (
	"fmt"
	"planted/internal/p"
)

type shaper interface{ Shape() int }

func main() {
	var s shaper = p.New()
	fmt.Println(s)
}
`},
		{"cmd/r", "r_test.go", `package main

import "planted/internal/p"

var _ = p.TestOnly()
`},
		{"examples/x", "x.go", `package main

import "planted/internal/p"

func main() { _ = p.ExampleOnly() }
`},
	}
	exp, err := exportImporter()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := pkgs[path]; pkg != nil {
			return pkg, nil
		}
		return exp.Import(path)
	})
	census := newExportCensus(imp)
	for _, pl := range planted {
		pkg, files, info := check(t, imp, "planted/"+pl.rel, []string{pl.file}, pl.src)
		pkgs[pkg.Path()] = pkg
		census.add(modPkg{pl.rel, pkg, files, info})
	}
	uncalled := census.uncalled()
	if len(census.exports) != 7 || census.pkgs != 1 || !slices.Equal(uncalled, []string{"p.Own", "p.T.Size", "p.TestOnly"}) {
		t.Fatalf("planted packages: %d exports in %d packages, uncalled %q; want 7 in 1, p.Own, p.T.Size and p.TestOnly uncalled (an example program is a caller)",
			len(census.exports), census.pkgs, uncalled)
	}
	found := map[string][]string{}
	for _, key := range uncalled {
		found[key] = []string{key}
	}
	errs := exemptionErrors("exportExempt", found, map[string]string{"p.Own": "a caller in this test", "p.Gone": "a stale row"})
	if len(errs) != 3 || !strings.HasPrefix(errs[2], `exportExempt["p.Gone"]`) || !strings.Contains(errs[2], "excuses nothing") {
		t.Fatalf("planted exemptions: %q; want the two unexcused findings and p.Gone's row excusing nothing", errs)
	}

	census = newExportCensus(exp)
	walkModule(t, exp, func(string) bool { return false }, census.add)
	if len(census.exports) < 250 || census.pkgs < 30 {
		t.Fatalf("found %d exported functions and methods in %d packages; the tree has more — is the root right?", len(census.exports), census.pkgs)
	}
	t.Logf("%d exported functions and methods in %d packages of internal/ outside internal/testkit", len(census.exports), census.pkgs)
	found = map[string][]string{}
	for _, key := range census.uncalled() {
		found[key] = []string{fmt.Sprintf("%s: %s has no caller in a non-test file outside its package; unexport it, move it into the tests that call it, delete it, or add it to exportExempt with the reason",
			where(census.exports[key].Pos()), key)}
	}
	checkExemptions(t, "exportExempt", found, exportExempt)
}

// exportDeclarer reports whether the census holds the exports of the
// package in rel to a caller.
func exportDeclarer(rel string) bool {
	return strings.HasPrefix(rel, "internal/") && !under(rel, "internal/testkit")
}

func under(rel, dir string) bool { return rel == dir || strings.HasPrefix(rel, dir+"/") }

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportCensus gathers the exports of the declaring packages, keyed by
// funcKey, the keys that callers name, and the interfaces callers name.
// Packages arrive type-checked separately, so a type is looked up again
// through imp, where every importer of the package sees one object.
type exportCensus struct {
	imp     types.Importer
	exports map[string]*types.Func
	pkgs    int
	called  map[string]bool
	ifaces  map[types.Type]bool
}

func newExportCensus(imp types.Importer) *exportCensus {
	c := &exportCensus{imp: imp, exports: map[string]*types.Func{}, called: map[string]bool{}, ifaces: map[types.Type]bool{}}
	c.ifaces[types.Universe.Lookup("error").Type()] = true
	if fmtPkg, err := imp.Import("fmt"); err == nil {
		c.addInterface(fmtPkg.Scope().Lookup("Stringer").(*types.TypeName))
	}
	return c
}

func (c *exportCensus) add(p modPkg) {
	if exportDeclarer(p.rel) {
		c.pkgs++
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					c.exports[funcKey(obj)] = obj
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() || types.IsInterface(named) {
					continue
				}
				for i := range named.NumMethods() {
					if m := named.Method(i); m.Exported() {
						c.exports[funcKey(m)] = m
					}
				}
			}
		}
	}
	fset, _ := srcImporter()
	for _, f := range p.files {
		if strings.HasSuffix(fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch obj := p.info.ObjectOf(n).(type) {
				case *types.Func:
					if obj.Pkg() != nil && obj.Pkg().Path() != p.pkg.Path() {
						c.called[funcKey(obj.Origin())] = true
					}
				case *types.TypeName:
					if types.IsInterface(obj.Type()) {
						c.addInterface(obj)
					}
				}
			case *ast.InterfaceType:
				c.ifaces[p.info.TypeOf(n)] = true
			}
			return true
		})
	}
}

// canonical returns the type obj names as imp sees its package: the
// object itself when obj is local to a function or imp cannot import
// its package (a main package).
func (c *exportCensus) canonical(obj *types.TypeName) types.Type {
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		if pkg, err := c.imp.Import(obj.Pkg().Path()); err == nil {
			if o, ok := pkg.Scope().Lookup(obj.Name()).(*types.TypeName); ok {
				return types.Unalias(o.Type())
			}
		}
	}
	return types.Unalias(obj.Type())
}

func (c *exportCensus) addInterface(obj *types.TypeName) { c.ifaces[c.canonical(obj)] = true }

// uncalled returns the keys of the exports no caller reaches, sorted.
func (c *exportCensus) uncalled() []string {
	var out []string
	for key, fn := range c.exports {
		if !c.called[key] && !c.viaInterface(fn) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// viaInterface reports whether fn is a method that a named interface
// holds and its receiver type, or a pointer to it, implements.
func (c *exportCensus) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := c.canonical(namedOf(recv.Type()).Obj())
	for t := range c.ifaces {
		iface := t.Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			if iface.Method(i).Name() == fn.Name() && (types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
	}
	return false
}
