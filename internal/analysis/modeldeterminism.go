package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// modelPkgSuffixes are the deterministic machine-model packages: their
// outputs (cycle counts, byte counts, SRAM footprints) are diffed exactly
// by `make report-check` and asserted exactly by the §6.5–§6.7 oracle
// invariants, so any run-to-run variation is a correctness bug.
var modelPkgSuffixes = []string{
	"internal/cs2",
	"internal/wse",
	"internal/wsesim",
	"internal/roofline",
}

// nondetFuncs maps "pkgpath.Func" to the reason it is forbidden inside a
// deterministic model package.
var nondetFuncs = map[string]string{
	"time.Now":   "reads the wall clock",
	"time.Since": "reads the wall clock",
	"time.Until": "reads the wall clock",

	"os.Getenv":    "reads the environment",
	"os.LookupEnv": "reads the environment",
	"os.Environ":   "reads the environment",
	"os.Getpid":    "depends on the process",
	"os.Hostname":  "depends on the host",
}

// globalRandFuncs are the math/rand (v1 and v2) top-level draws backed
// by the shared global source.
var globalRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64N": true,
	"Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

func isGlobalRand(fn *types.Func) bool {
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false // methods on *rand.Rand draw from their own source
	}
	p := funcPkgPath(fn)
	return (p == "math/rand" || p == "math/rand/v2") && globalRandFuncs[fn.Name()]
}

// ModelDeterminism forbids nondeterminism inside the machine-model
// packages: wall-clock reads, global math/rand draws, environment reads,
// and accumulation that depends on map iteration order.
var ModelDeterminism = &Analyzer{
	Name: "modeldeterminism",
	Doc: "forbid wall-clock, global rand, env reads, and map-order-dependent " +
		"accumulation in the deterministic model packages (cs2, wse, wsesim, roofline)",
	Run: runModelDeterminism,
}

func runModelDeterminism(pass *Pass) error {
	if !pathMatches(pass.Path, modelPkgSuffixes...) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				if fn == nil {
					return true
				}
				key := funcPkgPath(fn) + "." + fn.Name()
				if why, ok := nondetFuncs[key]; ok {
					pass.Reportf(n.Pos(), "%s %s; model packages must be bit-deterministic (REPORT.md diffs their outputs exactly)", key, why)
				} else if isGlobalRand(fn) {
					pass.Reportf(n.Pos(), "global %s.%s draws from a shared unseeded source; model packages must be bit-deterministic", funcPkgPath(fn), fn.Name())
				}
			case *ast.RangeStmt:
				checkMapRangeAccumulation(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkMapRangeAccumulation flags order-dependent accumulation inside a
// range over a map: floating-point/complex compound assignment to a
// variable declared outside the loop (FP addition is not associative, so
// the result depends on Go's randomized map iteration order), and
// appends to an outer slice (element order varies run to run).
func checkMapRangeAccumulation(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			for _, lhs := range as.Lhs {
				if !declaredOutside(pass, lhs, rng.Body.Pos()) {
					continue
				}
				if t, ok := pass.TypesInfo.Types[lhs]; ok && isFloatOrComplex(t.Type) {
					pass.Reportf(as.Pos(), "floating-point accumulation over map iteration order is nondeterministic; iterate sorted keys instead")
				}
			}
		case token.ASSIGN, token.DEFINE:
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				} else if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				// Collecting the keys themselves is the first half of the
				// sorted-iteration idiom; only flag appends that capture
				// anything else.
				if appendsOnlyRangeKey(pass, call, rng) {
					continue
				}
				if i < len(as.Lhs) && declaredOutside(pass, as.Lhs[i], rng.Body.Pos()) {
					pass.Reportf(as.Pos(), "append into an outer slice while ranging over a map records elements in nondeterministic order; iterate sorted keys instead")
				}
			}
		}
		return true
	})
}

// appendsOnlyRangeKey reports whether every appended element is the
// range statement's key variable — the collect-then-sort idiom.
func appendsOnlyRangeKey(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	keyID, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.TypesInfo.ObjectOf(keyID)
	if keyObj == nil {
		return false
	}
	for _, arg := range call.Args[1:] {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != keyObj {
			return false
		}
	}
	return len(call.Args) > 1
}

// declaredOutside reports whether the leftmost identifier of expr
// resolves to an object declared before pos (i.e. outside the loop body
// starting at pos). Selectors (x.f) count as outer when their base does.
func declaredOutside(pass *Pass, expr ast.Expr, pos token.Pos) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
			continue
		case *ast.IndexExpr:
			expr = e.X
			continue
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(e)
			return obj != nil && obj.Pos() < pos
		default:
			return false
		}
	}
}

func isFloatOrComplex(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
