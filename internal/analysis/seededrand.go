package analysis

import (
	"go/ast"
	"go/types"
)

// SeededRand keeps randomness in the correctness infrastructure
// reproducible: inside internal/testkit, internal/fault, the cmd/...
// drivers, and any _test.go file (benchmarks and fuzz seed corpus
// construction included), RNGs must be explicitly and deterministically
// seeded. Global math/rand draws (the shared source) and time-derived
// seeds both make a failing trial unreproducible, which defeats the
// differential oracle — and a chaos schedule that fires on a
// nondeterministic draw cannot be replayed at all. The cmd/ drivers are
// in scope because their runs feed committed artifacts (REPORT.md, MDD
// reports) that must reproduce bit-for-bit. The serving layer
// (internal/mddserve, internal/mddclient) is in scope because job
// results are keyed on spec seeds — a tlrmvm checksum or a client
// backoff schedule derived from the wall clock would break both the
// determinism contract of the API and the replayability of every
// serving-layer chaos test. The out-of-core store and the noise
// estimator (internal/opstore, internal/estimator) are in scope because
// their validation tiers are randomized property tests — an admission
// sequence or a soundness grid drawn from an unseeded source cannot be
// replayed when the invariant it violated is being debugged.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc: "require explicit deterministic seeds for RNGs in internal/testkit, " +
		"internal/fault, internal/mddserve, internal/mddclient, internal/opstore, " +
		"internal/estimator, cmd/..., examples/..., benchmarks, and fuzz seeds " +
		"(no global math/rand, no time-derived seeds)",
	TestFiles: true,
	Run:       runSeededRand,
}

// randConstructors are the generator-construction entry points whose
// seed arguments must be deterministic.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, // math/rand
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
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

func runSeededRand(pass *Pass) error {
	inTestkit := pathMatches(pass.Path, "internal/testkit", "internal/fault",
		"internal/mddserve", "internal/mddclient",
		"internal/opstore", "internal/estimator") ||
		hasPathSegment(pass.Path, "cmd") ||
		hasPathSegment(pass.Path, "examples")
	for _, file := range pass.Files {
		if !inTestkit && !pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if isGlobalRand(fn) {
				pass.Reportf(call.Pos(), "global %s.%s uses the shared unseeded source; construct rand.New(rand.NewSource(seed)) with an explicit seed so failures reproduce", funcPkgPath(fn), fn.Name())
				return true
			}
			p := funcPkgPath(fn)
			if (p == "math/rand" || p == "math/rand/v2") && randConstructors[fn.Name()] {
				for _, arg := range call.Args {
					// rand.New(rand.NewSource(bad)) nests two constructors
					// around one seed; Reportf keeps one report per node
					if node, src := findNondetSeed(pass.TypesInfo, arg); node != nil {
						pass.Reportf(node.Pos(), "RNG seeded from %s is different every run; use a fixed seed so failures reproduce", src)
					}
				}
			}
			return true
		})
	}
	return nil
}

// findNondetSeed looks through a seed expression for wall-clock or
// crypto-entropy sources and returns the offending node and its name.
func findNondetSeed(info *types.Info, arg ast.Expr) (ast.Node, string) {
	var node ast.Node
	var what string
	ast.Inspect(arg, func(n ast.Node) bool {
		if node != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		switch funcPkgPath(fn) + "." + fn.Name() {
		case "time.Now":
			node, what = call, "time.Now"
		case "crypto/rand.Read", "crypto/rand.Int":
			node, what = call, "crypto/rand"
		case "os.Getpid":
			node, what = call, "os.Getpid"
		}
		if node == nil && recvIsTimeTime(fn) {
			switch fn.Name() {
			case "UnixNano", "Unix", "UnixMicro", "UnixMilli", "Nanosecond":
				node, what = call, "a wall-clock timestamp"
			}
		}
		return node == nil
	})
	return node, what
}

func recvIsTimeTime(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}
