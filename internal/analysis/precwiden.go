package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// kernelPkgSuffixes are the fp32/fp16 kernel packages whose hot loops
// the paper's precision claims (§6.4, Fig. 10) are about. Widening a
// loop-carried value to float64/complex128 changes both the numerics
// and the modelled memory traffic, so it must be a visible, annotated
// decision — never an accident.
var kernelPkgSuffixes = []string{
	"internal/tlr",
	"internal/cfloat",
	"internal/precision",
}

// PrecWiden flags the two ways a float32 kernel loop ends up computing
// in float64: float32→float64 and complex64→complex128 conversions, and
// complex64 products (`*`, `*=`) — gc lowers a complex64 multiply to
// four float32→float64 converts, float64 arithmetic and two converts
// back, a widening no conversion in the source shows. Both are flagged
// inside for/range loops of the kernel packages. Intentional widening
// is suppressed with //lint:widen-ok — on the line, the line above it,
// or the enclosing function's doc comment (for functions whose whole
// point is float64 accumulation, e.g. the cfloat dot products).
var PrecWiden = &Analyzer{
	Name: "precwiden",
	Doc: "flag silent float32→float64 / complex64→complex128 widening, conversions and " +
		"complex64 products alike, in kernel hot loops; annotate intentional widening with //lint:widen-ok",
	Run: runPrecWiden,
}

func runPrecWiden(pass *Pass) error {
	if !pathMatches(pass.Path, kernelPkgSuffixes...) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) {
			var pos token.Pos
			var what string
			switch n := n.(type) {
			case *ast.CallExpr:
				if len(n.Args) != 1 {
					return
				}
				from, to, isWiden := wideningConversion(pass.TypesInfo, n)
				if !isWiden {
					return
				}
				pos, what = n.Pos(), "silent "+from+"→"+to+" widening"
			case *ast.BinaryExpr:
				if n.Op != token.MUL || !isComplex64Product(pass.TypesInfo, n) {
					return
				}
				pos, what = n.OpPos, "complex64 product (gc computes it in float64)"
			case *ast.AssignStmt:
				if n.Tok != token.MUL_ASSIGN || !isComplex64(pass.TypesInfo.TypeOf(n.Lhs[0])) {
					return
				}
				pos, what = n.TokPos, "complex64 product (gc computes it in float64)"
			default:
				return
			}
			if loopDepth(stack) > 0 {
				pass.Reportf(pos, "%s in a kernel hot loop changes numerics and modelled traffic; write the float32 arithmetic out, or annotate //lint:widen-ok if the widening is intentional", what)
			}
		})
	}
	return nil
}

// isComplex64Product reports whether the multiplication e is evaluated
// at run time in complex64 (a product folded to a constant is not).
func isComplex64Product(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value == nil && isComplex64(tv.Type)
}

func isComplex64(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Complex64
}

// wideningConversion reports whether call is a conversion whose target
// is float64/complex128 and whose operand is float32/complex64.
func wideningConversion(info *types.Info, call *ast.CallExpr) (from, to string, ok bool) {
	ftv, okf := info.Types[call.Fun]
	if !okf || !ftv.IsType() {
		return "", "", false
	}
	dst, okd := ftv.Type.Underlying().(*types.Basic)
	if !okd {
		return "", "", false
	}
	atv, oka := info.Types[call.Args[0]]
	if !oka || atv.Type == nil {
		return "", "", false
	}
	src, oks := atv.Type.Underlying().(*types.Basic)
	if !oks {
		return "", "", false
	}
	switch {
	case dst.Kind() == types.Float64 && src.Kind() == types.Float32:
		return "float32", "float64", true
	case dst.Kind() == types.Complex128 && src.Kind() == types.Complex64:
		return "complex64", "complex128", true
	}
	return "", "", false
}
