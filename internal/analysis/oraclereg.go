package analysis

import (
	"go/ast"
	"go/types"
)

// oracleKernelSuffixes are the packages that host TLR-MVM execution
// paths. The ROADMAP requires every such path to be registered as an
// Impl in the internal/testkit differential oracle so the
// cross-implementation checks and §6.5–§6.7 invariants keep covering it;
// this analyzer mechanizes that rule.
var oracleKernelSuffixes = []string{
	"internal/tlr",
	"internal/mdc",
	"internal/wsesim",
	"internal/dense",
	"internal/precision",
}

// OracleReg detects exported kernel entry points with the execution-path
// shape — MulVec-style signatures taking at least two []complex64
// vectors and returning nothing or an error — that the internal/testkit
// oracle never references. A path the oracle cannot see is a path the
// differential tests silently stopped covering. Genuinely out-of-scope
// entry points (wrappers whose vector shape does not match the oracle
// matrix) are annotated //lint:oracle-exempt with a reason.
//
// The analyzer resolves references inside internal/testkit through the
// pass's whole-module context.
var OracleReg = &Analyzer{
	Name: "oraclereg",
	Doc: "require every exported MulVec-shaped kernel entry point to be referenced " +
		"from the internal/testkit differential oracle (escape: //lint:oracle-exempt)",
	Run: runOracleReg,
}

func runOracleReg(pass *Pass) error {
	if !pathMatches(pass.Path, oracleKernelSuffixes...) {
		return nil
	}
	testkit := pass.Module.PackageBySuffix("internal/testkit")
	if testkit == nil {
		return nil
	}
	used := map[*types.Func]bool{}
	for _, obj := range testkit.Info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn] = true
		}
	}
	pass.eachFunc(false, func(fd *ast.FuncDecl, fn *types.Func) {
		if fd.Name.IsExported() && isKernelEntryShape(pass.TypesInfo, fd) && !used[fn] {
			pass.Reportf(fd.Name.Pos(), "exported kernel entry point %s is not referenced by the internal/testkit differential oracle; register it as an Impl (TESTING.md, \"Adding an implementation to the oracle\") or annotate //lint:oracle-exempt with a reason", entryName(fd))
		}
	})
	return nil
}

// isKernelEntryShape matches the execution-path signature: at least two
// []complex64 parameters (input and output vectors) and no results or a
// single error. Methods qualify only on exported receiver types —
// unexported receivers are not reachable as public execution paths.
func isKernelEntryShape(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil || !named.Obj().Exported() {
			return false
		}
	}
	cvecs := 0
	for i := 0; i < sig.Params().Len(); i++ {
		if isComplex64Slice(sig.Params().At(i).Type()) {
			cvecs++
		}
	}
	if cvecs < 2 {
		return false
	}
	switch sig.Results().Len() {
	case 0:
		return true
	case 1:
		named := namedOf(sig.Results().At(0).Type())
		return named != nil && named.Obj().Name() == "error"
	}
	return false
}

func isComplex64Slice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Complex64
}

func entryName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + fd.Name.Name
		}
	}
	return fd.Name.Name
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
