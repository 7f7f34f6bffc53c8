package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// KernelPure enforces the bit-identity discipline inside functions
// annotated `// milret:kernel` (the scalar distance kernels that the
// AVX2 assembly must match bit for bit, see internal/mat):
//
//   - no math.FMA — fused multiply-add rounds once where the assembly's
//     mul+add rounds twice, so results diverge in the last ulp. (The
//     likelihood kernels' exp bodies do fuse, because their oracle is a
//     math.Exp call, which fuses on amd64 hosts with FMA; the scalar side
//     never writes an FMA out, so this rule holds there too);
//   - no math.Min / math.Max — their NaN and signed-zero semantics
//     differ from the kernels' canonical compare-and-select;
//   - float comparisons must keep the NaN-false polarity the assembly
//     implements: `<`, `<=` and `>` are all false when an operand is
//     NaN and are allowed; `>=`, `==` and `!=` are not, and neither is
//     negating a float comparison (`!(a > b)` is true for NaN where
//     `a <= b` is false);
//   - no range over a map — map iteration order would make a reduction
//     non-deterministic across runs, let alone across scalar and SIMD.
//
// The annotation is opt-in per function, so the analyzer runs
// repo-wide at zero cost outside the kernels.
var KernelPure = &Analyzer{
	Name: "kernelpure",
	Doc:  "checks FMA-free, NaN-false-compare, iteration-order-independent discipline in milret:kernel functions",
	Run:  runKernelPure,
}

func runKernelPure(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := funcDirective("kernel", fn); !ok {
				continue
			}
			checkKernelBody(pass, fn.Body)
		}
	}
	return nil
}

func checkKernelBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := mathCall(pass, n); ok {
				switch name {
				case "FMA":
					pass.Reportf(n.Pos(), "math.FMA in a milret:kernel function: fused rounding diverges from the AVX2 mul+add bits")
				case "Min", "Max":
					pass.Reportf(n.Pos(), "math.%s in a milret:kernel function: its NaN/±0 semantics differ from the kernels' compare-and-select", name)
				}
			}
		case *ast.BinaryExpr:
			if !isFloatOperand(pass, n.X) && !isFloatOperand(pass, n.Y) {
				return true
			}
			switch n.Op {
			case token.GEQ, token.EQL, token.NEQ:
				pass.Reportf(n.OpPos, "float `%s` in a milret:kernel function: use a NaN-false ordered compare (`<`, `<=`, `>`)", n.Op)
			}
		case *ast.UnaryExpr:
			if n.Op == token.NOT && isFloatComparison(pass, n.X) {
				pass.Reportf(n.Pos(), "negated float comparison in a milret:kernel function: `!(a > b)` is true for NaN where `a <= b` is false — write the NaN-false compare directly")
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "range over a map in a milret:kernel function: iteration order would make the reduction non-deterministic")
				}
			}
		}
		return true
	})
}

// mathCall reports whether call invokes a function from package math,
// returning its name.
func mathCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
		return "", false
	}
	return fn.Name(), true
}

func isFloatOperand(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isFloatComparison reports whether e (modulo parens) is a comparison
// whose operands are floats.
func isFloatComparison(pass *Pass, e ast.Expr) bool {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	bin, ok := e.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return isFloatOperand(pass, bin.X) || isFloatOperand(pass, bin.Y)
	}
	return false
}
