package vet

import (
	"go/ast"
	"go/types"
)

// taintTarget is one analyzable function body: a declared function or
// a function literal (reported under the enclosing declaration's
// name). Literals get their own CFG — the engine does not inline them.
// Interprocedural propagation lives in summary.go (the deep-summary
// fixpoint over the call graph); this file keeps the body collection
// and call-resolution helpers the policies share.
type taintTarget struct {
	pkg  *Package
	decl *ast.FuncDecl // enclosing declaration, for diagnostics
	fn   *types.Func   // nil for function literals
	body *ast.BlockStmt
}

// taintTargets collects every function body in the module, literals
// included, in deterministic (package, file, declaration) order.
func taintTargets(pkgs []*Package) []taintTarget {
	var out []taintTarget
	forEachFunc(pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		out = append(out, taintTarget{pkg: pkg, decl: fd, fn: fn, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, taintTarget{pkg: pkg, decl: fd, body: lit.Body})
			}
			return true
		})
	})
	return out
}

// stdCallee resolves a call to a function or method object and returns
// it with its defining package path ("" for builtins, locals and
// indirect calls).
func stdCallee(pkg *Package, call *ast.CallExpr) (*types.Func, string) {
	fn := calleeOf(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	return fn, fn.Pkg().Path()
}

// recvNamed returns the named type of a method call's receiver
// expression, nil for non-method calls.
func recvNamed(pkg *Package, call *ast.CallExpr) *types.Named {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return namedType(s.Recv())
}
