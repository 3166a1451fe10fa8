package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CtxDeadline checks that upstream RPC entry points are only reachable
// through deadline-bearing contexts. A sink is any method named Call
// or CallCred whose first parameter is a context.Context — the shape
// of every RPC issue point in this module (oncrpc.Client,
// oncrpc.ReconnectClient, and the proxy upcall wrappers around them).
//
// Context expressions are classified flow-insensitively per variable:
// context.WithTimeout/WithDeadline results are deadline-bearing,
// WithCancel/WithValue inherit from their parent, Background/TODO can
// never gain a deadline, and a context parameter defers the obligation
// to the caller. A variable assigned a bearing value anywhere counts
// as bearing everywhere — conditional `if r != nil { ctx, cancel =
// context.WithTimeout(...) }` guards therefore pass, which is the
// deliberate lenient bias. Obligations propagate interprocedurally:
// when a function forwards its context parameter into a sink (or into
// another obligated function) through a direct call, each of its
// callers must supply a deadline-bearing or parameter context;
// passing context.Background()/TODO() there is a finding. Contexts of
// unknown provenance (struct fields, function results) are trusted
// silently, as are calls through function values and interfaces with
// no unique static callee.
type CtxDeadline struct {
	// Packages restricts reporting to call sites in these import
	// paths; empty reports everywhere. The propagation itself always
	// runs over the whole module.
	Packages []string
}

// Name implements Analyzer.
func (CtxDeadline) Name() string { return "ctx-deadline" }

const (
	ctxUnbounded = iota // Background/TODO: can never gain a deadline
	ctxUnknown          // field, function result, untracked
	ctxParam            // aliases a context parameter of the function
	ctxBearing          // WithTimeout/WithDeadline somewhere on the path
)

type ctxStatus struct {
	kind  int
	param *types.Var // set for ctxParam
}

// Run implements Analyzer.
func (a CtxDeadline) Run(m *module) []Diagnostic {
	g := m.graph()

	type site struct {
		pkg         *Package
		pos         token.Pos
		desc        string
		arg         ctxStatus
		sink        bool
		calleeParam *types.Var // obligation target for non-sink sites
	}
	sites := make(map[*types.Func][]site) // by enclosing declaration

	forEachFunc(m.pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		owner, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		status := classifyContexts(pkg, fd)
		add := func(s site) { sites[owner] = append(sites[owner], s) }
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(pkg, call)
			if callee == nil {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			if isRPCSink(callee, sig) {
				if len(call.Args) > 0 {
					add(site{
						pkg:  pkg,
						pos:  call.Pos(),
						desc: exprString(call.Fun),
						arg:  exprCtxStatus(pkg, status, call.Args[0]),
						sink: true,
					})
				}
				return true
			}
			if _, inModule := g.decls[callee]; !inModule {
				return true
			}
			for i := 0; i < params.Len() && i < len(call.Args); i++ {
				if sig.Variadic() && i == params.Len()-1 {
					break
				}
				if !isNamed(params.At(i).Type(), "context", "Context") {
					continue
				}
				add(site{
					pkg:         pkg,
					pos:         call.Pos(),
					desc:        exprString(call.Fun),
					arg:         exprCtxStatus(pkg, status, call.Args[i]),
					calleeParam: params.At(i),
				})
			}
			return true
		})
	})

	// Propagate obligations from sinks up through context parameters,
	// bottom-up over the call graph. A function's needy parameters
	// depend only on its own call sites and its callees' needy
	// parameters, and the set only grows, so the order of the passes
	// cannot change the result.
	needy := make(map[*types.Var]bool)
	g.bottomUp(func(_ *declSite, fn *types.Func) bool {
		changed := false
		for _, s := range sites[fn] {
			obligated := s.sink || (s.calleeParam != nil && needy[s.calleeParam])
			if obligated && s.arg.kind == ctxParam && !needy[s.arg.param] {
				needy[s.arg.param] = true
				changed = true
			}
		}
		return changed
	})

	var diags []Diagnostic
	for _, fn := range g.nodes {
		for _, s := range sites[fn] {
			if !inPackages(s.pkg, a.Packages) || s.arg.kind != ctxUnbounded {
				continue
			}
			if s.sink {
				diags = append(diags, Diagnostic{
					Analyzer: "ctx-deadline",
					Pos:      s.pkg.Fset.Position(s.pos),
					Message:  fmt.Sprintf("upstream RPC %s is issued with a context that can never carry a deadline", s.desc),
				})
			} else if needy[s.calleeParam] {
				diags = append(diags, Diagnostic{
					Analyzer: "ctx-deadline",
					Pos:      s.pkg.Fset.Position(s.pos),
					Message:  fmt.Sprintf("call to %s passes a deadline-free context into an upstream RPC path", s.desc),
				})
			}
		}
	}
	return diags
}

// inPackages reports whether pkg is one of paths; an empty list
// admits every package.
func inPackages(pkg *Package, paths []string) bool {
	if len(paths) == 0 {
		return true
	}
	for _, p := range paths {
		if pkg.ImportPath == p {
			return true
		}
	}
	return false
}

// isRPCSink reports whether fn is an RPC issue point: a method named
// Call or CallCred taking a context.Context first.
func isRPCSink(fn *types.Func, sig *types.Signature) bool {
	if sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Call", "CallCred":
	default:
		return false
	}
	return sig.Params().Len() > 0 && isNamed(sig.Params().At(0).Type(), "context", "Context")
}

// classifyContexts assigns a deadline status to every context-typed
// variable in fd by iterating its assignments to a fixpoint. The
// merge is lenient: bearing beats param beats unknown beats unbounded.
func classifyContexts(pkg *Package, fd *ast.FuncDecl) map[*types.Var]ctxStatus {
	status := make(map[*types.Var]ctxStatus)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok && isNamed(v.Type(), "context", "Context") {
					status[v] = ctxStatus{kind: ctxParam, param: v}
				}
			}
		}
	}
	assign := func(lhs ast.Expr, st ctxStatus) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := pkg.Info.Defs[id].(*types.Var)
		if !ok {
			v, ok = pkg.Info.Uses[id].(*types.Var)
		}
		if !ok || !isNamed(v.Type(), "context", "Context") {
			return false
		}
		if old, seen := status[v]; !seen || st.kind > old.kind {
			status[v] = st
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if assign(lhs, exprCtxStatus(pkg, status, n.Rhs[i])) {
							changed = true
						}
					}
					return true
				}
				// ctx, cancel := context.WithTimeout(...): tuple form.
				if len(n.Rhs) == 1 {
					st := exprCtxStatus(pkg, status, n.Rhs[0])
					for _, lhs := range n.Lhs {
						if assign(lhs, st) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, name := range n.Names {
						if assign(name, exprCtxStatus(pkg, status, n.Values[i])) {
							changed = true
						}
					}
				} else if len(n.Values) == 1 {
					st := exprCtxStatus(pkg, status, n.Values[0])
					for _, name := range n.Names {
						if assign(name, st) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return status
}

// exprCtxStatus classifies a context expression against the current
// variable statuses.
func exprCtxStatus(pkg *Package, status map[*types.Var]ctxStatus, e ast.Expr) ctxStatus {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			if st, ok := status[v]; ok {
				return st
			}
		}
		return ctxStatus{kind: ctxUnknown}
	case *ast.CallExpr:
		fn := calleeOf(pkg, x)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return ctxStatus{kind: ctxUnknown}
		}
		switch fn.Name() {
		case "WithTimeout", "WithDeadline":
			return ctxStatus{kind: ctxBearing}
		case "WithCancel", "WithValue", "WithoutCancel":
			if len(x.Args) > 0 {
				return exprCtxStatus(pkg, status, x.Args[0])
			}
		case "Background", "TODO":
			return ctxStatus{kind: ctxUnbounded}
		}
		return ctxStatus{kind: ctxUnknown}
	}
	return ctxStatus{kind: ctxUnknown}
}
