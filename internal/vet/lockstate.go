package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockWalker traverses a function body statement by statement keeping
// the set of mutexes currently held. It is deliberately flow-simple:
// branches are explored with a copy of the held set and assumed not to
// change it for the code that follows (the `if cond { mu.Unlock();
// return }` idiom stays precise; a branch that unlocks and falls
// through needs an allowlist entry). Nested function literals start
// with an empty held set — they run on their own goroutine or after
// the region ends.
type lockWalker struct {
	pkg *Package

	// async makes the walker precise about asynchronous boundaries for
	// interprocedural analyses: nested function literals are handed to
	// onFuncLit instead of being walked inline, and the call spawned by
	// a `go` statement is not reported through onCall — the goroutine
	// does not run under the spawner's locks.
	async bool

	// onCall is invoked for every call expression outside nested
	// function literals with the mutexes held at that point.
	onCall func(call *ast.CallExpr, held map[string]token.Pos)

	// onAccess is invoked for every selector expression (write=true for
	// assignment targets) with the mutexes held at that point.
	onAccess func(sel *ast.SelectorExpr, write bool, held map[string]token.Pos)

	// onLock is invoked at every acquisition with the selector being
	// locked, its normalized name, and the set of mutexes held before
	// this acquisition takes effect.
	onLock func(sel *ast.SelectorExpr, name string, pos token.Pos, held map[string]token.Pos)

	// onFuncLit receives nested function literals in async mode; the
	// callee decides in which context (if any) to walk their bodies.
	onFuncLit func(lit *ast.FuncLit)
}

func (w *lockWalker) walkBody(body *ast.BlockStmt) {
	w.walkStmts(body.List, map[string]token.Pos{})
}

func (w *lockWalker) walkStmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		w.walkStmt(s, held)
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *lockWalker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if sel, name, locked, ok := w.lockOp(s.X); ok {
			if locked {
				if w.onLock != nil {
					w.onLock(sel, name, s.Pos(), held)
				}
				held[name] = s.Pos()
			} else {
				delete(held, name)
			}
			return
		}
		w.scanExpr(s.X, held)
	case *ast.DeferStmt:
		if _, _, locked, ok := w.lockOp(s.Call); ok && !locked {
			return // defer mu.Unlock(): held until the region ends
		}
		w.scanExpr(s.Call, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.scanExpr(rhs, held)
		}
		for _, lhs := range s.Lhs {
			w.scanLHS(lhs, held)
		}
	case *ast.IncDecStmt:
		w.scanLHS(s.X, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.BlockStmt:
		w.walkStmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		inner := copyHeld(held)
		w.walkStmts(s.Body.List, inner)
		if s.Post != nil {
			w.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.scanExpr(e, held)
				}
				w.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkStmt(s.Assign, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := copyHeld(held)
				if cc.Comm != nil {
					w.walkStmt(cc.Comm, inner)
				}
				w.walkStmts(cc.Body, inner)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, held)
		}
	case *ast.GoStmt:
		if w.async {
			// The spawned call runs outside the spawner's critical
			// section; only its operands evaluate synchronously.
			for _, arg := range s.Call.Args {
				w.scanExpr(arg, held)
			}
			switch fun := s.Call.Fun.(type) {
			case *ast.FuncLit:
				if w.onFuncLit != nil {
					w.onFuncLit(fun)
				}
			case *ast.SelectorExpr:
				w.scanExpr(fun.X, held)
			}
			return
		}
		w.scanExpr(s.Call, held)
	case *ast.SendStmt:
		w.scanExpr(s.Chan, held)
		w.scanExpr(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	}
}

// scanExpr reports reads and calls inside e. Function literal bodies
// are walked with an empty held set.
func (w *lockWalker) scanExpr(e ast.Expr, held map[string]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if w.async {
				if w.onFuncLit != nil {
					w.onFuncLit(n)
				}
				return false
			}
			w.walkStmts(n.Body.List, map[string]token.Pos{})
			return false
		case *ast.CallExpr:
			if w.onCall != nil {
				w.onCall(n, held)
			}
		case *ast.SelectorExpr:
			if w.onAccess != nil {
				w.onAccess(n, false, held)
			}
		}
		return true
	})
}

// scanLHS treats a direct selector target as a write; anything inside
// it (index expressions, the selector base) is still a read.
func (w *lockWalker) scanLHS(e ast.Expr, held map[string]token.Pos) {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if w.onAccess != nil {
			w.onAccess(sel, true, held)
		}
		w.scanExpr(sel.X, held)
		return
	}
	if _, ok := e.(*ast.Ident); ok {
		return
	}
	w.scanExpr(e, held)
}

// lockOp recognizes mu.Lock/Unlock/RLock/RUnlock on a sync.Mutex or
// sync.RWMutex and returns the mutex selector, its normalized name and
// whether the operation acquires it.
func (w *lockWalker) lockOp(e ast.Expr) (sel *ast.SelectorExpr, name string, locked, ok bool) {
	return lockOpOf(w.pkg, e)
}

func lockOpOf(pkg *Package, e ast.Expr) (sel *ast.SelectorExpr, name string, locked, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return nil, "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locked = true
	case "Unlock", "RUnlock":
	default:
		return nil, "", false, false
	}
	if !isSyncLocker(pkg.Info.Types[sel.X].Type) {
		return nil, "", false, false
	}
	return sel, exprString(sel.X), locked, true
}

// isSyncLocker reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isSyncLocker(t types.Type) bool {
	t = derefType(t)
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return true
	}
	return false
}

func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedType returns the named type behind t, unwrapping one pointer.
func namedType(t types.Type) *types.Named {
	t = derefType(t)
	named, _ := t.(*types.Named)
	return named
}

// isNamed reports whether t is (a pointer to) pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// exprString renders a (selector) expression for diagnostics.
func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExprString(&b, e)
	return b.String()
}

func writeExprString(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExprString(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.StarExpr:
		writeExprString(b, x.X)
	case *ast.ParenExpr:
		writeExprString(b, x.X)
	case *ast.IndexExpr:
		writeExprString(b, x.X)
		b.WriteString("[]")
	case *ast.CallExpr:
		writeExprString(b, x.Fun)
		b.WriteString("()")
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

// lockKeyOf computes a module-wide identity for the mutex behind a
// lock expression: "<pkgpath>.<Type>.<field>" for struct-field mutexes
// and "<pkgpath>.<var>" for package-level ones. Mutexes with no stable
// identity across functions (locals, parameters) yield "".
func lockKeyOf(pkg *Package, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := pkg.Info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return ""
		}
		return v.Pkg().Path() + "." + v.Name()
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				v, ok := pkg.Info.Uses[x.Sel].(*types.Var)
				if !ok || v.Pkg() == nil {
					return ""
				}
				return v.Pkg().Path() + "." + v.Name()
			}
		}
		tv, ok := pkg.Info.Types[x.X]
		if !ok {
			return ""
		}
		named := namedType(tv.Type)
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
	}
	return ""
}

// shortKey trims the directory part of a lock key for diagnostics:
// "repro/internal/oncrpc.Client.mu" -> "oncrpc.Client.mu".
func shortKey(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}
