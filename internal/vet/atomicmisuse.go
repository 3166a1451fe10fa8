package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicMisuse flags the three ways sync/atomic discipline decays in a
// counter-heavy codebase:
//
//  1. mixed access: a field (or package variable) manipulated with
//     sync/atomic somewhere is written with a plain assignment or
//     increment somewhere else — the plain write races every atomic
//     reader and can tear on 32-bit platforms.
//  2. non-atomic read: a location written with sync/atomic is read
//     plainly — the read may observe a torn or stale value, and the
//     race detector will (correctly) object.
//  3. lost update: a typed atomic (atomic.Uint64 and friends) updated
//     with x.Store(... x.Load() ...) — the load/store pair is not
//     atomic as a unit, so concurrent updates are lost. Add or a
//     CompareAndSwap loop is the sanctioned read-modify-write.
//
// Classification is module-wide: the atomic accesses may live in a
// different function or package than the plain ones. Initialization is
// exempt — writes through a constructor-fresh base (a local assigned a
// composite literal or new(T)) and accesses to by-value locals (copies)
// are not mixing, they precede sharing.
type AtomicMisuse struct{}

// Name implements Analyzer.
func (AtomicMisuse) Name() string { return "atomic-misuse" }

// atAccess is one plain (non-atomic) access to a tracked location.
type atAccess struct {
	pkg   *Package
	pos   token.Pos
	fn    string
	write bool
}

// atRecord is everything the module does to one location.
type atRecord struct {
	display      string
	atomicReads  []token.Pos
	atomicWrites []token.Pos
	plain        []atAccess
}

// Run implements Analyzer.
func (AtomicMisuse) Run(m *module) []Diagnostic {
	rec := make(map[*types.Var]*atRecord)
	consumed := make(map[ast.Node]bool) // selectors/idents used by atomic calls
	var diags []Diagnostic

	// Pass A: atomic operations — old-style atomic.AddUint64(&x.f, ..)
	// calls classify the location, typed-atomic Store(..Load()..) is
	// the lost-update rule.
	forEachFunc(m.pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if v, write, target := oldStyleAtomic(pkg, call); v != nil {
				consumed[target] = true
				r := atRecordFor(rec, pkg, v, target)
				if write {
					r.atomicWrites = append(r.atomicWrites, call.Pos())
				} else {
					r.atomicReads = append(r.atomicReads, call.Pos())
				}
				if write && lostUpdateOldStyle(pkg, call, v, target) {
					diags = append(diags, Diagnostic{
						Analyzer: "atomic-misuse",
						Pos:      pkg.Fset.Position(call.Pos()),
						Message: fmt.Sprintf("%s of %s in %s re-stores its own atomic load; the read-modify-write is not atomic (use Add or a CompareAndSwap loop)",
							calleeOf(pkg, call).Name(), r.display, fd.Name.Name),
					})
				}
				return true
			}
			if sel, field := typedAtomicStore(pkg, call); sel != nil && typedStoreLoadsSelf(pkg, call, sel, field) {
				diags = append(diags, Diagnostic{
					Analyzer: "atomic-misuse",
					Pos:      pkg.Fset.Position(call.Pos()),
					Message: fmt.Sprintf("%s.Store re-stores its own Load in %s; the read-modify-write is not atomic (use Add or a CompareAndSwap loop)",
						types.ExprString(sel), fd.Name.Name),
				})
			}
			return true
		})
	})

	// Pass B: plain accesses to the locations pass A classified.
	forEachFunc(m.pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		fresh := freshLocals(pkg, fd.Body)
		writes := writeTargets(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var v *types.Var
			var base ast.Expr
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if consumed[x] {
					return true
				}
				sel, ok := pkg.Info.Selections[x]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				v, _ = sel.Obj().(*types.Var)
				base = x.X
			case *ast.Ident:
				if consumed[x] {
					return true
				}
				// Only package-level vars: a field's Sel ident and
				// composite-literal keys resolve to the field object too,
				// and those are counted (or exempted) at their selector.
				if v, _ = pkg.Info.Uses[x].(*types.Var); v != nil &&
					(v.Pkg() == nil || v.Parent() != v.Pkg().Scope()) {
					return true
				}
			default:
				return true
			}
			r := rec[v]
			if r == nil {
				return true
			}
			if base != nil {
				if root := rootSelIdent(base); root != nil {
					obj := pkg.Info.Uses[root]
					if obj != nil && (fresh[obj] || byValueLocal(pkg, obj)) {
						return true
					}
				}
			}
			r.plain = append(r.plain, atAccess{pkg: pkg, pos: n.Pos(), fn: fd.Name.Name, write: writes[n]})
			return true
		})
	})

	// Judge: any plain write against any atomic access; plain reads
	// only against atomic writes (an atomically-read, lock-written
	// field is already flagged through its writes).
	line := func(pkg *Package, pos token.Pos) int { return pkg.Fset.Position(pos).Line }
	for _, r := range rec {
		for _, p := range r.plain {
			if p.write {
				at := append(append([]token.Pos(nil), r.atomicWrites...), r.atomicReads...)
				diags = append(diags, Diagnostic{
					Analyzer: "atomic-misuse",
					Pos:      p.pkg.Fset.Position(p.pos),
					Message: fmt.Sprintf("%s is written without sync/atomic in %s but accessed atomically elsewhere (line %d)",
						r.display, p.fn, line(p.pkg, at[0])),
				})
			} else if len(r.atomicWrites) > 0 {
				diags = append(diags, Diagnostic{
					Analyzer: "atomic-misuse",
					Pos:      p.pkg.Fset.Position(p.pos),
					Message: fmt.Sprintf("%s is read without sync/atomic in %s but written atomically elsewhere (line %d)",
						r.display, p.fn, line(p.pkg, r.atomicWrites[0])),
				})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// atRecordFor interns the record for a tracked location, naming it
// from its first atomic access.
func atRecordFor(rec map[*types.Var]*atRecord, pkg *Package, v *types.Var, target ast.Node) *atRecord {
	r := rec[v]
	if r == nil {
		display := v.Name()
		if sel, ok := target.(*ast.SelectorExpr); ok {
			if named := namedType(derefType(typeOf(pkg, sel.X))); named != nil {
				display = named.Obj().Name() + "." + v.Name()
			}
		}
		r = &atRecord{display: display}
		rec[v] = r
	}
	return r
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// oldStyleAtomic classifies a sync/atomic package-function call:
// atomic.LoadUint64(&x.f) is a read, Store/Add/Swap/CompareAndSwap
// variants are writes. It returns the location's variable (a struct
// field or a package-level var) and the &-target node, or nils.
func oldStyleAtomic(pkg *Package, call *ast.CallExpr) (v *types.Var, write bool, target ast.Node) {
	fn, path := stdCallee(pkg, call)
	if fn == nil || path != "sync/atomic" || len(call.Args) == 0 {
		return nil, false, nil
	}
	name := fn.Name()
	switch {
	case strings.HasPrefix(name, "Load"):
		write = false
	case strings.HasPrefix(name, "Store"), strings.HasPrefix(name, "Add"),
		strings.HasPrefix(name, "Swap"), strings.HasPrefix(name, "CompareAndSwap"):
		write = true
	default:
		return nil, false, nil
	}
	v, target = addrTarget(pkg, call.Args[0])
	return v, write, target
}

// addrTarget resolves &x.f (or &pkgVar) to the variable it names.
func addrTarget(pkg *Package, e ast.Expr) (*types.Var, ast.Node) {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, nil
	}
	switch x := ast.Unparen(u.X).(type) {
	case *ast.SelectorExpr:
		sel, ok := pkg.Info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return nil, nil
		}
		v, _ := sel.Obj().(*types.Var)
		if v == nil || v.Pkg() == nil {
			return nil, nil
		}
		return v, x
	case *ast.Ident:
		v, _ := pkg.Info.Uses[x].(*types.Var)
		if v == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return nil, nil // only package-level vars are shared locations
		}
		return v, x
	}
	return nil, nil
}

// lostUpdateOldStyle reports atomic.StoreT(&x.f, ...atomic.LoadT(&x.f)...).
func lostUpdateOldStyle(pkg *Package, call *ast.CallExpr, v *types.Var, target ast.Node) bool {
	fn, _ := stdCallee(pkg, call)
	if fn == nil || !strings.HasPrefix(fn.Name(), "Store") || len(call.Args) < 2 {
		return false
	}
	want := types.ExprString(target.(ast.Expr))
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		inner, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ifn, ipath := stdCallee(pkg, inner)
		if ifn == nil || ipath != "sync/atomic" || !strings.HasPrefix(ifn.Name(), "Load") || len(inner.Args) == 0 {
			return true
		}
		iv, it := addrTarget(pkg, inner.Args[0])
		if iv == v && it != nil && types.ExprString(it.(ast.Expr)) == want {
			found = true
		}
		return true
	})
	return found
}

// typedAtomicStore recognizes x.f.Store(v) where f is a sync/atomic
// typed value (atomic.Uint64 and friends), returning the x.f selector
// and field.
func typedAtomicStore(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, *types.Var) {
	method, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || method.Sel.Name != "Store" || len(call.Args) != 1 {
		return nil, nil
	}
	return typedAtomicField(pkg, method.X)
}

// typedAtomicField resolves an expression to (selector, field) when it
// selects a struct field whose type is a sync/atomic value type.
func typedAtomicField(pkg *Package, e ast.Expr) (*ast.SelectorExpr, *types.Var) {
	fieldSel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	sel, ok := pkg.Info.Selections[fieldSel]
	if !ok || sel.Kind() != types.FieldVal {
		return nil, nil
	}
	v, _ := sel.Obj().(*types.Var)
	if v == nil {
		return nil, nil
	}
	named := namedType(v.Type())
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" {
		return nil, nil
	}
	return fieldSel, v
}

// typedStoreLoadsSelf reports whether the Store's argument contains a
// Load of the same field through the same base (g.cur.Store(g.cur.Load()
// + n) — the lost-update shape; dst.cur.Store(src.cur.Load()) is not).
func typedStoreLoadsSelf(pkg *Package, call *ast.CallExpr, sel *ast.SelectorExpr, field *types.Var) bool {
	want := types.ExprString(sel)
	found := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		inner, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr)
		if !ok || method.Sel.Name != "Load" {
			return true
		}
		isel, iv := typedAtomicField(pkg, method.X)
		if iv == field && isel != nil && types.ExprString(isel) == want {
			found = true
		}
		return true
	})
	return found
}

// writeTargets collects the expressions a body writes to: direct
// assignment targets (including compound assignment) and inc/dec
// operands.
func writeTargets(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				out[ast.Unparen(l)] = true
			}
		case *ast.IncDecStmt:
			out[ast.Unparen(s.X)] = true
		}
		return true
	})
	return out
}

// freshLocals collects local variables bound to memory this function
// allocated — composite literals, &composite, new(T) — whose contents
// are unpublished, so initializing writes are not shared-state access.
func freshLocals(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pkg.Info.Defs[id]
			if obj == nil || !freshAllocExpr(pkg, as.Rhs[i]) {
				continue
			}
			out[obj] = true
		}
		return true
	})
	return out
}

// freshAllocExpr reports whether e denotes newly-allocated memory.
func freshAllocExpr(pkg *Package, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
				return b.Name() == "new"
			}
		}
	}
	return false
}

// byValueLocal reports whether obj is a non-pointer local variable —
// accesses go to this function's copy, not shared state.
func byValueLocal(pkg *Package, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return false
	}
	switch v.Type().Underlying().(type) {
	case *types.Pointer, *types.Interface:
		return false
	}
	return true
}
