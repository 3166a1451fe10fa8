package vet

import (
	"go/ast"
	"go/types"

	"repro/internal/vet/cfg"
)

// The escape approximation. Each module function gets a summary of
// what it does with its inputs — "argument i escapes" (stored heapward,
// sent, captured, handed to an escaping callee) and "argument i can be
// returned" (aliasing passes to the caller, where tracking continues).
// Summaries are computed bottom-up over the call graph's SCC
// condensation with the same optimistic fixpoint as the deep-summary
// engine: a not-yet-computed module callee is assumed non-escaping and
// the lattice only gains bits, so the iteration converges.

// escSummary is one function's escape behavior.
type escSummary struct {
	paramEsc []bool // argument i escapes inside the function
	recvEsc  bool
	paramRet []bool // argument i can alias a return value
	recvRet  bool
	variadic bool
}

func newEscSummary(sig *types.Signature) *escSummary {
	n := sig.Params().Len()
	return &escSummary{
		paramEsc: make([]bool, n),
		paramRet: make([]bool, n),
		variadic: sig.Variadic(),
	}
}

func (s *escSummary) clone() *escSummary {
	c := *s
	c.paramEsc = append([]bool(nil), s.paramEsc...)
	c.paramRet = append([]bool(nil), s.paramRet...)
	return &c
}

func (s *escSummary) equal(o *escSummary) bool {
	if o == nil || s.recvEsc != o.recvEsc || s.recvRet != o.recvRet {
		return false
	}
	for i := range s.paramEsc {
		if s.paramEsc[i] != o.paramEsc[i] || s.paramRet[i] != o.paramRet[i] {
			return false
		}
	}
	return true
}

// argIndex folds extra variadic arguments onto the last parameter.
func (s *escSummary) argIndex(i int) int {
	if i < len(s.paramEsc) {
		return i
	}
	if s.variadic && len(s.paramEsc) > 0 {
		return len(s.paramEsc) - 1
	}
	return -1
}

func (s *escSummary) escArg(i int) bool {
	j := s.argIndex(i)
	return j >= 0 && s.paramEsc[j]
}

func (s *escSummary) retArg(i int) bool {
	j := s.argIndex(i)
	return j >= 0 && s.paramRet[j]
}

// computeEscapeSummaries runs the bottom-up fixpoint over g.
func computeEscapeSummaries(g *callGraph) map[*types.Func]*escSummary {
	sums := make(map[*types.Func]*escSummary)
	g.bottomUp(func(site *declSite, fn *types.Func) bool {
		return summarizeEscape(g, site, fn, sums)
	})
	return sums
}

// summarizeEscape recomputes fn's escape summary and reports change.
func summarizeEscape(g *callGraph, site *declSite, fn *types.Func, sums map[*types.Func]*escSummary) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	old := sums[fn]
	var cur *escSummary
	if old != nil {
		cur = old.clone()
	} else {
		cur = newEscSummary(sig)
	}

	pkg := site.pkg

	hooks := &escapeHooks{
		pkg:   pkg,
		decls: g.decls,
		sums:  sums,
		onReturn: func(src *cfg.Source) {
			if i, isRecv, ok := markerOf(src.Desc); ok {
				if isRecv {
					cur.recvRet = true
				} else if i < len(cur.paramRet) {
					cur.paramRet[i] = true
				}
			}
		},
		onEscape: func(src *cfg.Source, why string) {
			if i, isRecv, ok := markerOf(src.Desc); ok {
				if isRecv {
					cur.recvEsc = true
				} else if i < len(cur.paramEsc) {
					cur.paramEsc[i] = true
				}
			}
		},
	}
	spec := &cfg.Spec{
		Info:      pkg.Info,
		Seed:      markerSeed(sig),
		CallTaint: escCallTaint(pkg, sums),
		Sink:      hooks.sink,
	}
	cfg.Run(site.decl.Body, spec)

	if cur.equal(old) {
		return false
	}
	sums[fn] = cur
	return true
}

// escCallTaint is the aliasing hook shared by the summary fixpoint and
// the site classification pass: a module callee whose summary says it
// can return an argument (or its receiver) passes that value's taint
// to the call result, so tracking continues in the caller.
func escCallTaint(pkg *Package, sums map[*types.Func]*escSummary) func(*ast.CallExpr, *cfg.Source, []*cfg.Source) *cfg.Source {
	return func(call *ast.CallExpr, recv *cfg.Source, args []*cfg.Source) *cfg.Source {
		callee := calleeOf(pkg, call)
		if callee == nil {
			return nil
		}
		sum := sums[callee]
		if sum == nil {
			return nil
		}
		if sum.recvRet && recv != nil {
			return recv
		}
		for i, a := range args {
			if a != nil && sum.retArg(i) {
				return a
			}
		}
		return nil
	}
}

// escapeHooks turns taint observations into escape events. The same
// sink serves the summary fixpoint (markers escaping) and the site
// classification pass (alloc sites escaping).
type escapeHooks struct {
	pkg      *Package
	decls    map[*types.Func]*declSite
	sums     map[*types.Func]*escSummary
	onReturn func(src *cfg.Source)
	onEscape func(src *cfg.Source, why string)
}

// gate drops taint on values whose type carries no pointers: a byte
// read out of a tracked buffer, a length — copying those escapes
// nothing.
func (h *escapeHooks) gate(taintOf func(ast.Expr) *cfg.Source) func(ast.Expr) *cfg.Source {
	return func(e ast.Expr) *cfg.Source {
		src := taintOf(e)
		if src == nil {
			return nil
		}
		if tv, ok := h.pkg.Info.Types[e]; ok && tv.Type != nil &&
			!typeHasPointers(tv.Type, make(map[*types.Named]bool)) {
			return nil
		}
		return src
	}
}

// sink inspects one CFG node under the taint state in force before it.
func (h *escapeHooks) sink(n ast.Node, taintOf func(ast.Expr) *cfg.Source) {
	gate := h.gate(taintOf)
	if ret, ok := n.(*ast.ReturnStmt); ok {
		for _, r := range ret.Results {
			for _, src := range allTaints(r, gate) {
				h.onReturn(src)
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			h.captures(x, gate)
			return false
		case *ast.AssignStmt:
			h.assign(x, gate)
		case *ast.SendStmt:
			if src := gate(x.Value); src != nil {
				h.onEscape(src, "sent on a channel")
			}
		case *ast.GoStmt:
			// Arguments and the receiver of a spawned call outlive the
			// frame regardless of what the callee does with them.
			for _, a := range x.Call.Args {
				if src := gate(a); src != nil {
					h.onEscape(src, "passed to a goroutine")
				}
			}
			if sel, ok := ast.Unparen(x.Call.Fun).(*ast.SelectorExpr); ok {
				if src := gate(sel.X); src != nil {
					h.onEscape(src, "passed to a goroutine")
				}
			}
		case *ast.CallExpr:
			h.call(x, gate)
		}
		return true
	})
}

// assign handles stores: a tainted value written through a pointer,
// into a field, container element, or package variable escapes the
// frame. Appends are special-cased for copy semantics: appending
// pointer-free elements copies bytes, not references.
func (h *escapeHooks) assign(x *ast.AssignStmt, gate func(ast.Expr) *cfg.Source) {
	escapeRHS := func(r ast.Expr) {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && builtinName(h.pkg, call) == "append" {
			h.appendEscapes(call, gate)
			return
		}
		for _, src := range allTaints(r, gate) {
			h.onEscape(src, "stored outside the frame")
		}
	}
	if len(x.Lhs) == len(x.Rhs) {
		for i, l := range x.Lhs {
			if h.lhsEscapes(l) {
				escapeRHS(x.Rhs[i])
			}
		}
		return
	}
	// Tuple assignment: every escaping LHS escapes the call result.
	if len(x.Rhs) != 1 {
		return
	}
	src := gate(x.Rhs[0])
	if src == nil {
		return
	}
	for _, l := range x.Lhs {
		if h.lhsEscapes(l) {
			h.onEscape(src, "stored outside the frame")
		}
	}
}

// appendEscapes models `heapward = append(base, elems...)`: the base
// slice header escapes, and so do pointer-bearing elements; the bytes
// of a pointer-free `src...` are copied, so their backing does not.
func (h *escapeHooks) appendEscapes(call *ast.CallExpr, gate func(ast.Expr) *cfg.Source) {
	for i, a := range call.Args {
		if i > 0 && call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			tv, ok := h.pkg.Info.Types[a]
			if ok && tv.Type != nil {
				if sl, isSlice := tv.Type.Underlying().(*types.Slice); isSlice &&
					!typeHasPointers(sl.Elem(), make(map[*types.Named]bool)) {
					continue
				}
			}
		}
		if src := gate(a); src != nil {
			h.onEscape(src, "stored outside the frame")
		}
	}
}

// lhsEscapes reports whether writing this target publishes the value
// beyond the current frame's locals.
func (h *escapeHooks) lhsEscapes(l ast.Expr) bool {
	switch x := ast.Unparen(l).(type) {
	case *ast.Ident:
		obj := h.pkg.Info.Defs[x]
		if obj == nil {
			obj = h.pkg.Info.Uses[x]
		}
		if obj == nil || obj.Pkg() == nil {
			return false
		}
		return obj.Parent() == obj.Pkg().Scope() // package-level variable
	case *ast.SelectorExpr:
		return true // field store, or qualified package variable
	case *ast.StarExpr:
		return true // store through a pointer
	case *ast.IndexExpr:
		return true // store into a slice or map
	}
	return false
}

// captures fires an escape for every tainted variable a function
// literal closes over: once captured, the closure (and whoever holds
// it) keeps the value alive.
func (h *escapeHooks) captures(lit *ast.FuncLit, gate func(ast.Expr) *cfg.Source) {
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := h.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package variable, not a capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		if src := gate(id); src != nil {
			h.onEscape(src, "captured by a closure")
		}
		return true
	})
}

// call applies callee escape knowledge to tainted arguments: module
// callees by summary, a short list of provably non-retaining standard
// functions by name, everything else (externals, dynamic calls,
// interface methods) conservatively escapes what it is handed.
func (h *escapeHooks) call(call *ast.CallExpr, gate func(ast.Expr) *cfg.Source) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := h.pkg.Info.Types[fun]; ok && tv.IsType() {
		return // conversion: aliasing handled by the engine
	}
	if builtinName(h.pkg, call) != "" {
		return // builtins retain nothing
	}
	var recvExpr ast.Expr
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, isSel := h.pkg.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			recvExpr = sel.X
		}
	}
	callee := calleeOf(h.pkg, call)
	if callee != nil {
		if _, inModule := h.decls[callee]; inModule {
			sum := h.sums[callee]
			if sum == nil {
				return // converging fixpoint: optimistic until summarized
			}
			if recvExpr != nil && sum.recvEsc {
				if src := gate(recvExpr); src != nil {
					h.onEscape(src, "escapes via "+callee.Name())
				}
			}
			for i, a := range call.Args {
				if !sum.escArg(i) {
					continue
				}
				if src := gate(a); src != nil {
					h.onEscape(src, "escapes via "+callee.Name())
				}
			}
			return
		}
		if escapeSafeExternal(callee) {
			return
		}
	}
	if recvExpr != nil {
		if src := gate(recvExpr); src != nil {
			h.onEscape(src, "passed to an external call")
		}
	}
	for _, a := range call.Args {
		if src := gate(a); src != nil {
			h.onEscape(src, "passed to an external call")
		}
	}
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	if !ok {
		return ""
	}
	return b.Name()
}

// escapeSafeExternal lists standard-library callees that provably do
// not retain their arguments, so handing them a tracked buffer is not
// an escape. Everything not listed escapes conservatively.
func escapeSafeExternal(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "encoding/binary", "crypto/subtle", "unicode/utf8", "math", "math/bits", "strconv":
		return true
	case "bytes":
		switch fn.Name() {
		case "Equal", "Compare", "HasPrefix", "HasSuffix", "Contains",
			"Index", "IndexByte", "LastIndex", "Count":
			return true
		}
	case "crypto/hmac":
		return fn.Name() == "Equal"
	}
	return false
}

// typeHasPointers reports whether values of t carry references that
// could keep an allocation alive (slices, maps, strings, pointers,
// interfaces, channels, funcs — directly or in fields/elements).
func typeHasPointers(t types.Type, seen map[*types.Named]bool) bool {
	switch u := t.(type) {
	case *types.Basic:
		return u.Kind() == types.String || u.Kind() == types.UnsafePointer ||
			u.Kind() == types.UntypedString || u.Kind() == types.UntypedNil
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Array:
		return typeHasPointers(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeHasPointers(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Named:
		if seen[u] {
			return false
		}
		seen[u] = true
		return typeHasPointers(u.Underlying(), seen)
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if typeHasPointers(u.At(i).Type(), seen) {
				return true
			}
		}
		return false
	}
	return true // unknown type kinds: be conservative
}

// pointerShaped reports whether t fits an interface's data word
// without boxing (pointer, map, chan, func, unsafe pointer).
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
