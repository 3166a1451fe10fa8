package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/vet/cfg"
)

// Site discovery and classification. A structural prescan registers
// every candidate allocation in a hot function (with its lexical
// context: loop depth, bail-out blocks, idiom exemptions); a taint run
// then tracks the escape-dependent ones through the function — and
// through callee escape summaries — marking heap the sites that leave
// the frame.

// siteScan is the per-function structural prescan state.
type siteScan struct {
	an      *allocAnalysis
	pkg     *Package
	fn      *types.Func
	parents map[ast.Node]ast.Node
	byNode  map[ast.Node]*allocSite

	appendCalls []*ast.CallExpr
	makePairs   []makePair
	copyObjs    []types.Object
}

type makePair struct {
	obj  types.Object
	call *ast.CallExpr
}

// buildParents records each node's parent for lexical-context queries.
func buildParents(decl *ast.FuncDecl) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// loopDepth counts the for/range statements whose body encloses n,
// stopping at function-literal boundaries: a closure body is a fresh
// frame, so its defers run (and pop) per invocation rather than
// accumulating in the loop's frame, and its per-iteration cost is
// already charged to the closure site itself.
func (sc *siteScan) loopDepth(n ast.Node) int {
	depth := 0
	for p := sc.parents[n]; p != nil; p = sc.parents[p] {
		var body *ast.BlockStmt
		switch x := p.(type) {
		case *ast.FuncLit:
			return depth
		case *ast.ForStmt:
			body = x.Body
		case *ast.RangeStmt:
			body = x.Body
		default:
			continue
		}
		if body != nil && body.Pos() <= n.Pos() && n.Pos() < body.End() {
			depth++
		}
	}
	return depth
}

// bails reports whether n sits on a path that immediately leaves the
// function: inside a return statement, or in a block whose last
// statement is a return. Such error-handling blocks are not steady
// state and are exempt from the per-iteration loop rules.
func (sc *siteScan) bails(n ast.Node) bool {
	for p := sc.parents[n]; p != nil; p = sc.parents[p] {
		switch x := p.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BlockStmt:
			return endsInReturn(x.List)
		case *ast.CaseClause:
			return endsInReturn(x.Body)
		case *ast.CommClause:
			return endsInReturn(x.Body)
		}
	}
	return false
}

func endsInReturn(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	_, ok := list[len(list)-1].(*ast.ReturnStmt)
	return ok
}

// add registers one site; tracked sites additionally become taint
// sources for the classification run.
func (sc *siteScan) add(node ast.Node, kind, detail string, always bool) *allocSite {
	if _, dup := sc.byNode[node]; dup {
		return nil
	}
	s := &allocSite{
		id:     len(sc.an.sites),
		node:   node,
		pkg:    sc.pkg,
		fn:     sc.fn,
		kind:   kind,
		detail: detail,
		pos:    node.Pos(),
		always: always,
		heap:   always,
		loop:   sc.loopDepth(node) > 0,
		bail:   sc.bails(node),
	}
	sc.an.sites = append(sc.an.sites, s)
	sc.byNode[node] = s
	return s
}

func (sc *siteScan) typeString(t types.Type) string {
	return types.TypeString(t, types.RelativeTo(sc.pkg.Types))
}

// scan walks the whole declaration (function literals included) and
// registers candidate sites.
func (sc *siteScan) scan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			sc.compositeSite(x)
		case *ast.CallExpr:
			sc.callSites(x)
		case *ast.UnaryExpr:
			sc.addressSite(x)
		case *ast.SliceExpr:
			sc.arraySliceSite(x)
		case *ast.FuncLit:
			sc.closureSite(x)
		case *ast.GoStmt:
			sc.goSite(x)
		case *ast.DeferStmt:
			if sc.loopDepth(x) > 0 {
				sc.add(x, kindDeferLoop, "defer in loop", true)
			}
		case *ast.AssignStmt:
			sc.recordMakeAssigns(x.Lhs, x.Rhs)
		case *ast.ValueSpec:
			sc.recordMakeAssigns(identExprs(x.Names), x.Values)
		}
		return true
	})
	sc.resolveAppends()
	sc.resolveGrowIdiom()
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// compositeSite: slice and map literals allocate backing storage;
// struct and array literals are pure values and allocate only when
// their address is taken (the &T{...} form, registered on the &).
func (sc *siteScan) compositeSite(x *ast.CompositeLit) {
	tv, ok := sc.pkg.Info.Types[x]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		sc.add(x, kindComposite, sc.typeString(tv.Type)+" literal", false)
	case *types.Map:
		sc.add(x, kindComposite, sc.typeString(tv.Type)+" literal", true)
	default:
		if u, isAddr := sc.parents[x].(*ast.UnaryExpr); isAddr && u.Op == token.AND {
			sc.add(u, kindComposite, "&"+sc.typeString(tv.Type)+"{}", false)
		}
	}
}

// callSites classifies one call: builtin make/new, allocating
// conversions, fmt/errors formatting, interface-boxing arguments and
// variadic packing.
func (sc *siteScan) callSites(x *ast.CallExpr) {
	switch builtinName(sc.pkg, x) {
	case "make":
		sc.makeSite(x)
		return
	case "new":
		tv := sc.pkg.Info.Types[x]
		if tv.Type != nil {
			sc.add(x, kindNew, "new("+sc.typeString(deref(tv.Type))+")", false)
		}
		return
	case "append":
		sc.appendCalls = append(sc.appendCalls, x)
		return
	case "copy":
		if len(x.Args) > 0 {
			if id, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok {
				if obj := sc.pkg.Info.Uses[id]; obj != nil {
					sc.copyObjs = append(sc.copyObjs, obj)
				}
			}
		}
		return
	case "":
		// not a builtin: fall through
	default:
		return
	}
	fun := ast.Unparen(x.Fun)
	if tv, ok := sc.pkg.Info.Types[fun]; ok && tv.IsType() {
		sc.conversionSite(x, tv.Type)
		return
	}
	if sc.formatSite(x) {
		sc.boxedArgs(x) // %v operands box before fmt sees them
		return
	}
	sc.boxedArgs(x)
	sc.variadicPack(x)
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// makeSite: maps, channels and dynamically-sized slices always hit the
// heap; a constant-size slice make is stack-eligible until it escapes.
func (sc *siteScan) makeSite(x *ast.CallExpr) {
	tv := sc.pkg.Info.Types[x]
	if tv.Type == nil {
		return
	}
	detail := "make(" + sc.typeString(tv.Type) + ")"
	switch tv.Type.Underlying().(type) {
	case *types.Chan:
		// A channel is a synchronization primitive, not a poolable
		// buffer: census it, but never suggest sync.Pool for it.
		if s := sc.add(x, kindMake, detail, true); s != nil {
			s.noPool = true
		}
	case *types.Map:
		sc.add(x, kindMake, detail, true)
	case *types.Slice:
		always := false
		for _, arg := range x.Args[1:] {
			if av, ok := sc.pkg.Info.Types[arg]; !ok || av.Value == nil {
				always = true // runtime-sized: the compiler cannot stack it
			}
		}
		sc.add(x, kindMake, detail, always)
	}
}

// conversionSite registers string<->[]byte/[]rune conversions, which
// copy their operand into fresh storage. Conversions the compiler
// performs allocation-free — map-index keys, comparison operands,
// switch tags — are exempt.
func (sc *siteScan) conversionSite(x *ast.CallExpr, to types.Type) {
	if len(x.Args) != 1 {
		return
	}
	fromTV, ok := sc.pkg.Info.Types[x.Args[0]]
	if !ok || fromTV.Type == nil || !allocatingConversion(fromTV.Type, to) {
		return
	}
	switch p := sc.parents[x].(type) {
	case *ast.IndexExpr:
		if p.Index == x {
			if btv, found := sc.pkg.Info.Types[p.X]; found && btv.Type != nil {
				if _, isMap := btv.Type.Underlying().(*types.Map); isMap {
					return // m[string(b)] lookup: no copy
				}
			}
		}
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			return // string(b) == s comparison: no copy
		}
	case *ast.SwitchStmt:
		if p.Tag == x {
			return // switch string(b): compared, not materialized
		}
	}
	sc.add(x, kindStringConv, sc.typeString(to)+" conversion", false)
}

// allocatingConversion: string <-> byte/rune slice copies storage.
func allocatingConversion(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteish(from)) || (isByteish(to) && isStr(from))
}

// formatSite flags fmt.* and errors.New/Join calls, which allocate
// their result (and usually more) unconditionally.
func (sc *siteScan) formatSite(x *ast.CallExpr) bool {
	callee := calleeOf(sc.pkg, x)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() {
	case "fmt":
		sc.add(x, kindFormat, "fmt."+callee.Name()+" call", true)
		return true
	case "errors":
		if callee.Name() == "New" || callee.Name() == "Join" {
			sc.add(x, kindFormat, "errors."+callee.Name()+" call", true)
			return true
		}
	}
	return false
}

// boxedArgs registers an iface-box site for every argument whose
// concrete, non-pointer-shaped value is converted to an interface
// parameter. Constants are exempt (small values are served from the
// runtime's static box table).
func (sc *siteScan) boxedArgs(x *ast.CallExpr) {
	sig := callSignature(sc.pkg, x)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range x.Args {
		var paramT types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if x.Ellipsis.IsValid() {
				continue // s... passes the slice itself
			}
			if params.Len() == 0 {
				continue
			}
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				paramT = sl.Elem()
			}
		case i < params.Len():
			paramT = params.At(i).Type()
		}
		if paramT == nil || !types.IsInterface(paramT) {
			continue
		}
		atv, ok := sc.pkg.Info.Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil {
			continue
		}
		if types.IsInterface(atv.Type) || pointerShaped(atv.Type) {
			continue
		}
		if b, isBasic := atv.Type.Underlying().(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		sc.add(arg, kindIfaceBox, "interface boxing of "+sc.typeString(atv.Type), true)
	}
}

// variadicPack registers the hidden []T a non-ellipsis call to a
// variadic function builds. A module callee whose summary keeps the
// pack inside its frame lets the compiler stack it.
func (sc *siteScan) variadicPack(x *ast.CallExpr) {
	sig := callSignature(sc.pkg, x)
	if sig == nil || !sig.Variadic() || x.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	if params.Len() == 0 || len(x.Args) < params.Len() {
		return // zero variadic arguments: a nil slice, no allocation
	}
	if callee := calleeOf(sc.pkg, x); callee != nil {
		if sum := sc.an.esc[callee]; sum != nil {
			last := params.Len() - 1
			if !sum.escArg(last) && !sum.retArg(last) {
				return
			}
		}
	}
	sc.add(x, kindVariadic, "variadic argument pack", true)
}

func callSignature(pkg *Package, x *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[ast.Unparen(x.Fun)]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// addressSite: &local moves the variable to the heap if the pointer
// escapes. Addresses of fields or globals point into storage that
// already exists.
func (sc *siteScan) addressSite(x *ast.UnaryExpr) {
	if x.Op != token.AND {
		return
	}
	id, ok := ast.Unparen(x.X).(*ast.Ident)
	if !ok {
		return
	}
	if v := sc.localVar(id); v != nil {
		sc.add(x, kindMovedLocal, "&"+id.Name, false)
	}
}

// arraySliceSite: slicing a local array yields a pointer into the
// frame; if the slice escapes, the array moves with it.
func (sc *siteScan) arraySliceSite(x *ast.SliceExpr) {
	id, ok := ast.Unparen(x.X).(*ast.Ident)
	if !ok {
		return
	}
	v := sc.localVar(id)
	if v == nil {
		return
	}
	if _, isArr := v.Type().Underlying().(*types.Array); isArr {
		sc.add(x, kindMovedLocal, id.Name+"[:]", false)
	}
}

func (sc *siteScan) localVar(id *ast.Ident) *types.Var {
	obj := sc.pkg.Info.Uses[id]
	if obj == nil {
		obj = sc.pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.IsField() || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

// closureSite: a capturing function literal needs a closure object;
// whether it allocates depends on the closure escaping. Literals
// spawned by go (handled at the GoStmt) or invoked by a same-frame
// defer are excluded here.
func (sc *siteScan) closureSite(x *ast.FuncLit) {
	if call, ok := sc.parents[x].(*ast.CallExpr); ok && call.Fun == x {
		switch sc.parents[call].(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			return
		}
	}
	if sc.capturesOutside(x) {
		sc.add(x, kindClosure, "func literal", false)
	}
}

func (sc *siteScan) capturesOutside(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if found {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := sc.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		found = true
		return false
	})
	return found
}

// goSite: spawning a goroutine allocates when the spawned call needs a
// closure — a capturing literal, any bound arguments, or a method
// value wrapper. A bare `go f()` does not.
func (sc *siteScan) goSite(x *ast.GoStmt) {
	needs := len(x.Call.Args) > 0
	switch fun := ast.Unparen(x.Call.Fun).(type) {
	case *ast.FuncLit:
		needs = needs || sc.capturesOutside(fun)
	case *ast.SelectorExpr:
		if s, ok := sc.pkg.Info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			needs = true // method value wrapper captures the receiver
		}
	}
	if needs {
		sc.add(x, kindClosure, "go statement", true)
	}
}

// resolveAppends registers growth sites for appends that cannot lean
// on preallocated or reused storage: plain accumulator variables.
// Appends into struct fields, reslices (buf[:0]) and make-backed
// locals ride storage whose allocation is already accounted for.
func (sc *siteScan) resolveAppends() {
	madeObjs := make(map[types.Object]bool, len(sc.makePairs))
	for _, mp := range sc.makePairs {
		madeObjs[mp.obj] = true
	}
	for _, x := range sc.appendCalls {
		if len(x.Args) == 0 {
			continue
		}
		base, ok := ast.Unparen(x.Args[0]).(*ast.Ident)
		if !ok {
			continue // field or reslice base: reuse idiom
		}
		obj := sc.pkg.Info.Uses[base]
		if obj == nil {
			obj = sc.pkg.Info.Defs[base]
		}
		if obj == nil || madeObjs[obj] {
			continue
		}
		sc.add(x, kindAppend, "append growth", false)
	}
}

// recordMakeAssigns pairs `x := make(...)` so appends to x and the
// make+copy grow idiom can be recognized.
func (sc *siteScan) recordMakeAssigns(lhs []ast.Expr, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, l := range lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr)
		if !ok || builtinName(sc.pkg, call) != "make" {
			continue
		}
		obj := sc.pkg.Info.Defs[id]
		if obj == nil {
			obj = sc.pkg.Info.Uses[id]
		}
		if obj != nil {
			sc.makePairs = append(sc.makePairs, makePair{obj: obj, call: call})
		}
	}
}

// resolveGrowIdiom exempts `grown := make(...); copy(grown, old)` from
// the pool-bypass rule: that is the sanctioned way to grow a pooled
// buffer, and the allocation amortizes as the pool converges on the
// working-set size.
func (sc *siteScan) resolveGrowIdiom() {
	copied := make(map[types.Object]bool, len(sc.copyObjs))
	for _, obj := range sc.copyObjs {
		copied[obj] = true
	}
	for _, mp := range sc.makePairs {
		if !copied[mp.obj] {
			continue
		}
		if s := sc.byNode[mp.call]; s != nil {
			s.growExempt = true
		}
	}
}

// classifyFn runs the prescan and the escape-classification taint pass
// over one hot function.
func (an *allocAnalysis) classifyFn(pkg *Package, decl *ast.FuncDecl, fn *types.Func) {
	sc := &siteScan{
		an:      an,
		pkg:     pkg,
		fn:      fn,
		parents: buildParents(decl),
		byNode:  make(map[ast.Node]*allocSite),
	}
	sc.scan(decl.Body)

	tracked := false
	for _, s := range sc.byNode {
		if !s.always {
			tracked = true
			break
		}
	}
	if !tracked {
		return
	}

	markHeap := func(src *cfg.Source, why string) {
		rest, found := strings.CutPrefix(src.Desc, allocSitePrefix)
		if !found {
			return
		}
		id, err := strconv.Atoi(rest)
		if err != nil || id < 0 || id >= len(an.sites) {
			return
		}
		s := an.sites[id]
		if !s.heap {
			s.heap = true
			s.escaped = why
		}
	}
	hooks := &escapeHooks{
		pkg:      pkg,
		decls:    an.g.decls,
		sums:     an.esc,
		onReturn: func(src *cfg.Source) { markHeap(src, "returned") },
		onEscape: markHeap,
	}
	spec := &cfg.Spec{
		Info: pkg.Info,
		SourceOf: func(e ast.Expr) (string, bool) {
			// Only escape-dependent sites become taint sources; the
			// always flag is fixed at registration so sourcing stays
			// stable across the solve and replay passes.
			s, ok := sc.byNode[e]
			if !ok || s.always {
				return "", false
			}
			return allocSitePrefix + strconv.Itoa(s.id), true
		},
		CallTaint: escCallTaint(pkg, an.esc),
		Sink:      hooks.sink,
	}
	cfg.Run(decl.Body, spec)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			cfg.Run(lit.Body, spec)
		}
		return true
	})
}

// report turns classified sites into diagnostics and attributes roots.
func (an *allocAnalysis) report(pools map[*Package]bool) {
	for _, s := range an.sites {
		s.roots = an.hot[s.fn]
		if !s.heap || len(s.roots) == 0 {
			continue
		}
		root := s.roots[0]
		fnName := s.pkg.Types.Name() + "." + shortFuncName(s.fn)
		switch {
		case s.kind == kindDeferLoop:
			an.diags = append(an.diags, Diagnostic{
				Analyzer: AllocHotPath{}.Name(),
				Pos:      s.pkg.Fset.Position(s.pos),
				Message: fmt.Sprintf("hot path (via %s): defer inside a loop allocates a defer record per iteration in %s",
					root, fnName),
			})
		case s.kind == kindFormat && s.loop && !s.bail:
			an.diags = append(an.diags, Diagnostic{
				Analyzer: AllocHotPath{}.Name(),
				Pos:      s.pkg.Fset.Position(s.pos),
				Message: fmt.Sprintf("hot path (via %s): %s allocates on every loop iteration in %s; move formatting off the hot loop",
					root, s.detail, fnName),
			})
		case poolBypassKind(s.kind) && s.loop && !s.bail && pools[s.pkg] && !s.growExempt && !s.noPool:
			an.diags = append(an.diags, Diagnostic{
				Analyzer: AllocHotPath{}.Name(),
				Pos:      s.pkg.Fset.Position(s.pos),
				Message: fmt.Sprintf("hot path (via %s): %s allocates on every loop iteration in %s; the package pools buffers — reuse a sync.Pool buffer or hoist the allocation",
					root, s.detail, fnName),
			})
		}
	}
}

func poolBypassKind(kind string) bool {
	switch kind {
	case kindMake, kindNew, kindComposite, kindAppend:
		return true
	}
	return false
}
