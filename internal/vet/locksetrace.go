package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/vet/cfg"
)

// LocksetRace infers which mutex guards which struct field and flags
// accesses that can run with no lock held — the flow-aware successor
// of the syntactic unlocked-field-read check. The analysis has three
// layers:
//
//  1. Per function body, a CFG must-analysis tracks the set of lock
//     keys (lockKeyOf identities) held at every point.
//     The fact is an (acquired, released) effect pair so it composes
//     with an unknown entry lockset: held(p) = (entry \ released(p))
//     ∪ acquired(p). Join intersects acquisitions and unions releases
//     (a lock is held only if held on every path). `defer mu.Unlock()`
//     keeps the lock held to the end of the region.
//  2. LockHeld facts propagate through call summaries in both
//     directions. Bottom-up over the call-graph SCC condensation, each
//     function's exit effect (locks it net-acquires or net-releases)
//     is applied at its call sites, so lock/unlock helper methods
//     compose. Top-down, a function's entry lockset is the
//     intersection of the locksets at its static call sites; exported
//     functions, main/init, functions referenced as values and
//     goroutine entry points are roots with an empty entry lockset
//     (callers outside the module hold nothing we can prove).
//  3. Guard inference: a field is considered guarded by the mutex key
//     held at the strict majority of its lock-held accesses, provided
//     that mutex covers at least two accesses including one write.
//     Every access of a guarded field whose effective lockset is
//     empty is reported.
//
// Precision carve-outs: fields of sync/atomic types synchronize
// themselves; accesses through locally-allocated bases (constructor
// idiom) are pre-publication; methods documented as running under the
// caller's lock ("caller must hold mu") or named *Locked are exempt
// from reporting (but still contribute evidence when propagation
// proves their lockset); function literals participate in inference
// but only goroutine-spawned literals are reported — they are the one
// literal class that provably runs outside every caller lockset.
type LocksetRace struct{}

// Name implements Analyzer.
func (LocksetRace) Name() string { return "lockset-race" }

// lockEffect is the dataflow fact: the lock keys certainly acquired
// and possibly released since function entry. Immutable.
type lockEffect struct {
	acq map[string]bool
	rel map[string]bool
}

var emptyLockEffect = &lockEffect{}

func (e *lockEffect) clone() *lockEffect {
	c := &lockEffect{
		acq: make(map[string]bool, len(e.acq)),
		rel: make(map[string]bool, len(e.rel)),
	}
	for k := range e.acq {
		c.acq[k] = true
	}
	for k := range e.rel {
		c.rel[k] = true
	}
	return c
}

// held computes the effective lockset for a given entry set.
func (e *lockEffect) held(entry map[string]bool) map[string]bool {
	out := make(map[string]bool, len(entry)+len(e.acq))
	for k := range entry {
		if !e.rel[k] {
			out[k] = true
		}
	}
	for k := range e.acq {
		out[k] = true
	}
	return out
}

func joinLockEffect(a, b cfg.Fact) cfg.Fact {
	fa, fb := a.(*lockEffect), b.(*lockEffect)
	out := &lockEffect{acq: make(map[string]bool), rel: make(map[string]bool)}
	for k := range fa.acq {
		if fb.acq[k] {
			out.acq[k] = true
		}
	}
	for k := range fa.rel {
		out.rel[k] = true
	}
	for k := range fb.rel {
		out.rel[k] = true
	}
	return out
}

func equalLockEffect(a, b cfg.Fact) bool {
	fa, fb := a.(*lockEffect), b.(*lockEffect)
	if len(fa.acq) != len(fb.acq) || len(fa.rel) != len(fb.rel) {
		return false
	}
	for k := range fa.acq {
		if !fb.acq[k] {
			return false
		}
	}
	for k := range fa.rel {
		if !fb.rel[k] {
			return false
		}
	}
	return true
}

// lsAccess is one recorded struct-field access with the lock effect in
// force at its program point.
type lsAccess struct {
	pkg     *Package
	field   *types.Var
	display string // shortKey'd pkg.Type.field
	write   bool
	pos     token.Pos
	fn      string      // enclosing declaration name, for the message
	owner   *types.Func // nil inside function literals
	effect  *lockEffect
	// noReport: evidence for inference only (non-goroutine literals,
	// caller-holds-lock methods, *Locked methods).
	noReport bool
}

// lsSite is one static call site, for entry-lockset propagation.
type lsSite struct {
	caller *types.Func // nil inside function literals (entry = empty)
	callee *types.Func
	effect *lockEffect
}

// lsExit is a function's net lock effect at exit (lock helpers).
type lsExit struct {
	acq map[string]bool
	rel map[string]bool
}

func (s *lsExit) equal(o *lsExit) bool {
	if o == nil {
		return false
	}
	if len(s.acq) != len(o.acq) || len(s.rel) != len(o.rel) {
		return false
	}
	for k := range s.acq {
		if !o.acq[k] {
			return false
		}
	}
	for k := range s.rel {
		if !o.rel[k] {
			return false
		}
	}
	return true
}

type lsAnalysis struct {
	pkgPaths map[string]bool
	exits    map[*types.Func]*lsExit
	// fresh: functions whose every return hands back an object
	// allocated inside them (constructors) — their results are
	// pre-publication at the caller.
	fresh map[*types.Func]bool

	accesses []lsAccess
	sites    []lsSite
	roots    map[*types.Func]bool
}

// Run implements Analyzer.
func (LocksetRace) Run(m *module) []Diagnostic {
	ls := &lsAnalysis{
		pkgPaths: make(map[string]bool, len(m.pkgs)),
		exits:    make(map[*types.Func]*lsExit),
		fresh:    make(map[*types.Func]bool),
		roots:    make(map[*types.Func]bool),
	}
	for _, pkg := range m.pkgs {
		ls.pkgPaths[pkg.Types.Path()] = true
	}

	g := m.graph()
	g.bottomUp(ls.markFresh)

	// Pass 1: bottom-up exit effects so lock/unlock helpers compose.
	g.bottomUp(ls.summarizeExit)

	// Pass 2: collect accesses, call sites and roots.
	ls.collectRoots(m.pkgs, g)
	forEachFunc(m.pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		ls.collectBody(pkg, fd, fn)
	})

	// Pass 3: entry-lockset fixpoint over the call sites.
	entry := ls.solveEntries()

	// Pass 4: guard inference and reporting.
	return ls.report(entry)
}

// summarizeExit recomputes fn's exit lock effect; reports change.
func (ls *lsAnalysis) summarizeExit(site *declSite, fn *types.Func) bool {
	r := &lsRun{ls: ls, pkg: site.pkg}
	g := cfg.Build(site.decl.Body)
	in := cfg.Solve(g, r.transfer())
	cur := &lsExit{acq: map[string]bool{}, rel: map[string]bool{}}
	if f, ok := in[g.Exit]; ok {
		eff := f.(*lockEffect)
		for k := range eff.acq {
			cur.acq[k] = true
		}
		for k := range eff.rel {
			cur.rel[k] = true
		}
	}
	if cur.equal(ls.exits[fn]) {
		return false
	}
	ls.exits[fn] = cur
	return true
}

// collectRoots marks the functions whose entry lockset must be assumed
// empty: exported API, main/init, and functions referenced as values
// (handlers, callbacks, method values) — their call sites are
// invisible to the propagation.
func (ls *lsAnalysis) collectRoots(pkgs []*Package, g *callGraph) {
	for fn := range g.decls {
		if ast.IsExported(fn.Name()) || fn.Name() == "main" || fn.Name() == "init" {
			ls.roots[fn] = true
		}
	}
	called := make(map[*ast.Ident]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			// Preorder: a call is visited before the identifier it calls.
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					switch fun := ast.Unparen(x.Fun).(type) {
					case *ast.Ident:
						called[fun] = true
					case *ast.SelectorExpr:
						called[fun.Sel] = true
					}
				case *ast.Ident:
					if fn, ok := pkg.Info.Uses[x].(*types.Func); ok && !called[x] {
						if _, inModule := g.decls[fn]; inModule {
							ls.roots[fn] = true
						}
					}
				}
				return true
			})
		}
	}
}

// collectBody records field accesses and call sites for one declared
// function and every literal nested in it.
func (ls *lsAnalysis) collectBody(pkg *Package, fd *ast.FuncDecl, fn *types.Func) {
	exempt := callerHoldsLock(fd) || strings.HasSuffix(fd.Name.Name, "Locked")

	// Literals spawned by go statements run concurrently and are
	// reportable; everything else (defer cleanups, callbacks) only
	// contributes inference evidence.
	goLits := make(map[*ast.FuncLit]bool)
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		case *ast.FuncLit:
			lits = append(lits, x)
		}
		return true
	})

	ls.analyzeBody(pkg, fd.Body, fd.Name.Name, fn, exempt)
	for _, lit := range lits {
		ls.analyzeBody(pkg, lit.Body, fd.Name.Name, nil, exempt || !goLits[lit])
	}
}

// analyzeBody solves the lock-effect CFG for one body and replays it,
// recording accesses and call sites under the effect at each point.
func (ls *lsAnalysis) analyzeBody(pkg *Package, body *ast.BlockStmt, name string, fn *types.Func, noReport bool) {
	r := &lsRun{ls: ls, pkg: pkg}
	local := ls.localAllocs(pkg, body)
	g := cfg.Build(body)
	t := r.transfer()
	in := cfg.Solve(g, t)
	cfg.Replay(g, t, in, func(f cfg.Fact, n ast.Node) {
		eff := f.(*lockEffect)
		ls.scanNode(pkg, n, name, fn, eff, local, noReport)
	})
}

// scanNode records every field access and module call site in one CFG
// node under the given lock effect.
func (ls *lsAnalysis) scanNode(pkg *Package, n ast.Node, name string, fn *types.Func, eff *lockEffect, local map[types.Object]bool, noReport bool) {
	addAccess := func(sel *ast.SelectorExpr, write bool) {
		ls.addAccess(pkg, sel, write, name, fn, eff, local, noReport)
	}
	var scanReads func(e ast.Expr)
	scanReads = func(e ast.Expr) {
		if e == nil {
			return
		}
		cfg.Inspect(e, func(m ast.Node) bool {
			if sel, ok := m.(*ast.SelectorExpr); ok {
				addAccess(sel, false)
			}
			return true
		})
	}
	// writeTarget peels index/star wrappers so `b.m[k] = v` and
	// `*b.p = v` count as writes through the field.
	writeTarget := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				scanReads(x.Index)
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				addAccess(x, true)
				scanReads(x.X)
				return
			default:
				scanReads(e)
				return
			}
		}
	}

	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			scanReads(rhs)
		}
		for _, lhs := range s.Lhs {
			writeTarget(lhs)
		}
	case *ast.IncDecStmt:
		writeTarget(s.X)
	default:
		if call, ok := deleteCall(pkg, n); ok {
			writeTarget(call.Args[0])
			for _, arg := range call.Args[1:] {
				scanReads(arg)
			}
		} else if stmt, ok := n.(ast.Stmt); ok {
			scanStmtShallow(stmt, scanReads)
		} else if e, ok := n.(ast.Expr); ok {
			scanReads(e)
		}
	}

	// Call sites for entry propagation. Calls inside go statements are
	// concurrent: the callee becomes a root instead of inheriting the
	// spawner's lockset.
	cfg.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pkg, call)
		if callee == nil {
			return true
		}
		if gs, ok := n.(*ast.GoStmt); ok && gs.Call == call {
			ls.roots[callee] = true
			return true
		}
		// A method call on a locally-allocated receiver is the
		// constructor initializing its object pre-publication; it must
		// not drag the callee's entry lockset down to empty.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id := rootSelIdent(sel.X); id != nil {
				if obj := pkg.Info.Uses[id]; obj != nil && local[obj] {
					return true
				}
			}
		}
		ls.sites = append(ls.sites, lsSite{caller: fn, callee: callee, effect: eff})
		return true
	})
}

// scanStmtShallow visits the expressions evaluated by one straight-line
// statement (nested statements are their own CFG nodes).
func scanStmtShallow(s ast.Stmt, scan func(ast.Expr)) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		scan(s.X)
	case *ast.SendStmt:
		scan(s.Chan)
		scan(s.Value)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			scan(r)
		}
	case *ast.DeferStmt:
		scan(s.Call)
	case *ast.GoStmt:
		scan(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						scan(v)
					}
				}
			}
		}
	case *ast.RangeStmt:
		// s.X is already a node of the preceding block (the builder
		// appends it before the head); scanning it here would double-
		// count its accesses.
	}
}

// deleteCall recognizes the delete builtin (a map mutation).
func deleteCall(pkg *Package, n ast.Node) (*ast.CallExpr, bool) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) < 1 {
		return nil, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "delete" {
			return call, true
		}
	}
	return nil, false
}

// addAccess records one selector as a field access if it qualifies.
func (ls *lsAnalysis) addAccess(pkg *Package, sel *ast.SelectorExpr, write bool, name string, fn *types.Func, eff *lockEffect, local map[types.Object]bool, noReport bool) {
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || field.Pkg() == nil || !ls.pkgPaths[field.Pkg().Path()] {
		return
	}
	if selfSynchronized(field.Type()) {
		return
	}
	named := namedType(pkg.Info.Types[sel.X].Type)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	// Pre-publication accesses: a selector chain rooted at a locally-
	// allocated object (constructor idiom) cannot race yet.
	if id := rootSelIdent(sel.X); id != nil {
		if obj := pkg.Info.Uses[id]; obj != nil && local[obj] {
			return
		}
	}
	// A by-value base is a private copy.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
				if _, isIface := v.Type().Underlying().(*types.Interface); !isIface {
					return
				}
			}
		}
	}
	ls.accesses = append(ls.accesses, lsAccess{
		pkg:      pkg,
		field:    field,
		display:  shortKey(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name),
		write:    write,
		pos:      sel.Sel.Pos(),
		fn:       name,
		owner:    fn,
		effect:   eff,
		noReport: noReport,
	})
}

// markFresh is the bottom-up step that marks constructors: functions
// whose every return hands back an object allocated inside them (a
// composite literal, new(T), a locally-allocated variable, or another
// constructor's result). Accesses through such results at the caller
// are pre-publication. Freshness chains through wrappers, so it is a
// fixpoint over the call graph; it reports whether fn became fresh.
func (ls *lsAnalysis) markFresh(site *declSite, fn *types.Func) bool {
	if ls.fresh[fn] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	local := ls.localAllocs(site.pkg, site.decl.Body)
	returns, allFresh := 0, true
	ast.Inspect(site.decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		returns++
		if len(ret.Results) == 0 {
			allFresh = false
			return true
		}
		res := ast.Unparen(ret.Results[0])
		if tv, ok := site.pkg.Info.Types[res]; ok && tv.IsNil() {
			return true // error path: nothing escapes
		}
		if !ls.isFreshExpr(site.pkg, res, local) {
			allFresh = false
		}
		return true
	})
	if returns > 0 && allFresh {
		ls.fresh[fn] = true
		return true
	}
	return false
}

func (ls *lsAnalysis) isFreshExpr(pkg *Package, e ast.Expr, local map[types.Object]bool) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			return local[obj]
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
				return b.Name() == "new"
			}
		}
		if fn := calleeOf(pkg, x); fn != nil {
			return ls.fresh[fn]
		}
	}
	return false
}

// localAllocs collects objects bound to values allocated in this body:
// composite literals, &composite, new(T), and constructor results —
// the pre-publication idiom.
func (ls *lsAnalysis) localAllocs(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	isAlloc := func(e ast.Expr) bool {
		return ls.isFreshExpr(pkg, e, out)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i := range s.Lhs {
				if isAlloc(s.Rhs[i]) {
					if obj := identObj(pkg, s.Lhs[i]); obj != nil {
						out[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, nm := range s.Names {
				if i < len(s.Values) && isAlloc(s.Values[i]) {
					if obj := pkg.Info.Defs[nm]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// rootSelIdent walks a pure selector chain (a.b.c) down to its root
// identifier; anything else (indexing, calls, derefs) yields nil.
func rootSelIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// lsRun holds the transfer for one body.
type lsRun struct {
	ls  *lsAnalysis
	pkg *Package
}

func (r *lsRun) transfer() cfg.Transfer {
	return cfg.Transfer{
		Entry: emptyLockEffect,
		Node:  func(f cfg.Fact, n ast.Node) cfg.Fact { return r.node(f.(*lockEffect), n) },
		Join:  joinLockEffect,
		Equal: equalLockEffect,
	}
}

func (r *lsRun) node(eff *lockEffect, n ast.Node) *lockEffect {
	if ds, ok := n.(*ast.DeferStmt); ok {
		// defer mu.Unlock() (or a deferred releasing helper): the lock
		// stays held until the region ends.
		if _, _, locked, ok := lockOpOf(r.pkg, ds.Call); ok && !locked {
			return eff
		}
		if fn := calleeOf(r.pkg, ds.Call); fn != nil {
			if sum := r.ls.exits[fn]; sum != nil && len(sum.rel) > 0 {
				return eff
			}
		}
		return eff
	}
	cfg.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, _, locked, ok := lockOpOf(r.pkg, call); ok {
			if key := lockKeyOf(r.pkg, sel.X); key != "" {
				eff = r.apply(eff, locked, key)
			}
			return true
		}
		// Lock/unlock helper composition via exit summaries. Calls in
		// go statements run concurrently: their effect is not ours.
		if gs, isGo := n.(*ast.GoStmt); isGo && gs.Call == call {
			return true
		}
		if fn := calleeOf(r.pkg, call); fn != nil {
			if sum := r.ls.exits[fn]; sum != nil {
				for k := range sum.acq {
					eff = r.apply(eff, true, k)
				}
				for k := range sum.rel {
					eff = r.apply(eff, false, k)
				}
			}
		}
		return true
	})
	return eff
}

func (r *lsRun) apply(eff *lockEffect, locked bool, key string) *lockEffect {
	if locked {
		if eff.acq[key] && !eff.rel[key] {
			return eff
		}
		out := eff.clone()
		out.acq[key] = true
		delete(out.rel, key)
		return out
	}
	if !eff.acq[key] && eff.rel[key] {
		return eff
	}
	out := eff.clone()
	delete(out.acq, key)
	out.rel[key] = true
	return out
}

// solveEntries runs the top-down entry-lockset fixpoint: a function's
// entry set is the intersection over its call sites of the caller's
// effective lockset there. Unresolved (⊤) callers do not constrain
// the intersection; roots are pinned to the empty set.
func (ls *lsAnalysis) solveEntries() map[*types.Func]map[string]bool {
	sitesByCallee := make(map[*types.Func][]lsSite)
	for _, s := range ls.sites {
		sitesByCallee[s.callee] = append(sitesByCallee[s.callee], s)
	}

	entry := make(map[*types.Func]map[string]bool)
	resolved := make(map[*types.Func]bool)
	for fn := range ls.roots {
		entry[fn] = map[string]bool{}
		resolved[fn] = true
	}
	callees := make([]*types.Func, 0, len(sitesByCallee))
	for fn := range sitesByCallee {
		callees = append(callees, fn)
	}
	sort.Slice(callees, func(i, j int) bool { return callees[i].Pos() < callees[j].Pos() })

	for pass := 0; pass < len(callees)+8; pass++ {
		changed := false
		for _, fn := range callees {
			if ls.roots[fn] {
				continue
			}
			var next map[string]bool
			first := true
			for _, s := range sitesByCallee[fn] {
				callerEntry := map[string]bool{}
				if s.caller != nil {
					if !resolved[s.caller] {
						continue // optimistic: ⊤ callers don't constrain
					}
					callerEntry = entry[s.caller]
				}
				held := s.effect.held(callerEntry)
				if first {
					next = held
					first = false
					continue
				}
				for k := range next {
					if !held[k] {
						delete(next, k)
					}
				}
			}
			if first {
				continue // every caller still unresolved
			}
			if !resolved[fn] || !sameKeySet(entry[fn], next) {
				entry[fn] = next
				resolved[fn] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return entry
}

func sameKeySet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// report infers the guard per field and flags lock-free accesses.
func (ls *lsAnalysis) report(entry map[*types.Func]map[string]bool) []Diagnostic {
	type evidence struct {
		total  int // accesses with a resolvable lockset
		locked int // of those, accesses with ≥1 lock held
		perKey map[string]int
		writes map[string]int
	}
	ev := make(map[*types.Var]*evidence)
	type resolved struct {
		acc  lsAccess
		held map[string]bool
		top  bool // entry unknown: evidence via acquisitions only
	}
	rs := make([]resolved, 0, len(ls.accesses))
	for _, acc := range ls.accesses {
		var held map[string]bool
		top := false
		if acc.owner == nil {
			held = acc.effect.held(map[string]bool{})
		} else if e, ok := entry[acc.owner]; ok {
			held = acc.effect.held(e)
		} else {
			// Unreachable from any root: only intra-body acquisitions
			// are trustworthy evidence, and nothing is reportable.
			held = acc.effect.held(map[string]bool{})
			top = true
		}
		rs = append(rs, resolved{acc: acc, held: held, top: top})

		e := ev[acc.field]
		if e == nil {
			e = &evidence{perKey: map[string]int{}, writes: map[string]int{}}
			ev[acc.field] = e
		}
		if top && len(held) == 0 {
			continue // no usable evidence
		}
		e.total++
		if len(held) > 0 {
			e.locked++
			for k := range held {
				e.perKey[k]++
				if acc.write {
					e.writes[k]++
				}
			}
		}
	}

	// Guard = the key covering a strict majority of the lock-held
	// accesses, with at least two accesses and one write under it.
	guard := make(map[*types.Var]string)
	guardN := make(map[*types.Var]int)
	for field, e := range ev {
		// Only a mutex from the field's own package can be its guard:
		// a foreign-package lock happening to be held at the accesses
		// (a server mutex around a test-stack append) is coincidence,
		// not a guard relation.
		samePkg := field.Pkg().Path() + "."
		bestKey, bestN := "", 0
		for k, n := range e.perKey {
			if !strings.HasPrefix(k, samePkg) {
				continue
			}
			if n > bestN || (n == bestN && k < bestKey) {
				bestKey, bestN = k, n
			}
		}
		if bestKey == "" || bestN < 2 || e.writes[bestKey] == 0 {
			continue
		}
		if 2*bestN <= e.locked {
			continue
		}
		guard[field] = bestKey
		guardN[field] = bestN
	}

	var diags []Diagnostic
	for _, r := range rs {
		key, ok := guard[r.acc.field]
		if !ok || r.top || r.acc.noReport || len(r.held) > 0 {
			continue
		}
		verb := "read"
		if r.acc.write {
			verb = "written"
		}
		e := ev[r.acc.field]
		diags = append(diags, Diagnostic{
			Analyzer: "lockset-race",
			Pos:      r.acc.pkg.Fset.Position(r.acc.pos),
			Message: fmt.Sprintf("%s is guarded by %s (%d/%d locked accesses) but %s with no lock held in %s",
				r.acc.display, shortKey(key), guardN[r.acc.field], e.locked, verb, r.acc.fn),
		})
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

// callerHoldsLock reports whether the method's doc comment declares a
// locking precondition ("caller must hold c.mu" and variants).
func callerHoldsLock(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	return strings.Contains(strings.ToLower(fd.Doc.Text()), "hold")
}

// selfSynchronized reports whether the field's type synchronizes its
// own access: sync primitives and sync/atomic values.
func selfSynchronized(t types.Type) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}
