package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/vet/cfg"
)

// PoolLifecycle is a CFG must-analysis over sync.Pool Get/Put
// obligations. A pooled object is live from its Get (direct, or via a
// module helper whose summary returns a pooled value) until its Put
// (direct, or via a helper whose summary puts a parameter, or a
// deferred Put). Within that window the analysis flags the lifecycle
// violations that corrupt a pool:
//
//   - use-after-put: any read of the object after it went back to the
//     pool — another goroutine may already have Got it.
//   - double-put: the same object returned to the pool twice, so two
//     future Gets share one buffer.
//   - escape-then-put: the object was stored into a longer-lived
//     structure, sent on a channel, or handed to a goroutine, and then
//     recycled — the escaped reference now aliases pool-owned memory.
//   - deferred-Put escape: a deferred Put recycles an object the
//     function also returns to its caller.
//
// Helper summaries are computed bottom-up over the call-graph SCCs so
// the recGet/recPut pair in oncrpc/pool.go and similar wrappers
// compose: recGet() carries the obligation to its caller, recPut(p)
// counts as the Put. Put-shaped helpers are recognized by behavior
// (their body puts the parameter), never by name, so ordinary caches
// with Put methods do not trigger events.
type PoolLifecycle struct{}

// Name implements Analyzer.
func (PoolLifecycle) Name() string { return "pool-lifecycle" }

// Run implements Analyzer.
func (PoolLifecycle) Run(m *module) []Diagnostic {
	pa := &poolAnalysis{
		sums:     make(map[*types.Func]*poolSummary),
		siteObs:  make(map[ast.Node]*poolOb),
		paramObs: make(map[types.Object]*poolOb),
	}
	m.graph().bottomUp(pa.summarize)

	var diags []Diagnostic
	for _, tgt := range taintTargets(m.pkgs) {
		diags = append(diags, pa.report(tgt)...)
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

// poolSummary is one function's pool behavior.
type poolSummary struct {
	// ReturnsPooled: a return value is a pooled object acquired inside
	// the function — the caller inherits the Put obligation (recGet).
	ReturnsPooled bool
	// PutsParam[i]: the function returns argument i to a pool on at
	// least one path (recPut) — a call is a may-Put of that argument.
	PutsParam []bool

	variadic bool
}

func newPoolSummary(sig *types.Signature) *poolSummary {
	return &poolSummary{
		PutsParam: make([]bool, sig.Params().Len()),
		variadic:  sig.Variadic(),
	}
}

func (s *poolSummary) equal(o *poolSummary) bool {
	if o == nil || s.ReturnsPooled != o.ReturnsPooled {
		return false
	}
	for i := range s.PutsParam {
		if s.PutsParam[i] != o.PutsParam[i] {
			return false
		}
	}
	return true
}

func (s *poolSummary) argIndex(i int) int {
	if i < len(s.PutsParam) {
		return i
	}
	if s.variadic && len(s.PutsParam) > 0 {
		return len(s.PutsParam) - 1
	}
	return -1
}

// poolOb identifies one tracked pooled object: a Get site, a Put site
// whose operand was not previously tracked (so later uses of the
// now-pooled variable are still caught), or a parameter marker during
// summary computation.
type poolOb struct {
	pos   token.Pos
	param int          // parameter index for markers, -1 otherwise
	obj   types.Object // the marker's parameter object, nil otherwise
}

// poolInfo is an obligation's per-path state.
type poolInfo struct {
	aliases map[types.Object]bool
	// mayPut: a Put of the object happened on some path to here.
	mayPut bool
	putPos token.Pos
	// deferPut: a deferred Put is registered; it runs at function exit.
	deferPut bool
	// mayEsc: the object escaped (stored / sent / appended) on some
	// path; a later Put recycles memory something else still holds.
	mayEsc  bool
	escPos  token.Pos
	escKind string
	// async: the object was handed to a goroutine on some path.
	async bool
}

func (i *poolInfo) clone() *poolInfo {
	c := *i
	c.aliases = make(map[types.Object]bool, len(i.aliases))
	for o := range i.aliases {
		c.aliases[o] = true
	}
	return &c
}

// plFact is the dataflow fact: live obligations. Treated as immutable;
// every mutation copies.
type plFact map[*poolOb]*poolInfo

func (f plFact) clone() plFact {
	c := make(plFact, len(f))
	for ob, info := range f {
		c[ob] = info
	}
	return c
}

func joinPool(a, b cfg.Fact) cfg.Fact {
	fa, fb := a.(plFact), b.(plFact)
	if len(fb) == 0 {
		return fa
	}
	if len(fa) == 0 {
		return fb
	}
	out := fa.clone()
	for ob, ib := range fb {
		ia, ok := out[ob]
		if !ok {
			out[ob] = ib
			continue
		}
		if equalPoolInfo(ia, ib) {
			continue
		}
		m := ia.clone()
		for o := range ib.aliases {
			m.aliases[o] = true
		}
		m.mayPut = ia.mayPut || ib.mayPut
		if m.putPos == token.NoPos {
			m.putPos = ib.putPos
		}
		m.deferPut = ia.deferPut || ib.deferPut
		m.mayEsc = ia.mayEsc || ib.mayEsc
		if m.escPos == token.NoPos {
			m.escPos = ib.escPos
			m.escKind = ib.escKind
		}
		m.async = ia.async || ib.async
		out[ob] = m
	}
	return out
}

func equalPoolInfo(a, b *poolInfo) bool {
	if a.mayPut != b.mayPut || a.deferPut != b.deferPut ||
		a.mayEsc != b.mayEsc || a.async != b.async ||
		len(a.aliases) != len(b.aliases) {
		return false
	}
	for o := range a.aliases {
		if !b.aliases[o] {
			return false
		}
	}
	return true
}

func equalPool(a, b cfg.Fact) bool {
	fa, fb := a.(plFact), b.(plFact)
	if len(fa) != len(fb) {
		return false
	}
	for ob, ia := range fa {
		ib, ok := fb[ob]
		if !ok || !equalPoolInfo(ia, ib) {
			return false
		}
	}
	return true
}

// poolAnalysis is the module-wide state: summaries plus interned
// obligations (convergence requires one obligation object per site).
type poolAnalysis struct {
	sums     map[*types.Func]*poolSummary
	siteObs  map[ast.Node]*poolOb
	paramObs map[types.Object]*poolOb
}

func (pa *poolAnalysis) siteOb(at ast.Node) *poolOb {
	ob := pa.siteObs[at]
	if ob == nil {
		ob = &poolOb{pos: at.Pos(), param: -1}
		pa.siteObs[at] = ob
	}
	return ob
}

func (pa *poolAnalysis) paramOb(obj types.Object, index int) *poolOb {
	ob := pa.paramObs[obj]
	if ob == nil {
		ob = &poolOb{pos: obj.Pos(), param: index, obj: obj}
		pa.paramObs[obj] = ob
	}
	return ob
}

// summarize recomputes fn's pool summary; reports change.
func (pa *poolAnalysis) summarize(site *declSite, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	old := pa.sums[fn]
	cur := newPoolSummary(sig)

	r := &plRun{pa: pa, pkg: site.pkg, fnName: fn.Name(), sum: cur}
	entry := plFact{}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if p := params.At(i); p != nil && trackablePoolParam(p.Type()) {
			ob := pa.paramOb(p, i)
			entry[ob] = &poolInfo{aliases: map[types.Object]bool{p: true}}
		}
	}
	g := cfg.Build(site.decl.Body)
	cfg.Solve(g, r.transfer(entry))

	if cur.equal(old) {
		return false
	}
	pa.sums[fn] = cur
	return true
}

// report runs the lifecycle analysis over one function body and
// replays the solved states to emit diagnostics.
func (pa *poolAnalysis) report(tgt taintTarget) []Diagnostic {
	r := &plRun{pa: pa, pkg: tgt.pkg, fnName: tgt.decl.Name.Name}
	g := cfg.Build(tgt.body)
	t := r.transfer(plFact{})
	in := cfg.Solve(g, t)

	var diags []Diagnostic
	seen := make(map[string]bool)
	emit := func(pos token.Pos, format string, args ...any) {
		d := Diagnostic{
			Analyzer: "pool-lifecycle",
			Pos:      tgt.pkg.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		}
		key := fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Message)
		if !seen[key] {
			seen[key] = true
			diags = append(diags, d)
		}
	}
	line := func(pos token.Pos) int { return tgt.pkg.Fset.Position(pos).Line }

	cfg.Replay(g, t, in, func(f cfg.Fact, n ast.Node) {
		st := f.(plFact)
		if len(st) == 0 {
			return
		}
		switch s := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt, *ast.RangeStmt:
			_ = s
			return // interpreted by the transfer, not direct execution
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if ob := r.aliasOb(st, res); ob != nil && st[ob].deferPut {
					emit(s.Pos(), "pooled object in %s is returned to the caller but a deferred Put recycles it",
						r.fnName)
				}
			}
		case *ast.SendStmt:
			if ob := r.aliasOb(st, s.Value); ob != nil && st[ob].deferPut {
				emit(s.Pos(), "pooled object in %s is sent on a channel but a deferred Put recycles it",
					r.fnName)
			}
		case *ast.AssignStmt:
			if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					if identObj(r.pkg, s.Lhs[i]) != nil {
						continue // rebinding, not a store
					}
					if ob := r.aliasOb(st, s.Rhs[i]); ob != nil && st[ob].deferPut {
						emit(s.Pos(), "pooled object in %s is stored but a deferred Put recycles it",
							r.fnName)
					}
				}
			}
		}

		// A whole-variable assignment target is a rebind, not a read of
		// the pooled object; exclude those idents from the use scan.
		skipIdents := make(map[*ast.Ident]bool)
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					skipIdents[id] = true
				}
			}
		}

		// Put events against the state in force before them.
		putIdents := skipIdents
		cfg.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range r.putArgs(call) {
				ast.Inspect(arg, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok {
						putIdents[id] = true
					}
					return true
				})
				ob := r.aliasOb(st, arg)
				if ob == nil {
					continue
				}
				info := st[ob]
				switch {
				case info.mayPut:
					emit(call.Pos(), "pooled object in %s is returned to the pool twice (previous Put at line %d)",
						r.fnName, line(info.putPos))
				case info.deferPut:
					emit(call.Pos(), "pooled object in %s is returned to the pool twice (a deferred Put also recycles it)",
						r.fnName)
				case info.async:
					emit(call.Pos(), "pooled object in %s is handed to a goroutine but is returned to the pool",
						r.fnName)
				case info.mayEsc:
					emit(call.Pos(), "pooled object in %s escapes (%s at line %d) but is returned to the pool",
						r.fnName, info.escKind, line(info.escPos))
				}
			}
			return true
		})

		// Any other read of an object that may already be pooled.
		cfg.Inspect(n, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || putIdents[id] {
				return true
			}
			obj := r.pkg.Info.Uses[id]
			if obj == nil {
				return true
			}
			for _, info := range st {
				if info.mayPut && info.aliases[obj] {
					emit(id.Pos(), "pooled object in %s is used after being returned to the pool (Put at line %d)",
						r.fnName, line(info.putPos))
				}
			}
			return true
		})
	})
	return diags
}

// plRun analyzes one function body, in summary mode (sum != nil,
// parameter markers seeded) or reporting mode.
type plRun struct {
	pa     *poolAnalysis
	pkg    *Package
	fnName string
	sum    *poolSummary // nil in reporting mode
}

func (r *plRun) transfer(entry plFact) cfg.Transfer {
	return cfg.Transfer{
		Entry: entry,
		Node:  func(f cfg.Fact, n ast.Node) cfg.Fact { return r.node(f.(plFact), n) },
		Edge:  func(f cfg.Fact, e cfg.Edge) cfg.Fact { return f },
		Join:  joinPool,
		Equal: equalPool,
	}
}

func (r *plRun) node(st plFact, n ast.Node) plFact {
	switch s := n.(type) {
	case *ast.AssignStmt:
		st = r.events(st, n)
		return r.assign(st, s)
	case *ast.DeclStmt:
		st = r.events(st, n)
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							st = r.assign1(st, name, vs.Values[i])
						}
					}
				}
			}
		}
		return st
	case *ast.ReturnStmt:
		st = r.events(st, n)
		return r.ret(st, s)
	case *ast.SendStmt:
		st = r.events(st, n)
		if ob := r.aliasOb(st, s.Value); ob != nil {
			st = r.markEscape(st, ob, "sent", s.Pos())
		}
		return st
	case *ast.DeferStmt:
		return r.deferred(st, s)
	case *ast.GoStmt:
		return r.goStmt(st, s)
	case *ast.RangeStmt:
		// s.X is a node of the preceding block; only the iteration
		// variables need handling (they are rebound).
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e != nil {
				if obj := identObj(r.pkg, e); obj != nil {
					st = r.killObj(st, obj)
				}
			}
		}
		return st
	default:
		return r.events(st, n)
	}
}

// events applies Put and process-ending effects from every call in the
// node (excluding function-literal interiors, which execute later or
// elsewhere).
func (r *plRun) events(st plFact, n ast.Node) plFact {
	cfg.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if noReturnCall(r.pkg, call) {
			st = plFact{}
			return true
		}
		for _, arg := range r.putArgs(call) {
			st = r.put(st, arg, call)
		}
		return true
	})
	return st
}

// put applies one Put of arg at call.
func (r *plRun) put(st plFact, arg ast.Expr, call *ast.CallExpr) plFact {
	if ob := r.aliasOb(st, arg); ob != nil {
		if r.sum != nil && ob.param >= 0 {
			r.sum.PutsParam[ob.param] = true
		}
		out := st.clone()
		ni := st[ob].clone()
		ni.mayPut = true
		ni.putPos = call.Pos()
		out[ob] = ni
		return out
	}
	// An untracked value going into a pool starts an obligation in the
	// put state, so later uses of the variable are still caught.
	obj := identObj(r.pkg, peelAddr(arg))
	if obj == nil {
		return st
	}
	ob := r.pa.siteOb(call)
	out := st.clone()
	out[ob] = &poolInfo{
		aliases: map[types.Object]bool{obj: true},
		mayPut:  true,
		putPos:  call.Pos(),
	}
	return out
}

// putArgs returns the operands a call returns to a pool: the argument
// of (*sync.Pool).Put, and arguments whose position a module callee's
// summary marks as put.
func (r *plRun) putArgs(call *ast.CallExpr) []ast.Expr {
	fn, path := stdCallee(r.pkg, call)
	if fn != nil && path == "sync" && fn.Name() == "Put" {
		if named := recvNamed(r.pkg, call); named != nil && named.Obj().Name() == "Pool" {
			if len(call.Args) == 1 {
				return call.Args[:1]
			}
		}
		return nil
	}
	if fn == nil {
		return nil
	}
	sum := r.pa.sums[fn]
	if sum == nil {
		return nil
	}
	var out []ast.Expr
	for i, arg := range call.Args {
		if j := sum.argIndex(i); j >= 0 && sum.PutsParam[j] {
			out = append(out, arg)
		}
	}
	return out
}

// isAcquire reports whether a call produces a pooled object the caller
// must eventually Put: (*sync.Pool).Get, or a module helper whose
// summary returns one.
func (r *plRun) isAcquire(call *ast.CallExpr) bool {
	fn, path := stdCallee(r.pkg, call)
	if fn == nil {
		return false
	}
	if path == "sync" && fn.Name() == "Get" {
		named := recvNamed(r.pkg, call)
		return named != nil && named.Obj().Name() == "Pool"
	}
	sum := r.pa.sums[fn]
	return sum != nil && sum.ReturnsPooled
}

func (r *plRun) assign(st plFact, as *ast.AssignStmt) plFact {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return st // compound assignment: no object movement
	}
	if len(as.Lhs) != len(as.Rhs) && len(as.Rhs) == 1 {
		// Tuple form: buf, err := helper().
		if call := unwrapPooledCall(as.Rhs[0]); call != nil && r.isAcquire(call) {
			info := &poolInfo{aliases: make(map[types.Object]bool)}
			for _, l := range as.Lhs {
				obj := identObj(r.pkg, l)
				if obj == nil || isErrType(obj.Type()) {
					continue
				}
				st = r.killObj(st, obj)
				info.aliases[obj] = true
			}
			out := st.clone()
			out[r.pa.siteOb(call)] = info
			return out
		}
		for _, l := range as.Lhs {
			if obj := identObj(r.pkg, l); obj != nil {
				st = r.killObj(st, obj)
			}
		}
		return st
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			st = r.assign1(st, as.Lhs[i], as.Rhs[i])
		}
	}
	return st
}

// assign1 handles one lhs = rhs pair.
func (r *plRun) assign1(st plFact, lhs, rhs ast.Expr) plFact {
	obj := identObj(r.pkg, lhs)
	if call := unwrapPooledCall(rhs); call != nil && r.isAcquire(call) {
		if obj == nil {
			return st // acquired straight into a structure: it owns it
		}
		st = r.killObj(st, obj)
		out := st.clone()
		// A fresh Get at a loop-reused site resets the state.
		out[r.pa.siteOb(call)] = &poolInfo{aliases: map[types.Object]bool{obj: true}}
		return out
	}
	if ob := r.aliasOb(st, rhs); ob != nil {
		if obj != nil {
			st = r.killObj(st, obj)
			out := st.clone()
			ni := out[ob].clone()
			ni.aliases[obj] = true
			out[ob] = ni
			return out
		}
		// Stored into a field, element, or global: it outlives this
		// frame, so a later Put recycles shared memory.
		return r.markEscape(st, ob, "stored", rhs.Pos())
	}
	if obj != nil {
		st = r.killObj(st, obj)
	}
	return st
}

// ret records summary facts for returned pooled objects and clears the
// state (reporting inspects the pre-return fact).
func (r *plRun) ret(st plFact, ret *ast.ReturnStmt) plFact {
	if r.sum != nil {
		for _, res := range ret.Results {
			if call := unwrapPooledCall(res); call != nil && r.isAcquire(call) {
				r.sum.ReturnsPooled = true
				continue
			}
			if ob := r.aliasOb(st, res); ob != nil && ob.param < 0 {
				r.sum.ReturnsPooled = true
			}
		}
	}
	return plFact{}
}

// deferred registers deferred Puts: the object stays usable until the
// function exits, but escapes past the deferral are violations.
func (r *plRun) deferred(st plFact, d *ast.DeferStmt) plFact {
	mark := func(arg ast.Expr) {
		ob := r.aliasOb(st, arg)
		if ob == nil {
			return
		}
		if r.sum != nil && ob.param >= 0 {
			r.sum.PutsParam[ob.param] = true
		}
		out := st.clone()
		ni := st[ob].clone()
		ni.deferPut = true
		out[ob] = ni
		st = out
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				for _, arg := range r.putArgs(call) {
					mark(arg)
				}
			}
			return true
		})
		return st
	}
	for _, arg := range r.putArgs(d.Call) {
		mark(arg)
	}
	return st
}

// goStmt marks objects referenced by a spawned goroutine (directly or
// via closure capture): a Put after the spawn races the goroutine.
func (r *plRun) goStmt(st plFact, g *ast.GoStmt) plFact {
	ast.Inspect(g.Call, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := r.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		for ob, info := range st {
			if info.aliases[obj] && !info.async {
				out := st.clone()
				ni := info.clone()
				ni.async = true
				out[ob] = ni
				st = out
			}
		}
		return true
	})
	return st
}

func (r *plRun) markEscape(st plFact, ob *poolOb, kind string, pos token.Pos) plFact {
	info := st[ob]
	if info.mayEsc {
		return st
	}
	out := st.clone()
	ni := info.clone()
	ni.mayEsc = true
	ni.escKind = kind
	ni.escPos = pos
	out[ob] = ni
	return out
}

// killObj removes obj from every alias set (the variable was rebound).
func (r *plRun) killObj(st plFact, obj types.Object) plFact {
	if obj == nil {
		return st
	}
	var out plFact
	for ob, info := range st {
		if !info.aliases[obj] {
			continue
		}
		if out == nil {
			out = st.clone()
		}
		ni := info.clone()
		delete(ni.aliases, obj)
		out[ob] = ni
	}
	if out == nil {
		return st
	}
	return out
}

// aliasOb resolves an expression to the obligation it carries: direct
// aliases plus address-of, dereference, slicing, and type-assertion
// wrappers (Put(&p), *pool.Get().(*[]byte), p[:0] all reach the same
// object). Field selections do not carry their base's obligation.
func (r *plRun) aliasOb(st plFact, e ast.Expr) *poolOb {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := r.pkg.Info.Uses[x]
		if obj == nil {
			return nil
		}
		for ob, info := range st {
			if info.aliases[obj] {
				return ob
			}
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return r.aliasOb(st, x.X)
		}
	case *ast.StarExpr:
		return r.aliasOb(st, x.X)
	case *ast.TypeAssertExpr:
		return r.aliasOb(st, x.X)
	case *ast.SliceExpr:
		return r.aliasOb(st, x.X)
	}
	return nil
}

// unwrapPooledCall peels parens, dereferences, and type assertions off
// an expression and returns the call underneath (the
// *pool.Get().(*[]byte) idiom), nil otherwise.
func unwrapPooledCall(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			return x
		default:
			return nil
		}
	}
}

// peelAddr strips a leading & so Put(&p) resolves to p.
func peelAddr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// trackablePoolParam reports whether a parameter's type can carry a
// pooled object worth summarizing: byte slices (record buffers) and
// pointers (pooled scratch structs). Seeding value types creates
// phantom obligations with no aliasing behavior worth tracking.
func trackablePoolParam(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Pointer:
		return true
	}
	return false
}
