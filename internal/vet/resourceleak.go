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

// ResourceLeak is a CFG must-release analysis: a resource acquired in
// a function — a net.Conn, *os.File, secure-channel session, RPC
// client, or pool-acquired buffer — must be released on every path out
// of it, including error and early-return paths. "Released" means
// closed, returned to its pool, handed to the caller (returned),
// stored into a longer-lived structure, sent on a channel, captured by
// a goroutine/closure, or passed to a function whose summary releases
// or stores it. The per-function summaries (does this function release
// its argument? does it hand back a resource the caller now owns?) are
// computed bottom-up over the call-graph SCC condensation, so recGet /
// recPut style pool helpers and dial-then-wrap constructors compose.
//
// Precision choices, tuned to avoid false positives at the cost of
// missed leaks: passing an aliased resource to a standard-library or
// dynamically-dispatched call conservatively discharges the
// obligation, and the error object bound alongside an acquisition
// kills the obligation on the error-taken edge (the resource is nil
// there — there is nothing to close).
type ResourceLeak struct{}

// Name implements Analyzer.
func (ResourceLeak) Name() string { return "resource-leak" }

// Run implements Analyzer.
func (ResourceLeak) Run(m *module) []Diagnostic {
	ra := &resAnalysis{
		sums:     make(map[*types.Func]*resSummary),
		siteObs:  make(map[*ast.CallExpr]*obligation),
		paramObs: make(map[types.Object]*obligation),
	}
	m.graph().bottomUp(ra.summarize)

	var diags []Diagnostic
	for _, tgt := range taintTargets(m.pkgs) {
		diags = append(diags, ra.report(tgt)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	})
	return diags
}

// resSummary is one function's resource behavior.
type resSummary struct {
	// ReturnsResource: a return value carries an obligation acquired
	// inside the function — the caller now owns it.
	ReturnsResource bool
	ReturnDesc      string
	// ParamToReturn[i]: argument i comes back as (part of) a return
	// value — the caller's obligation transfers to the result.
	ParamToReturn []bool
	// ParamDone[i]: the function releases or stores argument i; the
	// caller's obligation is discharged.
	ParamDone []bool
	// RecvDone: the receiver is released or stored.
	RecvDone bool

	variadic bool
}

func newResSummary(sig *types.Signature) *resSummary {
	n := sig.Params().Len()
	return &resSummary{
		ParamToReturn: make([]bool, n),
		ParamDone:     make([]bool, n),
		variadic:      sig.Variadic(),
	}
}

func (s *resSummary) equal(o *resSummary) bool {
	if o == nil {
		return false
	}
	if s.ReturnsResource != o.ReturnsResource || s.ReturnDesc != o.ReturnDesc || s.RecvDone != o.RecvDone {
		return false
	}
	for i := range s.ParamDone {
		if s.ParamDone[i] != o.ParamDone[i] || s.ParamToReturn[i] != o.ParamToReturn[i] {
			return false
		}
	}
	return true
}

func (s *resSummary) argIndex(i int) int {
	if i < len(s.ParamDone) {
		return i
	}
	if s.variadic && len(s.ParamDone) > 0 {
		return len(s.ParamDone) - 1
	}
	return -1
}

// obligation identifies one tracked resource: an acquisition call site
// or, during summary computation, a parameter marker.
type obligation struct {
	pos   token.Pos
	desc  string
	param int          // parameter index for markers, -1 otherwise
	recv  bool         // receiver marker
	obj   types.Object // the marker's parameter object, nil otherwise
}

// obInfo is an obligation's per-path state: the variables currently
// referring to the resource, and the error object bound at the
// acquisition (nil-resource detection on error edges).
type obInfo struct {
	aliases map[types.Object]bool
	errObj  types.Object
}

func (i *obInfo) clone() *obInfo {
	c := &obInfo{aliases: make(map[types.Object]bool, len(i.aliases)), errObj: i.errObj}
	for o := range i.aliases {
		c.aliases[o] = true
	}
	return c
}

// obFact is the dataflow fact: live obligations. Treated as immutable;
// every mutation copies.
type obFact map[*obligation]*obInfo

func (f obFact) clone() obFact {
	c := make(obFact, len(f))
	for ob, info := range f {
		c[ob] = info
	}
	return c
}

func joinOb(a, b cfg.Fact) cfg.Fact {
	fa, fb := a.(obFact), b.(obFact)
	if len(fb) == 0 {
		return fa
	}
	if len(fa) == 0 {
		return fb
	}
	out := fa.clone()
	for ob, info := range fb {
		have, ok := out[ob]
		if !ok {
			out[ob] = info
			continue
		}
		merged := have
		for o := range info.aliases {
			if !merged.aliases[o] {
				if merged == have {
					merged = have.clone()
				}
				merged.aliases[o] = true
			}
		}
		out[ob] = merged
	}
	return out
}

func equalOb(a, b cfg.Fact) bool {
	fa, fb := a.(obFact), b.(obFact)
	if len(fa) != len(fb) {
		return false
	}
	for ob, ia := range fa {
		ib, ok := fb[ob]
		if !ok || len(ia.aliases) != len(ib.aliases) {
			return false
		}
		for o := range ia.aliases {
			if !ib.aliases[o] {
				return false
			}
		}
	}
	return true
}

// resAnalysis is the module-wide state: computed summaries plus
// interned obligations (state convergence requires one obligation
// object per site, not one per transfer evaluation).
type resAnalysis struct {
	sums     map[*types.Func]*resSummary
	siteObs  map[*ast.CallExpr]*obligation
	paramObs map[types.Object]*obligation
}

func (ra *resAnalysis) siteOb(call *ast.CallExpr, desc string) *obligation {
	ob := ra.siteObs[call]
	if ob == nil {
		ob = &obligation{pos: call.Pos(), desc: desc, param: -1}
		ra.siteObs[call] = ob
	}
	return ob
}

func (ra *resAnalysis) paramOb(obj types.Object, index int, recv bool) *obligation {
	ob := ra.paramObs[obj]
	if ob == nil {
		ob = &obligation{pos: obj.Pos(), desc: "parameter " + obj.Name(), param: index, recv: recv, obj: obj}
		ra.paramObs[obj] = ob
	}
	return ob
}

// summarize recomputes fn's resource summary; reports change.
func (ra *resAnalysis) summarize(site *declSite, fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	old := ra.sums[fn]
	cur := newResSummary(sig)

	r := &resRun{ra: ra, pkg: site.pkg, fnName: fn.Name(), sum: cur}
	entry := obFact{}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if p := params.At(i); p != nil && trackableParam(p.Type()) {
			ob := ra.paramOb(p, i, false)
			entry[ob] = &obInfo{aliases: map[types.Object]bool{p: true}}
		}
	}
	if rv := sig.Recv(); rv != nil {
		ob := ra.paramOb(rv, -1, true)
		entry[ob] = &obInfo{aliases: map[types.Object]bool{rv: true}}
	}
	g := cfg.Build(site.decl.Body)
	cfg.Solve(g, r.transfer(entry))

	if cur.equal(old) {
		return false
	}
	ra.sums[fn] = cur
	return true
}

// report runs the must-release analysis over one function body and
// returns a diagnostic per leaked acquisition.
func (ra *resAnalysis) report(tgt taintTarget) []Diagnostic {
	r := &resRun{ra: ra, pkg: tgt.pkg, fnName: tgt.decl.Name.Name}
	g := cfg.Build(tgt.body)
	t := r.transfer(obFact{})
	in := cfg.Solve(g, t)

	leaks := make(map[*obligation]token.Pos)
	note := func(ob *obligation, at token.Pos) {
		if ob.param >= 0 || ob.recv {
			return
		}
		if _, seen := leaks[ob]; !seen {
			leaks[ob] = at
		}
	}
	cfg.Replay(g, t, in, func(f cfg.Fact, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		st := f.(obFact)
		returned := r.returnedObs(st, ret)
		for ob := range st {
			if !returned[ob] {
				note(ob, ret.Pos())
			}
		}
	})
	// The return transfer clears every obligation, so the exit block's
	// in-state holds only what leaked by falling off the end.
	if f, ok := in[g.Exit]; ok {
		for ob := range f.(obFact) {
			note(ob, tgt.body.End())
		}
	}

	var diags []Diagnostic
	for ob, at := range leaks {
		diags = append(diags, Diagnostic{
			Analyzer: "resource-leak",
			Pos:      tgt.pkg.Fset.Position(ob.pos),
			Message: fmt.Sprintf("%s in %s is not released on every path (leaks at line %d)",
				ob.desc, r.fnName, tgt.pkg.Fset.Position(at).Line),
		})
	}
	return diags
}

// resRun analyzes one function body, in summary mode (sum != nil,
// parameter markers seeded) or reporting mode.
type resRun struct {
	ra     *resAnalysis
	pkg    *Package
	fnName string
	sum    *resSummary // nil in reporting mode
}

func (r *resRun) transfer(entry obFact) cfg.Transfer {
	return cfg.Transfer{
		Entry: entry,
		Node:  func(f cfg.Fact, n ast.Node) cfg.Fact { return r.node(f.(obFact), n) },
		Edge:  func(f cfg.Fact, e cfg.Edge) cfg.Fact { return r.edge(f.(obFact), e) },
		Join:  joinOb,
		Equal: equalOb,
	}
}

func (r *resRun) node(st obFact, n ast.Node) obFact {
	switch s := n.(type) {
	case *ast.AssignStmt:
		st = r.calls(st, n)
		return r.assign(st, s)
	case *ast.DeclStmt:
		st = r.calls(st, n)
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					st = r.valueSpec(st, vs)
				}
			}
		}
		return st
	case *ast.ReturnStmt:
		st = r.calls(st, n)
		return r.ret(st, s)
	case *ast.SendStmt:
		// ch <- conn: ownership crosses the channel.
		st = r.calls(st, n)
		if ob := r.aliasObOf(st, s.Value); ob != nil {
			st = r.discharge(st, ob)
		}
		return st
	default:
		return r.calls(st, n)
	}
}

// calls applies release/escape events from every call and closure in
// the node: closing methods, releasing callees (by summary), handoffs
// to code the analysis cannot see, and closure captures.
func (r *resRun) calls(st obFact, n ast.Node) obFact {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			// A closure that can release or hand off an alias takes the
			// obligation out of this function's hands (defer/go cleanup
			// bodies). A closure that only invokes benign methods on it
			// (a deadline-restore func) does not.
			ast.Inspect(x.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := r.pkg.Info.Uses[id]; obj != nil {
						if ob := r.obOfObj(st, obj); ob != nil && r.closureDisposes(x.Body, obj) {
							st = r.discharge(st, ob)
						}
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			st = r.callEvent(st, x)
		}
		return true
	})
	return st
}

// callEvent applies one call's effect on the live obligations.
func (r *resRun) callEvent(st obFact, call *ast.CallExpr) obFact {
	fun := ast.Unparen(call.Fun)
	if tv, ok := r.pkg.Info.Types[fun]; ok && tv.IsType() {
		return st // conversion
	}

	// A call that never returns ends the process: no code after it runs
	// on this path, so its live obligations cannot leak.
	if r.noReturn(call) {
		return obFact{}
	}

	// Receiver: x.Close() / x.conn.Close() style releases, and module
	// methods whose summary releases their receiver.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, isSel := r.pkg.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			if ob := r.aliasObOf(st, sel.X); ob != nil {
				if closingName(sel.Sel.Name) {
					st = r.discharge(st, ob)
				} else if fn := calleeOf(r.pkg, call); fn != nil {
					if sum := r.ra.sums[fn]; sum != nil && sum.RecvDone {
						st = r.discharge(st, ob)
					}
				}
			}
		}
	}

	// Builtin append stores the value into a slice the caller owns.
	if id, ok := fun.(*ast.Ident); ok {
		if b, isB := r.pkg.Info.Uses[id].(*types.Builtin); isB {
			if b.Name() == "append" {
				for _, arg := range call.Args[min(1, len(call.Args)):] {
					if ob := r.aliasObOf(st, arg); ob != nil {
						st = r.discharge(st, ob)
					}
				}
			}
			return st
		}
	}

	// Arguments.
	fn := calleeOf(r.pkg, call)
	var sum *resSummary
	if fn != nil {
		sum = r.ra.sums[fn]
	}
	for i, arg := range call.Args {
		// Passing a bound release method (st.onClose(conn.Close)) hands
		// the release capability to the callee: ownership transferred.
		if mv, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
			if s, isSel := r.pkg.Info.Selections[mv]; isSel && s.Kind() == types.MethodVal && closingName(mv.Sel.Name) {
				if ob := r.aliasObOf(st, mv.X); ob != nil {
					st = r.discharge(st, ob)
					continue
				}
			}
		}
		ob := r.aliasObOf(st, arg)
		if ob == nil {
			continue
		}
		switch {
		case sum != nil:
			// Module callee with a computed summary: precise. A
			// pass-through parameter is NOT discharged here — the
			// assignment/return handling transfers the obligation onto
			// the result instead.
			if j := sum.argIndex(i); j >= 0 && sum.ParamDone[j] && !sum.ParamToReturn[j] {
				st = r.discharge(st, ob)
			}
		case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Put":
			st = r.discharge(st, ob)
		default:
			// Standard library, interface dispatch, or a dynamic call:
			// conservatively assume the callee takes ownership.
			st = r.discharge(st, ob)
		}
	}
	return st
}

func (r *resRun) assign(st obFact, as *ast.AssignStmt) obFact {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return st // compound assignment: no resource movement
	}
	if len(as.Lhs) != len(as.Rhs) && len(as.Rhs) == 1 {
		// Tuple form: conn, err := acquire().
		if call := unwrapCall(as.Rhs[0]); call != nil {
			if desc, ok := r.acquire(st, call); ok {
				ob := r.ra.siteOb(call, desc)
				info := &obInfo{aliases: make(map[types.Object]bool)}
				for _, l := range as.Lhs {
					obj := identObj(r.pkg, l)
					if obj == nil {
						continue
					}
					if isErrType(obj.Type()) {
						info.errObj = obj
						continue
					}
					st = r.killObj(st, obj)
					info.aliases[obj] = true
				}
				out := st.clone()
				out[ob] = info
				return out
			}
			if ob := r.callResultOb(st, call); ob != nil {
				// The callee hands an argument's resource back: results
				// join the argument's alias set.
				out := st.clone()
				info := out[ob].clone()
				for _, l := range as.Lhs {
					if obj := identObj(r.pkg, l); obj != nil && !isErrType(obj.Type()) {
						st = r.killObj(st, obj)
						info.aliases[obj] = true
					}
				}
				out = st.clone()
				out[ob] = info
				return out
			}
		}
		for _, l := range as.Lhs {
			st = r.killAliasTarget(st, l)
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

func (r *resRun) valueSpec(st obFact, vs *ast.ValueSpec) obFact {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		if call := unwrapCall(vs.Values[0]); call != nil {
			if desc, ok := r.acquire(st, call); ok {
				ob := r.ra.siteOb(call, desc)
				info := &obInfo{aliases: make(map[types.Object]bool)}
				for _, name := range vs.Names {
					obj := identObj(r.pkg, name)
					if obj == nil {
						continue
					}
					if isErrType(obj.Type()) {
						info.errObj = obj
						continue
					}
					info.aliases[obj] = true
				}
				out := st.clone()
				out[ob] = info
				return out
			}
		}
		return st
	}
	for i, name := range vs.Names {
		if i < len(vs.Values) {
			st = r.assign1(st, name, vs.Values[i])
		}
	}
	return st
}

// assign1 handles one lhs = rhs pair.
func (r *resRun) assign1(st obFact, lhs, rhs ast.Expr) obFact {
	obj := identObj(r.pkg, lhs)
	if call := unwrapCall(rhs); call != nil {
		if desc, ok := r.acquire(st, call); ok {
			if obj == nil {
				// Acquired straight into a field/container: stored, owned
				// by the structure.
				return st
			}
			st = r.killObj(st, obj)
			out := st.clone()
			out[r.ra.siteOb(call, desc)] = &obInfo{aliases: map[types.Object]bool{obj: true}}
			return out
		}
		if ob := r.callResultOb(st, call); ob != nil && obj != nil {
			st = r.killObj(st, obj)
			out := st.clone()
			info := out[ob].clone()
			info.aliases[obj] = true
			out[ob] = info
			return out
		}
	}
	if ob := r.aliasObOf(st, rhs); ob != nil {
		if obj != nil {
			st = r.killObj(st, obj)
			out := st.clone()
			info := out[ob].clone()
			info.aliases[obj] = true
			out[ob] = info
			return out
		}
		// Stored into a field, slice element, map entry, or global:
		// the structure owns it now.
		return r.discharge(st, ob)
	}
	if obj != nil {
		st = r.killObj(st, obj)
	}
	return st
}

// ret handles a return statement: returned resources transfer to the
// caller; in summary mode that sets the pass-through/ownership bits.
// Everything else is cleared so the exit block's in-state isolates
// fall-off-the-end leaks (reporting inspects the pre-return state).
func (r *resRun) ret(st obFact, ret *ast.ReturnStmt) obFact {
	if r.sum != nil {
		for _, res := range ret.Results {
			if call := unwrapCall(res); call != nil {
				if desc, ok := r.acquire(st, call); ok {
					r.sum.ReturnsResource = true
					if r.sum.ReturnDesc == "" {
						r.sum.ReturnDesc = desc
					}
					continue
				}
			}
			ob := r.aliasObOf(st, res)
			if ob == nil {
				if call := unwrapCall(res); call != nil {
					// return wrap(x): the callee passes x's obligation
					// through to the value being returned here.
					ob = r.callResultOb(st, call)
				}
			}
			if ob == nil {
				continue
			}
			switch {
			case ob.recv:
				// Returning the receiver (chaining) — not a transfer.
			case ob.param >= 0:
				r.sum.ParamToReturn[ob.param] = true
			default:
				r.sum.ReturnsResource = true
				if r.sum.ReturnDesc == "" {
					r.sum.ReturnDesc = ob.desc
				}
			}
		}
	}
	return obFact{}
}

// returnedObs lists the obligations whose resource a return statement
// hands to the caller (reporting mode's leak check subtracts them).
func (r *resRun) returnedObs(st obFact, ret *ast.ReturnStmt) map[*obligation]bool {
	out := make(map[*obligation]bool)
	for _, res := range ret.Results {
		if ob := r.aliasObOf(st, res); ob != nil {
			out[ob] = true
		} else if call := unwrapCall(res); call != nil {
			if ob := r.callResultOb(st, call); ob != nil {
				out[ob] = true
			}
		}
	}
	return out
}

// edge kills obligations proven absent by a branch: on the edge where
// the acquisition's error is non-nil (the resource is nil), and on the
// edge where an alias itself compares equal to nil.
func (r *resRun) edge(st obFact, e cfg.Edge) obFact {
	if len(st) == 0 {
		return st
	}
	return r.refine(st, e.Cond, e.Val)
}

func (r *resRun) refine(st obFact, cond ast.Expr, val bool) obFact {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return r.refine(st, c.X, !val)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if val {
				return r.refine(r.refine(st, c.X, true), c.Y, true)
			}
		case token.LOR:
			if !val {
				return r.refine(r.refine(st, c.X, false), c.Y, false)
			}
		case token.EQL, token.NEQ:
			obj, isNilCmp := nilComparand(r.pkg, c)
			if !isNilCmp || obj == nil {
				return st
			}
			if objIsNil := (c.Op == token.EQL) == val; objIsNil {
				// An alias proven nil carries nothing to release. No
				// summary note: checking nil is not releasing.
				for ob, info := range st {
					if info.aliases[obj] {
						out := st.clone()
						delete(out, ob)
						st = out
					}
				}
			} else {
				// obj is non-nil here; if it is an acquisition's paired
				// error, the resource itself is nil on this edge.
				for ob, info := range st {
					if info.errObj == obj {
						st = r.discharge(st, ob)
					}
				}
			}
			return st
		}
	}
	return st
}

// nilComparand extracts the non-nil side's object from `x == nil` /
// `x != nil`.
func nilComparand(pkg *Package, c *ast.BinaryExpr) (types.Object, bool) {
	isNil := func(e ast.Expr) bool {
		tv, ok := pkg.Info.Types[ast.Unparen(e)]
		return ok && tv.IsNil()
	}
	if isNil(c.Y) {
		return identObj(pkg, c.X), true
	}
	if isNil(c.X) {
		return identObj(pkg, c.Y), true
	}
	return nil, false
}

// discharge removes an obligation; in summary mode, discharging a
// parameter marker records that the function disposes of that
// argument.
func (r *resRun) discharge(st obFact, ob *obligation) obFact {
	if r.sum != nil {
		if ob.recv {
			r.sum.RecvDone = true
		} else if ob.param >= 0 {
			r.sum.ParamDone[ob.param] = true
		}
	}
	if _, live := st[ob]; !live {
		return st
	}
	out := st.clone()
	delete(out, ob)
	return out
}

// killObj removes obj from every alias set (the variable was rebound).
// An obligation whose last alias disappears stays live — it can no
// longer be released and will be reported at the function's exits.
func (r *resRun) killObj(st obFact, obj types.Object) obFact {
	if obj == nil {
		return st
	}
	var out obFact
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

func (r *resRun) killAliasTarget(st obFact, lhs ast.Expr) obFact {
	if obj := identObj(r.pkg, lhs); obj != nil && !isErrType(obj.Type()) {
		return r.killObj(st, obj)
	}
	return st
}

// obOfObj finds the live obligation obj is an alias of, if any.
func (r *resRun) obOfObj(st obFact, obj types.Object) *obligation {
	if obj == nil {
		return nil
	}
	for ob, info := range st {
		if info.aliases[obj] {
			return ob
		}
	}
	return nil
}

// aliasObOf resolves an expression to the obligation it carries:
// direct aliases, address-of, slicing/type-assertion wrappers, and
// composite literals that embed an alias (wrapping a conn in a struct
// moves the obligation onto the wrapper).
func (r *resRun) aliasObOf(st obFact, e ast.Expr) *obligation {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return r.obOfObj(st, r.pkg.Info.Uses[x])
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return r.aliasObOf(st, x.X)
		}
	case *ast.StarExpr:
		return r.aliasObOf(st, x.X)
	case *ast.TypeAssertExpr:
		return r.aliasObOf(st, x.X)
	case *ast.SliceExpr:
		return r.aliasObOf(st, x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if ob := r.aliasObOf(st, el); ob != nil {
				return ob
			}
		}
	case *ast.CallExpr:
		// wrap(x) embedded in a larger expression still carries x's
		// obligation when the callee passes it through.
		return r.callResultOb(st, x)
	}
	return nil
}

// callResultOb reports the argument obligation a call passes back to
// its results, per the callee's summary.
func (r *resRun) callResultOb(st obFact, call *ast.CallExpr) *obligation {
	fn := calleeOf(r.pkg, call)
	if fn == nil {
		return nil
	}
	sum := r.ra.sums[fn]
	if sum == nil {
		return nil
	}
	for i, arg := range call.Args {
		if j := sum.argIndex(i); j >= 0 && sum.ParamToReturn[j] {
			if ob := r.aliasObOf(st, arg); ob != nil {
				return ob
			}
		}
	}
	return nil
}

// acquire classifies a call as acquiring an owned resource: standard
// library dial/open/accept/pool-get calls, module functions whose
// summary hands a resource to the caller, and dynamic calls through
// function values whose declared result is a resource type (session
// factories stored in fields).
func (r *resRun) acquire(st obFact, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := r.pkg.Info.Types[fun]; ok && tv.IsType() {
		return "", false
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := r.pkg.Info.Uses[id].(*types.Builtin); isB {
			return "", false
		}
	}
	fn, path := stdCallee(r.pkg, call)
	if fn != nil {
		switch path {
		case "net":
			switch fn.Name() {
			case "Dial", "DialTimeout", "Listen", "ListenPacket", "FileConn",
				"Accept", "AcceptTCP", "AcceptUnix":
				return "net." + fn.Name() + " result", true
			}
		case "os":
			switch fn.Name() {
			case "Open", "Create", "OpenFile", "CreateTemp":
				return "os." + fn.Name() + " result", true
			}
		case "sync":
			if fn.Name() == "Get" {
				if named := recvNamed(r.pkg, call); named != nil && named.Obj().Name() == "Pool" {
					return "pool buffer", true
				}
			}
		}
		if sum := r.ra.sums[fn]; sum != nil && sum.ReturnsResource {
			// Only treat it as a fresh acquisition when no argument's
			// obligation is being passed through instead.
			if r.callResultOb(st, call) == nil {
				desc := sum.ReturnDesc
				if desc == "" {
					desc = fn.Name() + " result"
				}
				return desc, true
			}
		}
		return "", false
	}
	if tv, ok := r.pkg.Info.Types[call]; ok {
		t := tv.Type
		if tup, ok := t.(*types.Tuple); ok {
			if tup.Len() == 0 {
				return "", false
			}
			t = tup.At(0).Type()
		}
		if desc, ok := resourceDesc(t); ok {
			return desc + " (dynamic call)", true
		}
	}
	return "", false
}

// noReturn recognizes calls that terminate the process or goroutine.
func (r *resRun) noReturn(call *ast.CallExpr) bool {
	return noReturnCall(r.pkg, call)
}

// noReturnCall recognizes calls that terminate the process or
// goroutine: log.Fatal*, os.Exit, runtime.Goexit, and the panic
// builtin. No code after one runs on its path.
func noReturnCall(pkg *Package, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB {
			return b.Name() == "panic"
		}
	}
	fn, path := stdCallee(pkg, call)
	if fn == nil {
		return false
	}
	switch path {
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal")
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	}
	return false
}

// closureDisposes reports whether a function literal's body does
// anything with obj beyond calling non-closing methods on it: passing
// it to a call, storing it, returning it, or closing it all count as
// disposing of the obligation.
func (r *resRun) closureDisposes(body ast.Node, obj types.Object) bool {
	benign := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || closingName(sel.Sel.Name) {
			return true
		}
		ast.Inspect(sel.X, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				benign[id] = true
			}
			return true
		})
		return true
	})
	disposes := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || benign[id] {
			return true
		}
		if r.pkg.Info.Uses[id] == obj {
			disposes = true
		}
		return true
	})
	return disposes
}

// trackableParam reports whether a parameter's type can carry a
// release obligation worth summarizing: resource types themselves and
// byte slices (pool buffers). Seeding anything else (ints, configs)
// creates phantom obligations that confuse alias transfer.
func trackableParam(t types.Type) bool {
	if _, ok := resourceDesc(t); ok {
		return true
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
			return true
		}
	}
	// Unnamed interfaces with closing-ish methods (io.Closer and
	// friends) can hold a resource too.
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if closingName(iface.Method(i).Name()) {
				return true
			}
		}
	}
	return false
}

// resourceDesc classifies a type as an owned resource.
func resourceDesc(t types.Type) (string, bool) {
	switch tt := t.(type) {
	case *types.Pointer:
		n := namedType(tt.Elem())
		if n == nil || n.Obj().Pkg() == nil {
			return "", false
		}
		switch n.Obj().Pkg().Path() {
		case "os":
			if n.Obj().Name() == "File" {
				return "open file", true
			}
		case "net":
			return "network connection", true
		case "repro/internal/securechan":
			if n.Obj().Name() == "Conn" {
				return "secure channel", true
			}
		case "repro/internal/oncrpc":
			switch n.Obj().Name() {
			case "Client", "ReconnectClient":
				return "RPC client", true
			}
		}
	case *types.Named:
		o := tt.Obj()
		if o.Pkg() != nil && o.Pkg().Path() == "net" {
			switch o.Name() {
			case "Conn", "Listener", "PacketConn":
				return "network connection", true
			}
		}
	}
	return "", false
}

// closingName reports whether a method name is a release by
// convention, wherever it is defined.
func closingName(name string) bool {
	switch name {
	case "Close", "Shutdown", "Stop", "Release", "Put", "CloseRead", "CloseWrite", "Unmount":
		return true
	}
	return false
}

// unwrapCall peels parens and type assertions off an expression and
// returns the call underneath, nil otherwise.
func unwrapCall(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
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

// identObj resolves a plain identifier target to its object; selector,
// index and star targets yield nil (they are container stores).
func identObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := pkg.Info.Defs[id]; o != nil {
		return o
	}
	return pkg.Info.Uses[id]
}

// isErrType reports whether t is the error interface.
func isErrType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
