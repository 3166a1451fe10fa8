package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder builds a static lock-acquisition graph over the whole
// module and reports cycles as potential deadlocks. A directed edge
// A -> B means some function acquires mutex B while holding mutex A —
// either directly in one body, or by calling (through any chain of
// direct, synchronous calls) a function that acquires B. Mutexes are
// identified by struct field (pkg.Type.field) or package-level
// variable; locals and parameters have no cross-function identity and
// are ignored.
//
// The walker is async-aware: function literals and `go`-spawned calls
// run outside the spawner's critical section, so they contribute
// acquisition contexts of their own instead of inheriting held locks.
// Calls through function values, interfaces without a unique static
// callee, or reflection are not followed; a cycle closed only through
// such an edge is invisible. RLock is treated like Lock (a writer
// between two readers still deadlocks), and re-acquisition of the
// same key through a call chain is not reported — self-deadlocks are
// indistinguishable from benign lock/unlock/relock sequences at this
// precision.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lock-order" }

// lockEdge records "to is acquired while from is held".
type lockEdge struct {
	from, to string
	pos      token.Position
	detail   string
}

// Run implements Analyzer.
func (LockOrder) Run(m *module) []Diagnostic {
	g := m.graph()

	// Facts from one pass over every function body and every function
	// literal (each literal is its own acquisition context).
	directAcq := make(map[*types.Func]map[string]bool)
	callees := make(map[*types.Func]map[*types.Func]bool) // synchronous calls only
	type heldCall struct {
		held   []string
		callee *types.Func
		pos    token.Position
		fun    string
	}
	var heldCalls []heldCall
	var edges []lockEdge

	var walkContext func(pkg *Package, owner *types.Func, body *ast.BlockStmt)
	walkContext = func(pkg *Package, owner *types.Func, body *ast.BlockStmt) {
		var lits []*ast.FuncLit
		keyByName := make(map[string]string)
		w := &lockWalker{pkg: pkg, async: true}
		w.onFuncLit = func(lit *ast.FuncLit) { lits = append(lits, lit) }
		w.onLock = func(sel *ast.SelectorExpr, name string, pos token.Pos, held map[string]token.Pos) {
			key := lockKeyOf(pkg, sel.X)
			if key == "" {
				return
			}
			keyByName[name] = key
			if owner != nil {
				set := directAcq[owner]
				if set == nil {
					set = make(map[string]bool)
					directAcq[owner] = set
				}
				set[key] = true
			}
			for heldName := range held {
				hk := keyByName[heldName]
				if hk == "" || hk == key {
					continue
				}
				edges = append(edges, lockEdge{
					from:   hk,
					to:     key,
					pos:    pkg.Fset.Position(pos),
					detail: fmt.Sprintf("%s acquired while %s is held", shortKey(key), shortKey(hk)),
				})
			}
		}
		w.onCall = func(call *ast.CallExpr, held map[string]token.Pos) {
			callee := calleeOf(pkg, call)
			if callee == nil {
				return
			}
			if _, ok := g.decls[callee]; !ok {
				return
			}
			if owner != nil {
				set := callees[owner]
				if set == nil {
					set = make(map[*types.Func]bool)
					callees[owner] = set
				}
				set[callee] = true
			}
			if len(held) == 0 {
				return
			}
			var hks []string
			for name := range held {
				if k := keyByName[name]; k != "" {
					hks = append(hks, k)
				}
			}
			if len(hks) > 0 {
				heldCalls = append(heldCalls, heldCall{
					held:   hks,
					callee: callee,
					pos:    pkg.Fset.Position(call.Pos()),
					fun:    exprString(call.Fun),
				})
			}
		}
		w.walkBody(body)
		for _, lit := range lits {
			walkContext(pkg, nil, lit.Body)
		}
	}
	forEachFunc(m.pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		owner, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		walkContext(pkg, owner, fd.Body)
	})

	// Close acquisition sets over the synchronous calls bottom-up (a
	// monotone union, so the order of the passes cannot change the
	// result), then turn every call-under-lock into edges to the
	// callee's full set.
	transAcq := make(map[*types.Func]map[string]bool, len(directAcq))
	for fn, keys := range directAcq {
		set := make(map[string]bool, len(keys))
		for k := range keys {
			set[k] = true
		}
		transAcq[fn] = set
	}
	g.bottomUp(func(_ *declSite, fn *types.Func) bool {
		changed := false
		for callee := range callees[fn] {
			for k := range transAcq[callee] {
				set := transAcq[fn]
				if set == nil {
					set = make(map[string]bool)
					transAcq[fn] = set
				}
				if !set[k] {
					set[k] = true
					changed = true
				}
			}
		}
		return changed
	})
	for _, hc := range heldCalls {
		for k := range transAcq[hc.callee] {
			for _, from := range hc.held {
				if from == k {
					continue
				}
				edges = append(edges, lockEdge{
					from:   from,
					to:     k,
					pos:    hc.pos,
					detail: fmt.Sprintf("call to %s acquires %s while %s is held", hc.fun, shortKey(k), shortKey(from)),
				})
			}
		}
	}

	// One representative edge per (from, to), earliest position wins.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.detail < b.detail
	})
	byPair := make(map[[2]string]lockEdge)
	var order [][2]string
	for _, e := range edges {
		pair := [2]string{e.from, e.to}
		if _, ok := byPair[pair]; !ok {
			byPair[pair] = e
			order = append(order, pair)
		}
	}

	return lockCycleDiagnostics(byPair, order)
}

// lockCycleDiagnostics finds strongly connected components of the lock
// graph and emits one diagnostic per cyclic component.
func lockCycleDiagnostics(byPair map[[2]string]lockEdge, order [][2]string) []Diagnostic {
	adj := make(map[string][]string)
	nodeSet := make(map[string]bool)
	for _, pair := range order {
		adj[pair[0]] = append(adj[pair[0]], pair[1])
		nodeSet[pair[0]] = true
		nodeSet[pair[1]] = true
	}
	var nodes []string
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	sccs := tarjan(nodes, func(n string) []string { return adj[n] })

	var diags []Diagnostic
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		var cycleEdges []lockEdge
		for _, pair := range order {
			if inSCC[pair[0]] && inSCC[pair[1]] {
				cycleEdges = append(cycleEdges, byPair[pair])
			}
		}
		sort.Slice(cycleEdges, func(i, j int) bool {
			if cycleEdges[i].from != cycleEdges[j].from {
				return cycleEdges[i].from < cycleEdges[j].from
			}
			return cycleEdges[i].to < cycleEdges[j].to
		})
		pos := cycleEdges[0].pos
		var parts []string
		for _, e := range cycleEdges {
			if posLess(e.pos, pos) {
				pos = e.pos
			}
			parts = append(parts, fmt.Sprintf("%s [%s:%d]", e.detail, filepath.Base(e.pos.Filename), e.pos.Line))
		}
		short := make([]string, len(scc))
		for i, n := range scc {
			short[i] = shortKey(n)
		}
		diags = append(diags, Diagnostic{
			Analyzer: "lock-order",
			Pos:      pos,
			Message: fmt.Sprintf("potential deadlock: lock-order cycle among %s: %s",
				strings.Join(short, ", "), strings.Join(parts, "; ")),
		})
	}
	return diags
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
