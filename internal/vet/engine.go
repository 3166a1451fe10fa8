package vet

import (
	"go/ast"
	"go/types"
)

// The analysis engine. One module per RunAll holds the deduplicated
// package set and its call graph, built on first use and shared by
// every analyzer of the run. The graph owns the module's declaration
// table and carries the three algorithms the interprocedural analyzers
// run on: Tarjan's strongly connected components, a bottom-up summary
// fixpoint over the condensation, and breadth-first reachability with
// provenance.

// module is the package set one RunAll analyzes.
type module struct {
	pkgs []*Package
	g    *callGraph
}

// newModule drops duplicate packages (the same directory named by two
// patterns), keeping first-seen order.
func newModule(pkgs []*Package) *module {
	m := &module{}
	seen := make(map[*Package]bool, len(pkgs))
	for _, p := range pkgs {
		if !seen[p] {
			seen[p] = true
			m.pkgs = append(m.pkgs, p)
		}
	}
	return m
}

// graph returns the module's call graph, building it on first use.
// Analyzers share it and must treat it as read-only.
func (m *module) graph() *callGraph {
	if m.g == nil {
		m.g = buildCallGraph(m.pkgs)
	}
	return m.g
}

// forEachFunc visits every function declaration with a body in
// (package, file, declaration) order. Function literals are reached
// through the declaration's body.
func forEachFunc(pkgs []*Package, visit func(pkg *Package, fd *ast.FuncDecl)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					visit(pkg, fd)
				}
			}
		}
	}
}

// callGraph approximates "running F can cause G to run" for every pair
// of module functions. Edges come from three places: static calls
// (direct function and method calls), interface method calls resolved
// against the method sets of every named module type that satisfies
// the interface, and calls issued inside `go`/`defer` statements and
// function literals, which are attributed to the enclosing declaration
// — the graph answers reachability, not synchronous call order.
// Analyzers that need synchronous order (lock-order, ctx-deadline)
// keep their own callee sets; those are subsets of these edges, so the
// condensation order still serves their fixpoints.
//
// The graph deliberately has no edges for bare function references
// (handler registration, callbacks stored in maps): those would
// over-connect the graph and drown flow-sensitive analyzers in
// spurious paths. Analyzers that care about a specific indirect call
// site (retry-safety and the ReconnectClient session factory) resolve
// that one reference themselves.
type callGraph struct {
	// decls maps every module function with a body to its declaration.
	// Because all packages of a run share one Loader, a method object
	// obtained from a call site in one package is pointer-identical to
	// the object recorded at its declaration in another.
	decls map[*types.Func]*declSite
	nodes []*types.Func // declaration order: package, file, decl
	succs map[*types.Func][]*types.Func

	// sccs is the Tarjan condensation. Because edges run caller →
	// callee, components complete in callee-first order — exactly the
	// order a bottom-up summary fixpoint needs.
	sccs [][]*types.Func
}

type declSite struct {
	pkg  *Package
	decl *ast.FuncDecl
}

func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		decls: make(map[*types.Func]*declSite),
		succs: make(map[*types.Func][]*types.Func),
	}
	forEachFunc(pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			g.decls[fn] = &declSite{pkg: pkg, decl: fd}
			g.nodes = append(g.nodes, fn)
		}
	})

	// Named module types, for resolving interface dispatch to the
	// concrete methods that might run.
	var named []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	implCache := make(map[*types.Func][]*types.Func)

	edges := make(map[*types.Func]map[*types.Func]bool)
	addEdge := func(from, to *types.Func) {
		if _, inModule := g.decls[to]; !inModule {
			return
		}
		m := edges[from]
		if m == nil {
			m = make(map[*types.Func]bool)
			edges[from] = m
		}
		if m[to] {
			return
		}
		m[to] = true
		g.succs[from] = append(g.succs[from], to)
	}

	for _, fn := range g.nodes {
		site := g.decls[fn]
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(site.pkg, call)
			if callee == nil {
				return true
			}
			if isAbstract(callee) {
				if _, cached := implCache[callee]; !cached {
					implCache[callee] = implementers(named, callee)
				}
				for _, impl := range implCache[callee] {
					addEdge(fn, impl)
				}
				return true
			}
			addEdge(fn, callee)
			return true
		})
	}
	g.sccs = tarjan(g.nodes, func(fn *types.Func) []*types.Func { return g.succs[fn] })
	return g
}

// calleeOf resolves a call expression to the function or method object
// it statically invokes. Calls through function values, builtins and
// conversions resolve to nil.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isAbstract reports whether fn is an interface method (no body
// anywhere — the call dispatches dynamically).
func isAbstract(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// implementers resolves an interface method to the concrete module
// methods that can satisfy it: every named non-interface type whose
// method set (value or pointer) implements the receiver interface
// contributes its method of the same name.
func implementers(named []*types.Named, absm *types.Func) []*types.Func {
	iface, ok := absm.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, n := range named {
		if types.IsInterface(n.Underlying()) {
			continue
		}
		t := types.Type(n)
		if !types.Implements(t, iface) {
			t = types.NewPointer(n)
			if !types.Implements(t, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, absm.Pkg(), absm.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}

// tarjan returns the strongly connected components of the graph given
// by nodes and succs, starting depth-first searches in nodes order.
// Components are appended as they complete, so they come successors
// first: reverse topological order of the condensation.
func tarjan[N comparable](nodes []N, succs func(N) []N) [][]N {
	index := make(map[N]int, len(nodes))
	low := make(map[N]int, len(nodes))
	onStack := make(map[N]bool)
	var stack []N
	var sccs [][]N
	next := 0

	var strongconnect func(v N)
	strongconnect = func(v N) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []N
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// bottomUp drives a summary fixpoint over the condensation: components
// callee-first, and within a component step runs over every member
// until a whole pass changes nothing. step recomputes one function's
// summary against the current summaries of its callees and reports
// whether it changed. Every summary only grows over a finite lattice,
// so each component converges; the pass bound is a safety valve.
func (g *callGraph) bottomUp(step func(site *declSite, fn *types.Func) bool) {
	for _, scc := range g.sccs {
		for pass := 0; pass < len(scc)*4+8; pass++ {
			changed := false
			for _, fn := range scc {
				if step(g.decls[fn], fn) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// reachableFrom walks the graph breadth-first from every function
// isRoot accepts and maps each reached function to the root it was
// first reached from (a root maps to itself). Roots are seeded in
// declaration order and the walk is FIFO, so the provenance is
// deterministic.
func (g *callGraph) reachableFrom(isRoot func(*types.Func) bool) map[*types.Func]*types.Func {
	from := make(map[*types.Func]*types.Func)
	var queue []*types.Func
	for _, fn := range g.nodes {
		if isRoot(fn) {
			from[fn] = fn
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.succs[v] {
			if _, seen := from[w]; !seen {
				from[w] = from[v]
				queue = append(queue, w)
			}
		}
	}
	return from
}
