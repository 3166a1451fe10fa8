package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ReplayTableSync keeps idempotency classification tables in lock-step
// with the protocol they classify. A package-level map variable
// annotated with
//
//	//sgfsvet:replay-table <import-path>
//
// (or `.` for the annotated table's own package) must enumerate, as
// keys, every Proc* constant the named package declares — no more, no
// less. The reconnect layer's replay decision reads this table; a
// procedure missing from it silently falls into one class or the
// other when the protocol grows, which is exactly the bug this
// analyzer exists to make impossible.
//
// The analyzer checks key *identity* (which constants appear), not
// the chosen classification — whether a procedure is idempotent is a
// protocol judgement the table's review history owns.
type ReplayTableSync struct{}

// Name implements Analyzer.
func (ReplayTableSync) Name() string { return "replay-table-sync" }

const replayDirective = "//sgfsvet:replay-table"

// Run implements Analyzer.
func (ReplayTableSync) Run(m *module) []Diagnostic {
	var diags []Diagnostic
	forEachReplayTable(m.pkgs, func(pkg *Package, vs *ast.ValueSpec, target string) {
		checkReplayTable(pkg, vs, target, func(n ast.Node, msg string) {
			diags = append(diags, Diagnostic{
				Analyzer: "replay-table-sync",
				Pos:      pkg.Fset.Position(n.Pos()),
				Message:  msg,
			})
		})
	})
	return diags
}

// forEachReplayTable visits every //sgfsvet:replay-table annotated
// value spec in the module with the directive's target import path.
func forEachReplayTable(pkgs []*Package, visit func(pkg *Package, vs *ast.ValueSpec, target string)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if target, ok := replayTarget(gd, vs); ok {
						visit(pkg, vs, target)
					}
				}
			}
		}
	}
}

// replayTarget extracts the directive's import path from the doc
// comments attached to the declaration or the spec.
func replayTarget(gd *ast.GenDecl, vs *ast.ValueSpec) (string, bool) {
	for _, cg := range []*ast.CommentGroup{gd.Doc, vs.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, replayDirective); ok {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

func checkReplayTable(pkg *Package, vs *ast.ValueSpec, target string, report func(ast.Node, string)) {
	name := "table"
	if len(vs.Names) > 0 {
		name = vs.Names[0].Name
	}

	// Resolve the package whose Proc* constants define the universe.
	var scope *types.Scope
	var targetPkg *types.Package
	if target == "." || target == "" {
		targetPkg = pkg.Types
	} else {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == target {
				targetPkg = imp
				break
			}
		}
	}
	if targetPkg == nil {
		report(vs, fmt.Sprintf("replay-table directive on %s references %s, which this file does not import", name, target))
		return
	}
	scope = targetPkg.Scope()

	if len(vs.Values) != 1 {
		report(vs, fmt.Sprintf("replay-table directive on %s must annotate a map composite literal", name))
		return
	}
	lit, ok := ast.Unparen(vs.Values[0]).(*ast.CompositeLit)
	if !ok {
		report(vs, fmt.Sprintf("replay-table directive on %s must annotate a map composite literal", name))
		return
	}
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		report(vs, fmt.Sprintf("replay-table directive on %s must annotate a map composite literal", name))
		return
	}

	present := make(map[string]bool)
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		obj := constKeyObj(pkg, kv.Key)
		if obj == nil || obj.Pkg() != targetPkg || !strings.HasPrefix(obj.Name(), "Proc") {
			report(kv.Key, fmt.Sprintf("replay table %s key %s is not a %s procedure constant",
				name, exprString(kv.Key), targetPkg.Name()))
			continue
		}
		present[obj.Name()] = true
	}

	var missing []string
	for _, cname := range scope.Names() {
		if !strings.HasPrefix(cname, "Proc") {
			continue
		}
		c, ok := scope.Lookup(cname).(*types.Const)
		if !ok || !c.Exported() {
			continue
		}
		if !present[cname] {
			missing = append(missing, cname)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		report(vs, fmt.Sprintf("replay table %s is missing %s procedure constants: %s",
			name, targetPkg.Name(), strings.Join(missing, ", ")))
	}
}

// constKeyObj resolves a map key expression to the constant object it
// names, if any.
func constKeyObj(pkg *Package, e ast.Expr) *types.Const {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		c, _ := pkg.Info.Uses[x].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := pkg.Info.Uses[x.Sel].(*types.Const)
		return c
	}
	return nil
}
