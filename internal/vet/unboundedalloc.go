package vet

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/vet/cfg"
)

// UnboundedAlloc flags wire-decoded integers that reach an allocation
// size with no dominating bound check — the decode-DoS class: a remote
// peer supplies a length word and the server calls make with it before
// comparing it against anything. Taint starts at xdr.Decoder.Uint32 /
// Uint64 and encoding/binary byte-order reads (record-marking
// lengths), propagates through module call chains via the call-graph
// summary fixpoint (summary.go) and through struct fields that any
// decoder assigns from the wire, and is sanitized by a branch that
// compares the value against an untainted bound (`if n > maxFrame {
// ... }`, `if count > PreferredIO { count = PreferredIO }`). The same
// bound checks sanitize parameters during summary computation, so a
// helper that clamps its argument before allocating summarizes as
// safe. Sinks are make sizes, io.CopyN lengths and io.ReadAtLeast
// minimums.
type UnboundedAlloc struct {
	// Intraprocedural disables the deep summaries (regression tests
	// only; see SecretFlow.Intraprocedural).
	Intraprocedural bool
}

// Name implements Analyzer.
func (UnboundedAlloc) Name() string { return "unbounded-alloc" }

// Run implements Analyzer.
func (a UnboundedAlloc) Run(m *module) []Diagnostic {
	pol := summaryPolicy{
		mkSpec: func(pkg *Package) *cfg.Spec {
			return &cfg.Spec{
				Info:           pkg.Info,
				SourceOf:       func(e ast.Expr) (string, bool) { return wireLengthSource(pkg, e) },
				BoundSanitizer: true,
			}
		},
		sinkOf: func(pkg *Package, call *ast.CallExpr) (int, string) {
			return allocSink(pkg, call)
		},
		// Length taint rides on integers. A constructor that decodes a
		// size while building a *File does not return "a length" — only
		// integer-valued calls carry the taint to their callers.
		resultOK: isIntegerType,
	}

	// Pass A: per-function summaries — who returns wire-decoded
	// values, whose parameters reach allocation sites unclamped.
	ss := emptySummaries(pol)
	if !a.Intraprocedural {
		ss = computeSummaries(m.graph(), pol)
	}

	// Pass B: integer struct fields assigned from the wire anywhere in
	// the module (DecodeXDR filling h.Count) carry taint into every
	// function that reads them.
	fields := cfg.State{}
	for _, tgt := range taintTargets(m.pkgs) {
		tgt := tgt
		pkg := tgt.pkg
		spec := pol.mkSpec(pkg)
		spec.CallTaint = ss.callTaintFor(pkg)
		spec.Sink = func(n ast.Node, taintOf func(ast.Expr) *cfg.Source) {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return
			}
			record := func(lhs ast.Expr, src *cfg.Source) {
				if src == nil {
					return
				}
				f := fieldVar(pkg, lhs)
				if f == nil || !isIntegerType(f.Type()) {
					return
				}
				if _, seen := fields[f]; !seen {
					fields[f] = &cfg.Source{
						Pos:  f.Pos(),
						Desc: fmt.Sprintf("wire-decoded field %s.%s", f.Pkg().Name(), f.Name()),
					}
				}
			}
			if len(as.Lhs) == len(as.Rhs) {
				for i := range as.Lhs {
					record(as.Lhs[i], taintOf(as.Rhs[i]))
				}
			} else {
				src := taintOf(as.Rhs[0])
				for _, l := range as.Lhs {
					record(l, src)
				}
			}
		}
		cfg.Run(tgt.body, spec)
	}

	// Pass C: report sinks, with wire-filled fields seeded everywhere.
	return reportDeepFlows(m.pkgs, ss, a.Name(), fields,
		func(src *cfg.Source, what, fn string) string {
			return fmt.Sprintf("%s reaches %s without a bound check in %s", src.Desc, what, fn)
		})
}

// wireLengthSource recognizes expressions that yield an
// attacker-controlled integer: xdr.Decoder.Uint32/Uint64 and
// encoding/binary byte-order reads.
func wireLengthSource(pkg *Package, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn, path := stdCallee(pkg, call)
	if fn == nil {
		return "", false
	}
	switch path {
	case "repro/internal/xdr":
		switch fn.Name() {
		case "Uint32", "Uint64":
			if named := recvNamed(pkg, call); named != nil && named.Obj().Name() == "Decoder" {
				return "xdr-decoded length (Decoder." + fn.Name() + ")", true
			}
		}
	case "encoding/binary":
		switch fn.Name() {
		case "Uint16", "Uint32", "Uint64":
			return "wire length (binary." + fn.Name() + ")", true
		}
	}
	return "", false
}

// allocSink reports the index of the first size argument when call is
// an allocation-ish sink, with a description; -1 otherwise.
func allocSink(pkg *Package, call *ast.CallExpr) (int, string) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
			return 1, "make size"
		}
	}
	fn, path := stdCallee(pkg, call)
	if fn == nil || path != "io" {
		return -1, ""
	}
	switch fn.Name() {
	case "CopyN":
		return 2, "io.CopyN length"
	case "ReadAtLeast":
		return 2, "io.ReadAtLeast minimum"
	}
	return -1, ""
}

// fieldVar resolves an assignment target to the struct field it
// writes, nil for anything else.
func fieldVar(pkg *Package, lhs ast.Expr) *types.Var {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
