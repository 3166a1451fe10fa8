package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/vet/cfg"
)

// WeakRand flags math/rand values flowing into cryptographic
// material: nonces, padding, keys, or handshake inputs. math/rand is
// deterministic and seedable — an eavesdropper who recovers the seed
// recovers every "random" byte, which breaks the channel's privacy
// claim outright. Sinks are arguments to crypto/* functions, to module
// key-derivation/signing helpers (hkdf/derive/mac/sign/seal/encrypt),
// and assignments into secret-named variables or fields. Values
// converted to time.Duration are classified benign at the conversion:
// backoff jitter (oncrpc reconnect) is exactly what math/rand is for.
// Module call chains propagate through the call-graph summary fixpoint
// (summary.go).
type WeakRand struct{}

// Name implements Analyzer.
func (WeakRand) Name() string { return "weak-rand" }

// Run implements Analyzer.
func (a WeakRand) Run(m *module) []Diagnostic {
	base := func(pkg *Package) *cfg.Spec {
		return &cfg.Spec{
			Info:     pkg.Info,
			SourceOf: func(e ast.Expr) (string, bool) { return mathRandSource(pkg, e) },
			Conversion: func(to types.Type, src *cfg.Source) *cfg.Source {
				if isNamed(to, "time", "Duration") {
					return nil // backoff jitter, the legitimate use
				}
				return src
			},
		}
	}
	pol := summaryPolicy{
		mkSpec: base,
		sinkOf: func(pkg *Package, call *ast.CallExpr) (int, string) {
			sink, fill := cryptoSink(pkg, call)
			if sink == "" || fill {
				return -1, ""
			}
			return 0, sink
		},
	}
	ss := computeSummaries(m.graph(), pol)

	var diags []Diagnostic
	for _, tgt := range taintTargets(m.pkgs) {
		tgt := tgt
		pkg := tgt.pkg
		spec := base(pkg)
		spec.CallTaint = ss.callTaintFor(pkg)
		report := func(pos ast.Node, src *cfg.Source, sink string) {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name(),
				Pos:      pkg.Fset.Position(pos.Pos()),
				Message: fmt.Sprintf("%s flows into %s in %s; cryptographic material needs crypto/rand",
					src.Desc, sink, tgt.decl.Name.Name),
			})
		}
		spec.Sink = func(n ast.Node, taintOf func(ast.Expr) *cfg.Source) {
			// Assignments into secret-named variables or fields.
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
				for i := range as.Lhs {
					name := lhsName(pkg, as.Lhs[i])
					if !secretName(name) {
						continue
					}
					if src := taintOf(as.Rhs[i]); src != nil {
						report(as, src, name)
					}
				}
			}
			cfg.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sink, fill := cryptoSink(pkg, call); fill && sink != "" {
					// rand.Read(buf): the *argument* is filled with weak
					// bytes; flag secret-named destinations.
					for _, arg := range call.Args {
						if name := lhsName(pkg, arg); secretName(name) {
							report(call, &cfg.Source{Pos: call.Pos(), Desc: "math/rand.Read output"}, name)
						}
					}
					return true
				}
				// Direct crypto sinks plus module helpers whose summary
				// forwards an argument into one.
				ss.forCallSinks(pkg, call, taintOf, func(src *cfg.Source, what string) {
					report(call, src, what)
				})
				return true
			})
		}
		cfg.Run(tgt.body, spec)
	}
	return diags
}

// mathRandSource recognizes calls into math/rand (v1 and v2, package
// functions and *rand.Rand methods alike).
func mathRandSource(pkg *Package, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn, path := stdCallee(pkg, call)
	if fn == nil {
		return "", false
	}
	if path == "math/rand" || path == "math/rand/v2" {
		return "math/rand." + fn.Name(), true
	}
	return "", false
}

// cryptoSink classifies a call as a weak-rand sink: crypto/* package
// functions, module derivation/signing helpers, or (fill=true) a
// math/rand.Read that writes weak bytes into its argument.
func cryptoSink(pkg *Package, call *ast.CallExpr) (sink string, fill bool) {
	fn, path := stdCallee(pkg, call)
	if fn == nil {
		return "", false
	}
	if (path == "math/rand" || path == "math/rand/v2") && fn.Name() == "Read" {
		return "math/rand.Read", true
	}
	if path == "crypto" || strings.HasPrefix(path, "crypto/") {
		return path + "." + fn.Name(), false
	}
	lower := strings.ToLower(fn.Name())
	for _, kw := range []string{"hkdf", "derive", "mac", "seal", "sign", "encrypt", "finished"} {
		if strings.Contains(lower, kw) {
			return fn.Name(), false
		}
	}
	return "", false
}

// lhsName names an assignment target or buffer argument: the variable
// or field identifier behind selectors, slices and address-taking.
func lhsName(pkg *Package, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.SliceExpr:
		return lhsName(pkg, x.X)
	case *ast.IndexExpr:
		return lhsName(pkg, x.X)
	case *ast.StarExpr:
		return lhsName(pkg, x.X)
	case *ast.UnaryExpr:
		return lhsName(pkg, x.X)
	}
	return ""
}

// secretName reports whether an identifier names cryptographic
// material.
func secretName(name string) bool {
	if name == "" {
		return false
	}
	l := strings.ToLower(name)
	if l == "iv" || l == "key" {
		return true
	}
	for _, kw := range []string{"nonce", "secret", "salt", "pad"} {
		if strings.Contains(l, kw) {
			return true
		}
	}
	return strings.HasSuffix(l, "key")
}
