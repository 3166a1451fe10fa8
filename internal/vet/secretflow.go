package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/vet/cfg"
)

// SecretFlow flags key material reaching observable sinks. The secure
// channel's privacy claim dies the moment a private key, ECDH shared
// secret, or derived session secret lands in a log line, an error
// string, or an unencrypted connection — all places developers
// reflexively put values while debugging. Sources are typed (ECDH /
// ECDSA private keys, parsed X.509 keys), named (the channel's
// master/session secret fields, hkdf derivation results), and
// propagate through arbitrarily deep module call chains via the
// call-graph summary fixpoint (summary.go). One-way transforms
// (HMACs, hashes, signatures) launder taint deliberately: a
// transcript MAC derived *from* the master secret is designed to be
// transmitted.
type SecretFlow struct {
	// Intraprocedural disables the deep summaries, leaving only the
	// std-library call model. Used by regression tests that pin what
	// the summaries buy — never enabled in the default suite.
	Intraprocedural bool
}

// Name implements Analyzer.
func (SecretFlow) Name() string { return "secret-flow" }

// Run implements Analyzer.
func (a SecretFlow) Run(m *module) []Diagnostic {
	pol := summaryPolicy{
		mkSpec: func(pkg *Package) *cfg.Spec {
			return &cfg.Spec{
				Info:     pkg.Info,
				SourceOf: func(e ast.Expr) (string, bool) { return secretSource(pkg, e) },
			}
		},
		sinkOf: func(pkg *Package, call *ast.CallExpr) (int, string) {
			if sink := leakSink(pkg, call); sink != "" {
				return 0, sink
			}
			return -1, ""
		},
		// priv.Bytes() is still the private key; everything else on a
		// key object (PublicKey, Public, Curve) is public, and one-way
		// crypto (hmac, hash sums) sanitizes by default.
		callTaint: func(pkg *Package, call *ast.CallExpr, recv *cfg.Source, args []*cfg.Source) *cfg.Source {
			fn, path := stdCallee(pkg, call)
			if fn == nil || recv == nil {
				return nil
			}
			if (path == "crypto/ecdh" || path == "crypto/ecdsa") && fn.Name() == "Bytes" {
				return recv
			}
			return nil
		},
		// Key material lives in byte slices, key structs and the
		// containers holding them — a call whose result is a plain
		// string/number/bool (DN(), Addr(), counters) or an error has
		// extracted something presentable, not the secret.
		resultOK: func(t types.Type) bool {
			if isErrType(t) {
				return false
			}
			_, basic := t.Underlying().(*types.Basic)
			return !basic
		},
		// A struct that holds a key somewhere taints as a container, but
		// projecting its non-secret fields (paths, certs, addresses)
		// does not extract the key; the genuinely secret projections are
		// re-tainted by secretSource at the field read itself.
		cutFieldProjection: true,
	}
	ss := emptySummaries(pol)
	if !a.Intraprocedural {
		ss = computeSummaries(m.graph(), pol)
	}
	return reportDeepFlows(m.pkgs, ss, a.Name(), nil, func(src *cfg.Source, what, fn string) string {
		return fmt.Sprintf("%s flows into %s in %s", src.Desc, what, fn)
	})
}

// secretFields are module struct fields that hold channel secrets.
var secretFields = map[string]bool{
	"master":        true,
	"masterSecret":  true,
	"sessionSecret": true,
	"sessionKey":    true,
}

// secretDerivers are module helpers whose results are key material.
var secretDerivers = map[string]bool{
	"hkdfExpand":    true,
	"directionKeys": true,
}

// secretSource recognizes expressions that yield key material.
func secretSource(pkg *Package, e ast.Expr) (string, bool) {
	// Typed sources: any value of a private-key type.
	if tv, ok := pkg.Info.Types[e]; ok && tv.IsValue() {
		if isNamed(tv.Type, "crypto/ecdh", "PrivateKey") {
			return "ECDH private key", true
		}
		if isNamed(tv.Type, "crypto/ecdsa", "PrivateKey") {
			return "ECDSA private key", true
		}
	}
	// Named field sources: the channel's stored secrets.
	if sel, ok := e.(*ast.SelectorExpr); ok && secretFields[sel.Sel.Name] {
		if f := fieldVar(pkg, sel); f != nil && f.Pkg() != nil && strings.HasPrefix(f.Pkg().Path(), "repro/") {
			return "channel secret " + f.Name(), true
		}
	}
	// Call sources: ECDH key agreement and key derivation helpers.
	if call, ok := e.(*ast.CallExpr); ok {
		if fn, path := stdCallee(pkg, call); fn != nil {
			if path == "crypto/ecdh" && fn.Name() == "ECDH" {
				return "ECDH shared secret", true
			}
			if path == "crypto/x509" && strings.HasPrefix(fn.Name(), "ParsePKCS8") {
				return "parsed PKCS#8 private key", true
			}
			if strings.HasPrefix(path, "repro/") && secretDerivers[fn.Name()] {
				return "derived key material (" + fn.Name() + ")", true
			}
		}
	}
	return "", false
}

// leakSink classifies a call whose arguments must never be secret:
// formatting/logging, error construction, and writes to a raw
// connection (anything net-typed — the securechan Conn encrypts and is
// not a net type).
func leakSink(pkg *Package, call *ast.CallExpr) string {
	fn, path := stdCallee(pkg, call)
	if fn == nil {
		return ""
	}
	switch path {
	case "fmt", "log", "log/slog":
		return path + "." + fn.Name()
	case "errors":
		if fn.Name() == "New" {
			return "errors.New"
		}
	}
	if strings.HasPrefix(path, "repro/") {
		switch fn.Name() {
		case "writeFrame", "writeHandshakeMsg":
			return "plaintext frame write (" + fn.Name() + ")"
		}
	}
	if fn.Name() == "Write" || fn.Name() == "WriteString" {
		if named := recvNamed(pkg, call); named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "net" {
			return "plaintext net.Conn write"
		}
	}
	return ""
}
