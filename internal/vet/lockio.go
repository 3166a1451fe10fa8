package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/vet/cfg"
)

// LockOverIO flags mutexes held across blocking transport I/O. Holding
// a lock over a network round trip serializes every other caller
// behind a remote peer — or deadlocks outright when the peer's
// response needs the same lock. Blocking calls are net.Conn / tls.Conn
// reads and writes, the record-marking helpers (writeRecord,
// readRecord, writeFrame, readFrame), io.ReadFull/io.Copy, and RPC
// Call/CallCred on the oncrpc client.
//
// Intentional holds (e.g. a channel that must serialize frames to
// keep its cipher stream ordered) are recorded in .sgfsvet-ignore.
type LockOverIO struct {
	// Packages restricts the analyzer to these import paths; empty
	// means every package.
	Packages []string
}

// Name implements Analyzer.
func (LockOverIO) Name() string { return "lock-over-io" }

// blockingFuncs are package-level functions that block on the network.
var blockingFuncs = map[string]bool{
	"writeRecord": true,
	"readRecord":  true,
	"writeFrame":  true,
	"readFrame":   true,
}

// blockingMethods are method names that block when invoked on a
// network-ish receiver (see blockingReceiver).
var blockingMethods = map[string]bool{
	"Read":     true,
	"Write":    true,
	"Call":     true,
	"CallCred": true,
	"Accept":   true,
}

// Run implements Analyzer. Since v3 the analyzer runs a must-held
// dataflow over the cfg package's control-flow graph instead of the
// v1 ad-hoc walker: the fact is the set of mutexes held on every path
// into a node (intersection join), so a branch that conditionally
// unlocks before blocking I/O no longer reports. Function literals
// are separate graphs starting lock-free, reported under the
// enclosing declaration's name.
func (a LockOverIO) Run(m *module) []Diagnostic {
	var diags []Diagnostic
	for _, tgt := range taintTargets(m.pkgs) {
		if inPackages(tgt.pkg, a.Packages) {
			diags = append(diags, lockIOBody(tgt.pkg, tgt.decl, tgt.body)...)
		}
	}
	return diags
}

// heldFact is the must-held lock set: mutex name -> acquisition site.
type heldFact map[string]token.Pos

// lockIOBody runs the must-held analysis over one function body.
func lockIOBody(pkg *Package, fd *ast.FuncDecl, body *ast.BlockStmt) []Diagnostic {
	t := cfg.Transfer{
		Entry: heldFact{},
		Node: func(f cfg.Fact, n ast.Node) cfg.Fact {
			held := f.(heldFact)
			switch s := n.(type) {
			case *ast.ExprStmt:
				if _, name, locked, ok := lockOpOf(pkg, s.X); ok {
					out := make(heldFact, len(held)+1)
					for k, v := range held {
						out[k] = v
					}
					if locked {
						out[name] = s.Pos()
					} else {
						delete(out, name)
					}
					return out
				}
			case *ast.DeferStmt:
				// defer mu.Unlock(): held until the region ends.
				return held
			}
			return held
		},
		Join: func(a, b cfg.Fact) cfg.Fact {
			ha, hb := a.(heldFact), b.(heldFact)
			out := make(heldFact)
			for k, v := range ha {
				if _, ok := hb[k]; ok {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(a, b cfg.Fact) bool {
			ha, hb := a.(heldFact), b.(heldFact)
			if len(ha) != len(hb) {
				return false
			}
			for k := range ha {
				if _, ok := hb[k]; !ok {
					return false
				}
			}
			return true
		},
	}
	g := cfg.Build(body)
	in := cfg.Solve(g, t)

	var diags []Diagnostic
	cfg.Replay(g, t, in, func(f cfg.Fact, n ast.Node) {
		held := f.(heldFact)
		if len(held) == 0 {
			return
		}
		cfg.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || !isBlockingCall(pkg, call) {
				return true
			}
			names := make([]string, 0, len(held))
			for name := range held {
				names = append(names, name)
			}
			sort.Strings(names)
			diags = append(diags, Diagnostic{
				Analyzer: "lock-over-io",
				Pos:      pkg.Fset.Position(call.Pos()),
				Message: fmt.Sprintf("%s held across blocking call %s in %s",
					names[0], exprString(call.Fun), fd.Name.Name),
			})
			return true
		})
	})
	return diags
}

// isBlockingCall reports whether call can block on the network.
func isBlockingCall(pkg *Package, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return blockingFuncs[fun.Name]
	case *ast.SelectorExpr:
		// Package-qualified stdlib helpers.
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				p := pn.Imported().Path()
				if p == "io" {
					switch fun.Sel.Name {
					case "ReadFull", "ReadAtLeast", "Copy":
						return true
					}
				}
				return false
			}
		}
		if !blockingMethods[fun.Sel.Name] {
			return false
		}
		return blockingReceiver(pkg.Info.Types[fun.X].Type)
	}
	return false
}

// blockingReceiver reports whether a Read/Write/Call on this type goes
// to the network: net/tls connections and listeners, and this module's
// RPC client and secure-channel connection types.
func blockingReceiver(t types.Type) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	pkgPath, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch pkgPath {
	case "net", "crypto/tls":
		return true
	}
	switch name {
	case "Client", "Conn":
		return true
	}
	return false
}
