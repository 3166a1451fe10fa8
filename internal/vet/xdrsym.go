package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// XDRSymmetry verifies that every type defining both EncodeXDR and
// DecodeXDR (or the lowercase enc/dec helper pair) performs the same
// sequence of wire operations on both sides: same XDR primitives, same
// fields, same order, under structurally matching conditionals, loops
// and switches. Drift between the two methods silently corrupts the
// protocol — the proxies forward kernel-NFS traffic byte for byte, so
// nothing downstream would notice a skewed field until data is lost.
//
// The comparison is over a canonical event tree:
//
//   - prim:<Name>   a call of an xdr.Encoder/Decoder primitive
//   - opt           OptionalBegin / OptionalPresent discriminant
//   - msg           delegation to a nested EncodeXDR/DecodeXDR/enc/dec
//   - cond          an if statement guarding wire operations
//   - loop/listloop counted and optional-terminated sequences
//   - switch        a discriminated union
//
// Guard-only branches (status checks that merely return, decoder
// error checks, length validation) emit no events and are dropped, so
// the two sides are compared on what they actually put on the wire.
// Field operands are compared by final selector name when both sides
// expose one; operands routed through locals or len() are structural
// only.
type XDRSymmetry struct{}

// Name implements Analyzer.
func (XDRSymmetry) Name() string { return "xdr-symmetry" }

// xdrPair collects the two directions of one wire type.
type xdrPair struct {
	pkg  *Package
	recv string
	enc  *ast.FuncDecl
	dec  *ast.FuncDecl
}

// Run implements Analyzer.
func (XDRSymmetry) Run(m *module) []Diagnostic {
	type key struct {
		pkg  *Package
		recv string
	}
	pairs := make(map[key]*xdrPair)
	forEachFunc(m.pkgs, func(pkg *Package, fd *ast.FuncDecl) {
		if fd.Recv == nil || len(fd.Recv.List) != 1 {
			return
		}
		recv := recvTypeName(fd.Recv.List[0].Type)
		if recv == "" {
			return
		}
		var encode bool
		switch fd.Name.Name {
		case "EncodeXDR", "enc":
			encode = true
		case "DecodeXDR", "dec":
		default:
			return
		}
		p := pairs[key{pkg, recv}]
		if p == nil {
			p = &xdrPair{pkg: pkg, recv: recv}
			pairs[key{pkg, recv}] = p
		}
		if encode {
			p.enc = fd
		} else {
			p.dec = fd
		}
	})
	var diags []Diagnostic
	for _, p := range pairs {
		if p.enc == nil || p.dec == nil {
			continue
		}
		encEvs := extractSide(p.enc, encodeSide)
		decEvs := extractSide(p.dec, decodeSide)
		if msg := compareEvents(encEvs, decEvs, p.pkg.Fset); msg != "" {
			diags = append(diags, Diagnostic{
				Analyzer: "xdr-symmetry",
				Pos:      p.pkg.Fset.Position(p.dec.Pos()),
				Message:  fmt.Sprintf("%s: EncodeXDR/DecodeXDR disagree: %s", p.recv, msg),
			})
		}
	}
	return diags
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	}
	return ""
}

// wire event kinds
const (
	evPrim     = "prim"
	evOpt      = "opt"
	evMsg      = "msg"
	evCond     = "cond"
	evLoop     = "loop"
	evListLoop = "listloop"
	evSwitch   = "switch"
	evCase     = "case"
)

type wireEvent struct {
	kind  string
	name  string // primitive name, normalized condition, switch tag, case labels
	field string // final selector name of the operand, "" when unknown
	pos   token.Pos
	sub   []wireEvent // cond/loop/case bodies, switch cases
	alt   []wireEvent // else branch of cond
}

func (e wireEvent) describe() string {
	switch e.kind {
	case evPrim:
		if e.field != "" {
			return fmt.Sprintf("%s(%s)", e.name, e.field)
		}
		return e.name
	case evOpt:
		return "optional-discriminant"
	case evMsg:
		if e.field != "" {
			return fmt.Sprintf("nested encode/decode of %s", e.field)
		}
		return "nested encode/decode"
	case evCond:
		return fmt.Sprintf("if %s", e.name)
	case evLoop:
		return "loop"
	case evListLoop:
		return "optional-terminated list"
	case evSwitch:
		return fmt.Sprintf("switch %s", e.name)
	case evCase:
		return fmt.Sprintf("case %s", e.name)
	}
	return e.kind
}

type sideKind int

const (
	encodeSide sideKind = iota
	decodeSide
)

// extractor walks one method body producing its canonical event tree.
type extractor struct {
	side  sideKind
	codec string // encoder/decoder parameter name
	recv  string // receiver variable name
}

func extractSide(fd *ast.FuncDecl, side sideKind) []wireEvent {
	ex := &extractor{side: side}
	if names := fd.Recv.List[0].Names; len(names) == 1 {
		ex.recv = names[0].Name
	}
	if params := fd.Type.Params; params != nil && len(params.List) >= 1 && len(params.List[0].Names) == 1 {
		ex.codec = params.List[0].Names[0].Name
	}
	return ex.stmts(fd.Body.List)
}

// stmts canonicalizes a statement list.
func (ex *extractor) stmts(list []ast.Stmt) []wireEvent {
	var out []wireEvent
	for i := 0; i < len(list); i++ {
		switch s := list[i].(type) {
		case *ast.IfStmt:
			if s.Init != nil {
				out = append(out, ex.exprEvents(s.Init)...)
			}
			body := ex.stmts(s.Body.List)
			var alt []wireEvent
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					alt = ex.stmts(e.List)
				default:
					alt = ex.stmts([]ast.Stmt{e})
				}
			}
			if len(body) == 0 && len(alt) == 0 {
				continue // guard with no wire effect
			}
			out = append(out, wireEvent{kind: evCond, name: ex.normExpr(s.Cond), pos: s.Pos(), sub: body, alt: alt})
		case *ast.ForStmt:
			if s.Init != nil {
				out = append(out, ex.exprEvents(s.Init)...)
			}
			sub := ex.stmts(s.Body.List)
			if ex.isOptionalPresent(s.Cond) {
				out = append(out, wireEvent{kind: evListLoop, pos: s.Pos(), sub: sub})
				continue
			}
			out = append(out, ex.loopEvent(s.Pos(), sub, list, &i))
		case *ast.RangeStmt:
			sub := ex.stmts(s.Body.List)
			out = append(out, ex.loopEvent(s.Pos(), sub, list, &i))
		case *ast.SwitchStmt:
			if s.Init != nil {
				out = append(out, ex.exprEvents(s.Init)...)
			}
			var cases []wireEvent
			if s.Body != nil {
				for _, cs := range s.Body.List {
					cc, ok := cs.(*ast.CaseClause)
					if !ok {
						continue
					}
					body := ex.stmts(cc.Body)
					if len(body) == 0 {
						continue // empty arm has no wire effect
					}
					labels := make([]string, len(cc.List))
					for j, l := range cc.List {
						labels[j] = ex.normExpr(l)
					}
					name := strings.Join(labels, ",")
					if len(cc.List) == 0 {
						name = "default"
					}
					cases = append(cases, wireEvent{kind: evCase, name: name, pos: cc.Pos(), sub: body})
				}
			}
			tag := ""
			if s.Tag != nil {
				tag = ex.normExpr(s.Tag)
			}
			if len(cases) > 0 {
				out = append(out, wireEvent{kind: evSwitch, name: tag, pos: s.Pos(), sub: cases})
			}
		case *ast.BlockStmt:
			out = append(out, ex.stmts(s.List)...)
		default:
			out = append(out, ex.exprEvents(s)...)
		}
	}
	return out
}

// loopEvent classifies a loop: one whose first wire event is an
// optional-true discriminant is a list loop; its paired trailing
// OptionalBegin(false) terminator is consumed from the enclosing
// statement list.
func (ex *extractor) loopEvent(pos token.Pos, sub []wireEvent, list []ast.Stmt, i *int) wireEvent {
	if len(sub) > 0 && sub[0].kind == evOpt && sub[0].field == "true" {
		sub = sub[1:]
		if *i+1 < len(list) {
			next := ex.exprEvents(list[*i+1])
			if len(next) == 1 && next[0].kind == evOpt && next[0].field == "false" {
				*i++
			}
		}
		return wireEvent{kind: evListLoop, pos: pos, sub: sub}
	}
	return wireEvent{kind: evLoop, pos: pos, sub: sub}
}

// isOptionalPresent recognizes `for d.OptionalPresent() { ... }`.
func (ex *extractor) isOptionalPresent(cond ast.Expr) bool {
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == ex.codec && sel.Sel.Name == "OptionalPresent"
}

// exprEvents extracts the wire events of a single non-branching
// statement, in evaluation order.
func (ex *extractor) exprEvents(n ast.Node) []wireEvent {
	var out []wireEvent
	ast.Inspect(n, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == ex.codec && ex.codec != "" {
			out = append(out, ex.primEvent(sel.Sel.Name, call)...)
			return true
		}
		switch sel.Sel.Name {
		case "EncodeXDR", "DecodeXDR", "enc", "dec":
			if len(call.Args) == 1 {
				if arg, ok := call.Args[0].(*ast.Ident); ok && arg.Name == ex.codec {
					out = append(out, wireEvent{kind: evMsg, name: "msg", field: lastFieldName(sel.X), pos: call.Pos()})
				}
			}
		}
		return true
	})
	// A single primitive whose operand was not visible in the call
	// itself inherits it from the assignment target (decode side:
	// `a.Offset = d.Uint64()`).
	if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(out) == 1 &&
		out[0].kind == evPrim && out[0].field == "" {
		out[0].field = lastFieldName(as.Lhs[0])
	}
	return out
}

// primEvent maps one Encoder/Decoder method call to events.
func (ex *extractor) primEvent(name string, call *ast.CallExpr) []wireEvent {
	switch name {
	case "Err", "SetErr":
		return nil // no wire effect
	case "OptionalBegin", "OptionalPresent":
		field := ""
		if len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok && (id.Name == "true" || id.Name == "false") {
				field = id.Name
			}
		}
		return []wireEvent{{kind: evOpt, field: field, pos: call.Pos()}}
	case "OpaqueInto":
		name = "Opaque" // wire-identical read variant
	case "BoundedOpaque":
		// Wire-identical to Opaque; the argument is a length bound,
		// not a field operand.
		return []wireEvent{{kind: evPrim, name: "Opaque", pos: call.Pos()}}
	}
	field := ""
	if ex.side == encodeSide && len(call.Args) >= 1 {
		field = lastFieldName(call.Args[0])
	} else if ex.side == decodeSide && len(call.Args) >= 1 {
		// e.g. d.FixedOpaque(r.Verf[:]) decodes into its argument.
		field = lastFieldName(call.Args[0])
	}
	return []wireEvent{{kind: evPrim, name: name, field: field, pos: call.Pos()}}
}

// lastFieldName reduces an operand expression to the final struct
// field it touches, or "" when none is syntactically visible.
func lastFieldName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			// Unwrap single-argument conversions (uint32(v),
			// Status(...)); built-ins like len/append hide the operand.
			if len(x.Args) != 1 {
				return ""
			}
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "len" || fn.Name == "append" || fn.Name == "make" || fn.Name == "copy" || fn.Name == "cap" {
					return ""
				}
			case *ast.SelectorExpr:
				// qualified conversion like nfs3.Status(v)
			default:
				return ""
			}
			e = x.Args[0]
		case *ast.SelectorExpr:
			return x.Sel.Name
		default:
			return ""
		}
	}
}

// normExpr renders an expression canonically: the receiver variable
// becomes "recv" so the two sides compare even when their receivers
// are named differently.
func (ex *extractor) normExpr(e ast.Expr) string {
	var b strings.Builder
	ex.writeExpr(&b, e)
	return b.String()
}

func (ex *extractor) writeExpr(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == ex.recv && ex.recv != "" {
			b.WriteString("recv")
		} else {
			b.WriteString(x.Name)
		}
	case *ast.SelectorExpr:
		ex.writeExpr(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.BinaryExpr:
		ex.writeExpr(b, x.X)
		b.WriteString(x.Op.String())
		ex.writeExpr(b, x.Y)
	case *ast.UnaryExpr:
		b.WriteString(x.Op.String())
		ex.writeExpr(b, x.X)
	case *ast.ParenExpr:
		ex.writeExpr(b, x.X)
	case *ast.BasicLit:
		b.WriteString(x.Value)
	case *ast.CallExpr:
		ex.writeExpr(b, x.Fun)
		b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			ex.writeExpr(b, a)
		}
		b.WriteByte(')')
	case *ast.IndexExpr:
		ex.writeExpr(b, x.X)
		b.WriteString("[]")
	case *ast.SliceExpr:
		ex.writeExpr(b, x.X)
		b.WriteString("[:]")
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

// compareEvents reports the first structural divergence between the
// two sides, or "" when symmetric.
func compareEvents(enc, dec []wireEvent, fset *token.FileSet) string {
	n := len(enc)
	if len(dec) < n {
		n = len(dec)
	}
	for i := 0; i < n; i++ {
		if msg := compareOne(enc[i], dec[i], fset); msg != "" {
			return msg
		}
	}
	if len(enc) > n {
		return fmt.Sprintf("encoder performs %s (%s) with no decoder counterpart",
			enc[n].describe(), fset.Position(enc[n].pos))
	}
	if len(dec) > n {
		return fmt.Sprintf("decoder performs %s (%s) with no encoder counterpart",
			dec[n].describe(), fset.Position(dec[n].pos))
	}
	return ""
}

func compareOne(e, d wireEvent, fset *token.FileSet) string {
	mismatch := func() string {
		return fmt.Sprintf("encoder %s (%s) vs decoder %s (%s)",
			e.describe(), fset.Position(e.pos), d.describe(), fset.Position(d.pos))
	}
	if e.kind != d.kind {
		return mismatch()
	}
	switch e.kind {
	case evPrim:
		if e.name != d.name {
			return mismatch()
		}
		if e.field != "" && d.field != "" && e.field != d.field &&
			e.field != "true" && e.field != "false" {
			return mismatch()
		}
	case evMsg:
		if e.field != "" && d.field != "" && e.field != d.field {
			return mismatch()
		}
	case evOpt:
		// discriminant matches structurally
	case evCond:
		if e.name != d.name {
			return mismatch()
		}
		if msg := compareEvents(e.sub, d.sub, fset); msg != "" {
			return msg
		}
		if msg := compareEvents(e.alt, d.alt, fset); msg != "" {
			return msg
		}
	case evLoop, evListLoop:
		if msg := compareEvents(e.sub, d.sub, fset); msg != "" {
			return msg
		}
	case evSwitch:
		if e.name != d.name {
			return mismatch()
		}
		dc := make(map[string]wireEvent, len(d.sub))
		for _, c := range d.sub {
			dc[c.name] = c
		}
		for _, c := range e.sub {
			dcase, ok := dc[c.name]
			if !ok {
				return fmt.Sprintf("encoder %s (%s) has no decoder arm", c.describe(), fset.Position(c.pos))
			}
			delete(dc, c.name)
			if msg := compareEvents(c.sub, dcase.sub, fset); msg != "" {
				return msg
			}
		}
		for _, c := range dc {
			return fmt.Sprintf("decoder %s (%s) has no encoder arm", c.describe(), fset.Position(c.pos))
		}
	}
	return ""
}
