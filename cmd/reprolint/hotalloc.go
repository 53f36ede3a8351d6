package main

// hotalloc: functions annotated //repro:noalloc are verified allocation-free,
// transitively through module-internal calls. PR 8 proved the compact
// validation path runs at 0 allocs/op on the benchmark rig; this check turns
// that into a build-time invariant by walking the call graph from each
// annotated function and flagging every allocation site reachable through
// calls that actually execute (static and interface-dispatch edges; reference
// edges are excluded because storing a func value does not run it, and spawn
// edges because the goroutine's allocations are its own).
//
// Flagged sites: make/new/append and the printing builtins, slice and map
// composite literals, map-index assignment (may trigger growth), non-constant
// string concatenation, string<->[]byte/[]rune conversions, implicit
// conversion to interface of non-pointer-shaped values (boxing), closures
// that capture enclosing variables, go statements, calls into fmt, calls to
// external packages reprolint cannot verify (sync/atomic, math/bits, and
// unsafe are trusted), and indirect calls through func values.
//
// An annotated callee is a composition barrier: it is trusted at its call
// sites and verified separately at its own declaration.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

var hotAllocAnalyzer = &Analyzer{
	Name:      "hotalloc",
	Doc:       "//repro:noalloc functions must be allocation-free transitively through module-internal calls",
	RunModule: runHotAlloc,
}

// allocSite is one allocation inside a single function body.
type allocSite struct {
	pos  token.Pos
	desc string
}

// trustedPkgs are external packages hotalloc accepts calls into: none of
// their exported functions allocate.
var trustedPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"unsafe":      true,
}

func runHotAlloc(m *ModulePass) {
	g := m.Graph

	modulePkgs := make(map[string]bool, len(m.Pkgs))
	for _, p := range m.Pkgs {
		modulePkgs[p.Path] = true
	}

	annotated := make(map[*funcNode]bool)
	for _, n := range g.nodes {
		if n.obj != nil && m.Facts.NoallocFuncs[n.obj.FullName()] {
			annotated[n] = true
		}
	}
	if len(annotated) == 0 {
		return
	}

	sites := make(map[*funcNode][]allocSite, len(g.nodes))
	for _, n := range g.nodes {
		if n.body != nil {
			sites[n] = allocSitesIn(m, g, n, modulePkgs)
		}
	}

	// Bottom-up: a function has a witness if it allocates itself or calls a
	// non-annotated function that does. Annotated callees are barriers.
	own := make(map[*funcNode]*witness)
	for n, ss := range sites {
		if len(ss) > 0 {
			own[n] = &witness{pos: ss[0].pos, desc: ss[0].desc}
		}
	}
	allocates := g.firstWitness(own, annotated)

	for _, n := range g.nodes {
		if !annotated[n] || n.body == nil {
			continue
		}
		for _, s := range sites[n] {
			m.Reportf(s.pos, "hot path %s: %s", n.name, s.desc)
		}
		reported := make(map[token.Pos]bool)
		for _, e := range n.out {
			if !e.runs() || annotated[e.callee] || reported[e.pos] {
				continue
			}
			w := allocates[e.callee]
			if w == nil {
				continue
			}
			reported[e.pos] = true
			m.Reportf(e.pos, "hot path %s calls %s, which allocates (%s)", n.name, e.callee.name, w.detail(m.Fset))
		}
	}
}

// allocSitesIn walks one function body (nested literals excluded — they are
// their own nodes) and records every allocation site.
func allocSitesIn(m *ModulePass, g *CallGraph, n *funcNode, modulePkgs map[string]bool) []allocSite {
	p := n.pkg
	var out []allocSite
	add := func(pos token.Pos, desc string) {
		out = append(out, allocSite{pos: pos, desc: desc})
	}

	ast.Inspect(n.body, func(nd ast.Node) bool {
		switch t := nd.(type) {
		case *ast.FuncLit:
			if closureCaptures(p, n, t) {
				add(t.Pos(), "closure captures enclosing variables and allocates")
			}
			return false
		case *ast.GoStmt:
			add(t.Pos(), "go statement allocates")
		case *ast.CompositeLit:
			typ := typeOfIn(p, t)
			if typ != nil {
				switch typ.Underlying().(type) {
				case *types.Slice:
					add(t.Pos(), "slice literal allocates")
					return false
				case *types.Map:
					add(t.Pos(), "map literal allocates")
					return false
				}
			}
		case *ast.BinaryExpr:
			if t.Op == token.ADD {
				if tv, ok := p.Info.Types[t]; ok && tv.Value == nil && isStringType(tv.Type) {
					add(t.OpPos, "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			scanAssign(p, t, add)
		case *ast.ReturnStmt:
			scanReturn(p, n, t, add)
		case *ast.SendStmt:
			if ct := typeOfIn(p, t.Chan); ct != nil {
				if ch, ok := ct.Underlying().(*types.Chan); ok {
					checkBox(p, t.Value, ch.Elem(), add)
				}
			}
		case *ast.CallExpr:
			if id, ok := unparen(t.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := objForIdent(p, id).(*types.Builtin); isBuiltin {
					return false // cold unwind path: a panic may allocate its argument
				}
			}
			scanCall(m, g, n, t, modulePkgs, add)
		}
		return true
	})
	return out
}

// scanAssign flags map-index assignment and interface boxing on plain `=`
// assignments. `:=` declares the variable with the concrete type of its
// initializer, so no boxing happens there.
func scanAssign(p *Package, t *ast.AssignStmt, add func(token.Pos, string)) {
	for _, lhs := range t.Lhs {
		if idx, ok := unparen(lhs).(*ast.IndexExpr); ok {
			if xt := typeOfIn(p, idx.X); xt != nil {
				if _, isMap := xt.Underlying().(*types.Map); isMap {
					add(idx.Pos(), "map assignment may allocate")
				}
			}
		}
	}
	if t.Tok != token.ASSIGN || len(t.Lhs) != len(t.Rhs) {
		return
	}
	for i, lhs := range t.Lhs {
		if lt := typeOfIn(p, lhs); lt != nil {
			checkBox(p, t.Rhs[i], lt, add)
		}
	}
}

// scanReturn flags interface boxing of returned values.
func scanReturn(p *Package, n *funcNode, t *ast.ReturnStmt, add func(token.Pos, string)) {
	var sig *types.Signature
	if n.obj != nil {
		sig, _ = n.obj.Type().(*types.Signature)
	} else if n.lit != nil {
		if lt := typeOfIn(p, n.lit); lt != nil {
			sig, _ = lt.(*types.Signature)
		}
	}
	if sig == nil || sig.Results() == nil || len(t.Results) != sig.Results().Len() {
		return
	}
	for i, r := range t.Results {
		checkBox(p, r, sig.Results().At(i).Type(), add)
	}
}

// scanCall classifies one call expression: builtin, conversion, module call
// (handled by graph edges, but arguments may still box), external call, or
// indirect call.
func scanCall(m *ModulePass, g *CallGraph, n *funcNode, call *ast.CallExpr, modulePkgs map[string]bool, add func(token.Pos, string)) {
	p := n.pkg
	fun := unparen(call.Fun)

	// Conversions.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(p, call, tv.Type, add)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := objForIdent(p, id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				add(call.Pos(), "make allocates")
			case "new":
				add(call.Pos(), "new allocates")
			case "append":
				add(call.Pos(), "append may grow its backing array")
			case "println", "print":
				add(call.Pos(), "println allocates its arguments")
			}
			return
		}
	}

	// Interface boxing at argument positions, for any real call.
	if ft := typeOfIn(p, call.Fun); ft != nil {
		if sig, ok := ft.Underlying().(*types.Signature); ok {
			checkCallArgs(p, call, sig, add)
		}
	}

	if targets, _ := g.resolveCall(p, call, n.binds); len(targets) > 0 {
		return // module-internal: composed through graph edges
	}

	// External or indirect.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
			path := obj.Pkg().Path()
			if modulePkgs[path] {
				return // module call the graph could not pin down; edges cover the candidates
			}
			if trustedPkgs[path] {
				return
			}
			if path == "fmt" {
				add(call.Pos(), fmt.Sprintf("calls fmt.%s, which allocates", obj.Name()))
				return
			}
			add(call.Pos(), fmt.Sprintf("calls external function %s.%s, which reprolint cannot verify is allocation-free", shortPkg(path), obj.Name()))
			return
		}
	}
	add(call.Pos(), "indirect call through a func value; reprolint cannot verify it is allocation-free")
}

// checkConversion flags allocating conversions: to/from string and boxing
// conversions to interface types.
func checkConversion(p *Package, call *ast.CallExpr, target types.Type, add func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if _, isIface := target.Underlying().(*types.Interface); isIface {
		checkBox(p, arg, target, add)
		return
	}
	at := typeOfIn(p, arg)
	if at == nil {
		return
	}
	if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
		return // constant-folded
	}
	if isStringType(target) && !isStringType(at) {
		add(call.Pos(), "conversion to string allocates")
		return
	}
	if isStringType(at) {
		if _, isSlice := target.Underlying().(*types.Slice); isSlice {
			add(call.Pos(), "conversion from string allocates")
		}
	}
}

// checkCallArgs flags interface boxing at each argument position, including
// the implicit []T the compiler builds for variadic calls.
func checkCallArgs(p *Package, call *ast.CallExpr, sig *types.Signature, add func(token.Pos, string)) {
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			last := params.At(np - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
				if i == np-1 {
					add(arg.Pos(), "variadic call allocates its argument slice")
				}
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt != nil {
			checkBox(p, arg, pt, add)
		}
	}
}

// checkBox reports an interface-boxing allocation when expr, of a concrete
// non-pointer-shaped type, is converted to an interface-typed destination.
// Pointer-shaped values (pointers, channels, maps, funcs) fit in the
// interface word without allocating; constants are folded into read-only
// data; nil never boxes.
func checkBox(p *Package, expr ast.Expr, dst types.Type, add func(token.Pos, string)) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := p.Info.Types[unparen(expr)]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	src := tv.Type
	if _, isIface := src.Underlying().(*types.Interface); isIface {
		return // interface-to-interface carries the existing word
	}
	switch src.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if src.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	add(expr.Pos(), "implicit conversion to interface allocates")
}

// closureCaptures reports whether the literal references variables declared
// in the enclosing function (capture forces a heap-allocated closure).
func closureCaptures(p *Package, n *funcNode, lit *ast.FuncLit) bool {
	enclosing := n.span()
	inner := span{lit.Pos(), lit.End()}
	captures := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if captures {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		dp := v.Pos()
		if enclosing.contains(dp) && !inner.contains(dp) {
			captures = true
			return false
		}
		return true
	})
	return captures
}

type span struct{ lo, hi token.Pos }

func (s span) contains(p token.Pos) bool { return p >= s.lo && p <= s.hi }

// span returns the source extent of the node's declaration.
func (n *funcNode) span() span {
	if n.decl != nil {
		return span{n.decl.Pos(), n.decl.End()}
	}
	return span{n.lit.Pos(), n.lit.End()}
}

// objForIdent resolves an identifier through Uses.
func objForIdent(p *Package, id *ast.Ident) types.Object {
	return p.Info.Uses[id]
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
