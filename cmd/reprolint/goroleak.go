package main

// goroleak: every `go` statement in non-test module code must have a
// provable stop path. The supervisor/compactor/dispatch/writer
// lifecycles all follow one of three shapes, checked in order through the
// call graph:
//
//  1. the goroutine (transitively) blocks on a channel — a select with no
//     default, a plain receive, or a range over a channel — so closing the
//     channel (or sending the sentinel) stops it;
//  2. the goroutine provably terminates: nothing it (transitively) calls
//     contains an unconditioned `for` loop;
//  3. neither can be shown, and a `//repro:owns-goroutine <stopper>`
//     annotation on the go statement (or the line above) names the
//     Close/Stop method responsible for terminating it — validated to
//     resolve to a declared module function or method.
//
// Selects *with* a default are non-blocking and do not count as stop paths
// (the dispatch loop's drop-stale-notify select is exactly the shape that
// must not pass). Spawn edges do not propagate either property: a nested
// goroutine's receive stops the nested goroutine, not its parent.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var goroLeakAnalyzer = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement needs a provable stop path (blocking receive/select, termination, or //repro:owns-goroutine <stopper>)",
	Run:  runGoroLeak,
}

const ownsDirective = "//repro:owns-goroutine"

func goroLeakScoped(path string) bool {
	if strings.Contains(path, "testdata/src/") {
		return strings.Contains(path, "testdata/src/goroleak")
	}
	return true
}

// ownsAnnotation is one parsed //repro:owns-goroutine directive.
type ownsAnnotation struct {
	pos     token.Pos
	line    int
	stopper string
	used    bool
}

func runGoroLeak(m *ModulePass) {
	g := m.Graph

	// Property composition over the call graph. canStop: a blocking
	// receive/select is reachable (ref edges included — a stored handler
	// with a receive is still a stop path once invoked). hasLoop: an
	// unconditioned for loop is reachable through calls that actually run;
	// its witness names the looping function.
	canStop := make(map[*funcNode]bool)
	ownStop := make(map[*funcNode]bool)
	ownLoop := make(map[*funcNode]*witness)
	for _, n := range g.nodes {
		if n.body == nil {
			continue
		}
		// A receive, a default-less select or a range over a channel ends
		// when the channel is closed; a send or a blocking call does not.
		walkHeld(g, n, heldEvents{blocks: func(op blockingOp, _ heldSet) {
			if op.kind == blockReceive || op.kind == blockSelect || op.kind == blockRange {
				ownStop[n] = true
			}
		}})
		if bodyHasUnboundedLoop(n) {
			ownLoop[n] = &witness{pos: n.Pos(), desc: n.name}
		}
	}
	hasLoop := g.firstWitness(ownLoop)
	g.composeBottomUp(func(n *funcNode) bool {
		if canStop[n] {
			return false
		}
		if ownStop[n] {
			canStop[n] = true
			return true
		}
		for _, e := range n.out {
			if !e.spawn && canStop[e.callee] {
				canStop[n] = true
				return true
			}
		}
		return false
	})

	// Collect annotations per file, then check every go statement in scope.
	annots := make(map[string]map[int]*ownsAnnotation)
	for _, p := range m.Pkgs {
		if !goroLeakScoped(p.Path) {
			continue
		}
		for _, file := range p.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, ownsDirective)
					if !ok {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					a := &ownsAnnotation{pos: c.Pos(), line: pos.Line}
					if fields := strings.Fields(rest); len(fields) > 0 && strings.HasPrefix(rest, " ") {
						a.stopper = fields[0]
					}
					byLine := annots[pos.Filename]
					if byLine == nil {
						byLine = make(map[int]*ownsAnnotation)
						annots[pos.Filename] = byLine
					}
					byLine[pos.Line] = a
				}
			}
		}
	}

	for _, n := range g.nodes {
		if n.body == nil || !goroLeakScoped(n.pkg.Path) {
			continue
		}
		pos := m.Fset.Position(n.Pos())
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		n.inspect(func(nd ast.Node) bool {
			if gs, ok := nd.(*ast.GoStmt); ok {
				checkGoStmt(m, g, n, gs, annots, canStop, hasLoop)
			}
			return true
		})
	}

	// Annotations that matched no go statement are stale.
	for _, byLine := range annots {
		for _, a := range byLine {
			if !a.used {
				m.Reportf(a.pos, "%s matches no go statement on its line or the line below", ownsDirective)
			}
		}
	}
}

func checkGoStmt(m *ModulePass, g *CallGraph, n *funcNode, gs *ast.GoStmt,
	annots map[string]map[int]*ownsAnnotation, canStop map[*funcNode]bool, hasLoop map[*funcNode]*witness) {

	pos := m.Fset.Position(gs.Pos())
	var annot *ownsAnnotation
	if byLine := annots[pos.Filename]; byLine != nil {
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			if a := byLine[line]; a != nil {
				annot = a
				break
			}
		}
	}
	if annot != nil {
		annot.used = true
		if annot.stopper == "" {
			m.Reportf(annot.pos, "%s needs a stopper: name the Close/Stop method that terminates this goroutine", ownsDirective)
			return
		}
		if !stopperDeclared(g, annot.stopper) {
			m.Reportf(annot.pos, "%s names %q, which matches no declared function or method in the module", ownsDirective, annot.stopper)
		}
		return
	}

	// Resolve the spawned function.
	var targets []*funcNode
	if fl, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		if c := g.byLit[fl]; c != nil {
			targets = []*funcNode{c}
		}
	} else {
		targets, _ = g.resolveCall(n.pkg, gs.Call, n.binds)
	}
	if len(targets) == 0 {
		m.Reportf(gs.Pos(), "goroutine spawns a function reprolint cannot resolve; annotate with %s <stopper> naming what terminates it", ownsDirective)
		return
	}
	for _, tgt := range targets {
		if canStop[tgt] {
			return // a blocking receive/select is reachable: close-able stop path
		}
	}
	for _, tgt := range targets {
		if w := hasLoop[tgt]; w != nil {
			// The chain ends at the looping function itself; only the
			// intermediate hops are worth naming.
			where := w.desc
			if len(w.chain) > 1 {
				where += " (via " + strings.Join(w.chain[:len(w.chain)-1], " → ") + ")"
			}
			m.Reportf(gs.Pos(), "goroutine has no provable stop path: %s loops unconditionally in %s and never blocks on a channel; add a stop channel or annotate with %s <stopper>", tgt.name, where, ownsDirective)
			return
		}
	}
	// No receive, but no unbounded loop either: the goroutine terminates.
}

// bodyHasUnboundedLoop reports whether the node's own body (literals
// excluded) contains a `for` with no condition. Range loops are bounded
// (range over a channel is a receive, classified by blockingPrimitive).
func bodyHasUnboundedLoop(n *funcNode) bool {
	found := false
	n.inspect(func(nd ast.Node) bool {
		if loop, ok := nd.(*ast.ForStmt); ok && loop.Cond == nil {
			found = true
		}
		return !found
	})
	return found
}

// stopperDeclared validates a //repro:owns-goroutine stopper name against
// the module's declared functions: "(*Type).Method", "Type.Method",
// "pkg.Func", or a bare "Func"/"Method" all resolve.
func stopperDeclared(g *CallGraph, name string) bool {
	clean := strings.NewReplacer("(", "", ")", "", "*", "").Replace(name)
	parts := strings.Split(clean, ".")
	method := parts[len(parts)-1]
	qual := ""
	if len(parts) >= 2 {
		qual = parts[len(parts)-2]
	}
	for _, n := range g.nodes {
		if n.decl == nil || n.decl.Name == nil || n.decl.Name.Name != method {
			continue
		}
		if qual == "" {
			return true
		}
		if recvBaseName(n.obj) == qual || shortPkg(n.pkg.Path) == qual {
			return true
		}
	}
	return false
}

// recvBaseName returns the receiver's named-type name, or "".
func recvBaseName(obj *types.Func) string {
	if obj == nil {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return named.Obj().Name()
	}
	return ""
}
