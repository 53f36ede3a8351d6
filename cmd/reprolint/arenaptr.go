package main

// arenaptr: the core arena engines store every trie node in one contiguous
// slab ([]core.Node[V], []core.CNode[V]) addressed by int32 indices. Taking
// the address of a slab element (`&e.Nodes[i]`, `&nodes[i].Val`) yields a
// pointer that goes stale the moment the slab grows — append relocates the
// backing array, after which the old pointer reads and writes a dead copy.
// The discipline: slab pointers may exist only as short-lived locals with no
// slab growth between creation and last use, and must never escape the
// function. The source is `&slab[i]…`; reftrack.go follows it through every
// alias; the sinks are an escape, and any growth while an alias is still used.
//
// What grows a slab is derived, not listed: a function may grow one iff its
// body assigns append(…) to a slab-typed expression or it calls, on its own
// goroutine, a function that may — the same bottom-up composition blockinglock
// uses, over the packages that were loaded (run on ./... so core's own source
// is among them).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

const enginePkg = "repro/internal/core"

var arenaPtrAnalyzer = &Analyzer{
	Name: "arenaptr",
	Doc:  "flags slab-element pointers (&e.Nodes[i]) and their aliases that escape or stay in use across anything that appends to a node slab, directly or through calls",
	Run:  runArenaPtr,
}

// isNodeSlabSlice reports whether t is []core.Node[V] or []core.CNode[V] — an
// engine slab (or a slice aliasing one, which shares the staleness hazard).
func isNodeSlabSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return (obj.Name() == "Node" || obj.Name() == "CNode") && obj.Pkg() != nil && obj.Pkg().Path() == enginePkg
}

// isSlabElemAddr reports whether e is `&expr` where expr indexes into an
// engine slab somewhere along its selector/index chain.
func isSlabElemAddr(p *Package, e ast.Expr) bool {
	ue, ok := e.(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return false
	}
	for x := ue.X; x != nil; x = inner(x) {
		if ix, ok := x.(*ast.IndexExpr); ok && isNodeSlabSlice(typeOfIn(p, ix.X)) {
			return true
		}
	}
	return false
}

// isSlabAppend reports whether as assigns append(…) to a slab-typed
// expression: the one primitive that relocates a slab.
func isSlabAppend(p *Package, as *ast.AssignStmt) bool {
	if len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isNodeSlabSlice(typeOfIn(p, as.Lhs[i])) {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			return true
		}
	}
	return false
}

// mayGrowSlab composes the may-grow summary over the call graph.
func mayGrowSlab(g *CallGraph) map[*funcNode]*witness {
	own := make(map[*funcNode]*witness)
	for _, n := range g.nodes {
		if n.body == nil {
			continue
		}
		n.inspect(func(nd ast.Node) bool {
			if as, ok := nd.(*ast.AssignStmt); ok && own[n] == nil && isSlabAppend(n.pkg, as) {
				own[n] = &witness{pos: as.Pos(), desc: "append to a node slab"}
			}
			return own[n] == nil
		})
	}
	return g.firstWitness(own)
}

func runArenaPtr(m *ModulePass) {
	mayGrow := mayGrowSlab(m.Graph)
	t := &refTracker{source: isSlabElemAddr, held: make(map[types.Object]*refBinding)}
	reported := make(map[*refBinding]bool)
	for _, n := range m.Graph.nodes {
		if n.body == nil {
			continue
		}
		bound := t.track(n)

		// Growth points: the call-graph edges into may-grow functions (a
		// spawned one counts — it can grow at any time), and below, the body's
		// own appends. The one sink scan reports escapes as they are met and
		// collects appends and loops for the window test.
		type growth struct {
			pos  token.Pos
			what string
		}
		var growths []growth
		for _, e := range n.out {
			if w := mayGrow[e.callee]; w != nil && e.kind != edgeRef {
				growths = append(growths, growth{e.pos, fmt.Sprintf("call to %s at %s: %s", e.callee.name, m.Fset.Position(e.pos), w.via(e.callee).detail(m.Fset))})
			}
		}
		var loops []ast.Node
		escape := func(e ast.Expr, how string) {
			if t.ref(n.pkg, e) {
				m.Reportf(e.Pos(), "slab-element pointer %s: it goes stale when the slab grows; keep the int32 index instead", how)
			}
		}
		n.inspect(func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loops = append(loops, s)
			case *ast.AssignStmt:
				if isSlabAppend(n.pkg, s) {
					growths = append(growths, growth{s.Pos(), "append to a node slab at " + m.Fset.Position(s.Pos()).String()})
				}
				for i, lhs := range s.Lhs {
					// A plain local is a binding, the tracker's business;
					// anything else outlives this statement list.
					id, isIdent := lhs.(*ast.Ident)
					if isIdent && (id.Name == "_" || isLocalVar(objOf(n.pkg, id))) || len(s.Lhs) != len(s.Rhs) {
						continue
					}
					escape(s.Rhs[i], "escapes into "+describeLHS(lhs))
				}
			case *ast.ReturnStmt:
				for _, r := range s.Results {
					escape(r, "escapes via return")
				}
			case *ast.CallExpr:
				for _, arg := range s.Args {
					escape(arg, "passed to a call (the callee may retain it or grow the slab)")
				}
			case *ast.CompositeLit:
				for _, el := range s.Elts {
					if kv, isKV := el.(*ast.KeyValueExpr); isKV {
						el = kv.Value
					}
					escape(el, "stored in a composite literal")
				}
			case *ast.SendStmt:
				escape(s.Value, "sent on a channel")
			case *ast.Ident:
				// A use in a function other than the one that bound it: the
				// closure can run after any growth.
				b := t.held[objOf(n.pkg, s)]
				if b != nil && !reported[b] && !within(b.stmt.Pos(), n.body) {
					reported[b] = true
					m.Reportf(s.Pos(), "slab-element pointer %s captured by a closure: it goes stale when the slab grows; capture the int32 index instead", s.Name)
				}
			}
			return true
		})

		// Growth inside a binding's live window. The window is the textual
		// span from the end of the binding statement — growth inside the
		// binding RHS, &e.Nodes[e.PathInsert(…)], runs before the pointer
		// exists and is the sanctioned grow-then-address idiom — to the last
		// use of any alias, widened to a whole loop when the binding sits
		// outside a loop that uses the pointer: iteration N may grow after its
		// last use and before iteration N+1's first.
		for _, b := range bound {
			if reported[b] {
				continue
			}
			liveFrom := b.stmt.End()
			for _, g := range growths {
				spans := liveFrom <= g.pos && g.pos <= b.lastUse
				for _, loop := range loops {
					spans = spans || !within(liveFrom, loop) && within(b.lastUse, loop) && within(g.pos, loop)
				}
				if spans {
					reported[b] = true
					m.Reportf(b.stmt.Pos(), "slab-element pointer %s is held across a slab-growing call (%s): the growth relocates the slab and the pointer goes stale; re-index after growth or keep the int32 index",
						b.obj.Name(), g.what)
					break
				}
			}
		}
	}
}

func within(pos token.Pos, n ast.Node) bool { return n.Pos() <= pos && pos <= n.End() }

func describeLHS(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.SelectorExpr:
		return "field " + t.Sel.Name
	case *ast.IndexExpr:
		return "a slice/map element"
	case *ast.StarExpr:
		return "a dereferenced pointer"
	case *ast.Ident:
		return "package-level variable " + t.Name
	}
	return "a non-local location"
}
