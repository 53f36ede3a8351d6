package main

// callgraph.go: the module-internal call graph under the inter-procedural
// checks, and the node list every check iterates. Every function declaration
// and function literal in the loaded packages becomes a node; edges come from
// direct calls and from interface method calls (conservatively widened to
// every module type implementing the interface). Strongly connected components
// are computed once, in callees-first order, so checks can compose
// intraprocedural summaries bottom-up with a fixpoint only inside recursive
// groups — the same topo-order discipline the loader already applies to
// type-checking.
//
// Known limitation, shared by every summary built on the graph: a call
// through a func value (a field, a parameter, a local) contributes no edges.

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

type callEdge struct {
	callee *funcNode
	// spawn marks edges whose call is a `go` statement: the callee runs on
	// another goroutine, so it is not part of the caller's own execution.
	spawn bool
}

// funcNode is one function declaration or function literal.
type funcNode struct {
	pkg  *Package
	obj  *types.Func // nil for literals and for blank/invalid decls
	name string      // display name: "(*rtr.Client).dispatch", "rov.famSlot", "rtr.Serve$1"
	body *ast.BlockStmt
	out  []callEdge

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
	sccID          int
}

// CallGraph is the module-internal call graph over one loaded package set.
type CallGraph struct {
	nodes []*funcNode
	byObj map[*types.Func]*funcNode
	byLit map[*ast.FuncLit]*funcNode
	// sccs lists strongly connected components callees-first: every edge
	// leaving an SCC points at an earlier one.
	sccs [][]*funcNode

	// concrete lists the module's non-generic, non-interface named types,
	// the widening universe for interface dispatch.
	concrete []*types.Named
}

// buildCallGraph constructs the graph over the loaded packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: make(map[*types.Func]*funcNode),
		byLit: make(map[*ast.FuncLit]*funcNode),
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			g.registerFile(p, file)
		}
		scope := p.Types.Scope()
		for _, nm := range scope.Names() {
			tn, ok := scope.Lookup(nm).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			g.concrete = append(g.concrete, named)
		}
	}
	for _, n := range g.nodes {
		g.scan(n)
	}
	g.computeSCCs()
	return g
}

// NodeFor returns the node for a declared function or method, resolving
// generic instantiations to their origin declaration.
func (g *CallGraph) NodeFor(fn *types.Func) *funcNode {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return g.byObj[fn]
}

// registerFile creates nodes for every function declaration and literal in
// the file. Literals are named after their enclosing function with a $n
// ordinal; literals in package-level initializers hang off "pkg.init".
func (g *CallGraph) registerFile(p *Package, file *ast.File) {
	short := shortPkg(p.Path)
	var registerLits func(root ast.Node, owner string)
	registerLits = func(root ast.Node, owner string) {
		ctr := 0
		ast.Inspect(root, func(nd ast.Node) bool {
			if nd == root {
				return true
			}
			switch t := nd.(type) {
			case *ast.FuncLit:
				ctr++
				name := fmt.Sprintf("%s$%d", owner, ctr)
				fn := &funcNode{pkg: p, name: name, body: t.Body}
				g.nodes = append(g.nodes, fn)
				g.byLit[t] = fn
				registerLits(t, name)
				return false
			case *ast.FuncDecl:
				return false
			}
			return true
		})
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			obj, _ := p.Info.Defs[d.Name].(*types.Func)
			name := short + "." + d.Name.Name
			if obj != nil {
				name = shortFuncName(obj)
			}
			fn := &funcNode{pkg: p, obj: obj, name: name, body: d.Body}
			g.nodes = append(g.nodes, fn)
			if obj != nil {
				g.byObj[obj] = fn
			}
			if d.Body != nil {
				registerLits(d.Body, name)
			}
		case *ast.GenDecl:
			registerLits(d, short+".init")
		}
	}
}

// scan resolves the call edges out of one node's immediate body. Nested
// literal bodies are skipped: each literal is its own node and scans itself.
func (g *CallGraph) scan(n *funcNode) {
	if n.body == nil {
		return
	}
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.body, func(nd ast.Node) bool {
		switch t := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			goCalls[t.Call] = true
		case *ast.CallExpr:
			for _, c := range g.resolveCall(n.pkg, t) {
				n.out = append(n.out, callEdge{callee: c, spawn: goCalls[t]})
			}
		}
		return true
	})
}

// resolveCall resolves a call expression to its possible module-internal
// callees. Conversions, builtins and calls through func values resolve to
// nothing.
func (g *CallGraph) resolveCall(p *Package, call *ast.CallExpr) []*funcNode {
	fun := unparen(call.Fun)
	// Explicit generic instantiation: f[T](...) — unwrap to f when it
	// denotes a function, not an index operation.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(p, ix.X) {
			fun = unparen(ix.X)
		}
	case *ast.IndexListExpr:
		if isFuncExpr(p, ix.X) {
			fun = unparen(ix.X)
		}
	}
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		return nil // conversion, not a call
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		if c := g.byLit[f]; c != nil {
			return []*funcNode{c}
		}
	case *ast.Ident:
		if c := g.NodeFor(asFunc(p.Info.Uses[f])); c != nil {
			return []*funcNode{c}
		}
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[f]; ok {
			if s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
				return g.widen(s.Recv(), f.Sel.Name)
			}
			if c := g.NodeFor(asFunc(s.Obj())); c != nil {
				return []*funcNode{c}
			}
			return nil // a call through a func-typed field
		}
		if c := g.NodeFor(asFunc(p.Info.Uses[f.Sel])); c != nil {
			return []*funcNode{c}
		}
	}
	return nil
}

func asFunc(obj types.Object) *types.Func {
	fn, _ := obj.(*types.Func)
	return fn
}

func isFuncExpr(p *Package, e ast.Expr) bool {
	switch t := unparen(e).(type) {
	case *ast.Ident:
		_, ok := p.Info.Uses[t].(*types.Func)
		return ok
	case *ast.SelectorExpr:
		_, ok := p.Info.Uses[t.Sel].(*types.Func)
		return ok
	}
	return false
}

// widen resolves an interface method call to every module-internal concrete
// type implementing the interface — the conservative over-approximation of
// dynamic dispatch.
func (g *CallGraph) widen(recv types.Type, method string) []*funcNode {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*funcNode
	seen := make(map[*funcNode]bool)
	for _, named := range g.concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), method)
		if c := g.NodeFor(asFunc(obj)); c != nil && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(a, b *funcNode) int { return cmp.Compare(a.name, b.name) })
	return out
}

// computeSCCs runs Tarjan's algorithm. Tarjan emits each SCC only after
// every SCC it can reach, so g.sccs comes out callees-first — the order
// bottom-up summary composition needs.
func (g *CallGraph) computeSCCs() {
	index := 0
	var stack []*funcNode
	var connect func(n *funcNode)
	connect = func(n *funcNode) {
		index++
		n.index, n.lowlink = index, index
		stack = append(stack, n)
		n.onStack = true
		for _, e := range n.out {
			c := e.callee
			if c.index == 0 {
				connect(c)
				if c.lowlink < n.lowlink {
					n.lowlink = c.lowlink
				}
			} else if c.onStack && c.index < n.lowlink {
				n.lowlink = c.index
			}
		}
		if n.lowlink == n.index {
			var scc []*funcNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				m.sccID = len(g.sccs)
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			g.sccs = append(g.sccs, scc)
		}
	}
	for _, n := range g.nodes {
		if n.index == 0 {
			connect(n)
		}
	}
}

// composeBottomUp calls update on every node in callees-first SCC order,
// iterating each SCC to a fixpoint. update must return true only when the
// node's summary grew.
func (g *CallGraph) composeBottomUp(update func(*funcNode) bool) {
	for _, scc := range g.sccs {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if update(n) {
					changed = true
				}
			}
		}
	}
}

// witness is the evidence a bottom-up summary carries up the graph: what was
// found, where, and through which calls.
type witness struct {
	pos   token.Pos
	desc  string
	chain []string // callee names from the summarized function down; empty = in its own body
}

// via returns w as seen from a caller of callee.
func (w *witness) via(callee *funcNode) *witness {
	return &witness{pos: w.pos, desc: w.desc, chain: append([]string{callee.name}, w.chain...)}
}

// detail renders "desc at file:line:col via a → b".
func (w *witness) detail(fset *token.FileSet) string {
	s := fmt.Sprintf("%s at %s", w.desc, fset.Position(w.pos))
	if len(w.chain) > 0 {
		s += " via " + strings.Join(w.chain, " → ")
	}
	return s
}

// firstWitness composes a may-property bottom-up: a function has a witness if
// its own body does (own) or the first callee that runs on its goroutine as
// part of it does.
func (g *CallGraph) firstWitness(own map[*funcNode]*witness) map[*funcNode]*witness {
	out := make(map[*funcNode]*witness)
	g.composeBottomUp(func(n *funcNode) bool {
		if out[n] != nil {
			return false
		}
		if w := own[n]; w != nil {
			out[n] = w
			return true
		}
		for _, e := range n.out {
			if w := out[e.callee]; w != nil && !e.spawn {
				out[n] = w.via(e.callee)
				return true
			}
		}
		return false
	})
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// shortPkg returns the last path element of an import path.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// shortFuncName renders a function or method name with its package path
// shortened to the last element: "(*rtr.Client).dispatch", "rov.NewIndex".
func shortFuncName(obj *types.Func) string {
	full := obj.FullName()
	if pkg := obj.Pkg(); pkg != nil {
		full = strings.Replace(full, pkg.Path()+".", shortPkg(pkg.Path())+".", 1)
	}
	return full
}
