package main

// callgraph.go: the module-internal call graph underpinning the
// inter-procedural checks (blockinglock, lockorder, goroleak, and arenaptr's
// growth summary) and the node list every check iterates. Every function
// declaration and function literal in the loaded packages becomes a node;
// edges come from direct calls, interface method calls (conservatively
// widened to every module type implementing the interface), and
// function/method-value references. Strongly connected components are
// computed once, in callees-first order, so checks can compose
// intraprocedural summaries bottom-up with a fixpoint only inside recursive
// groups — the same topo-order discipline the loader already applies to
// type-checking.
//
// Known limitation, shared by every summary built on the graph: a call
// through an unresolved func value (a field, a parameter, a var assigned
// more than once) contributes no edges. Single-assignment local bindings
// (`key := func(...)...; key(x)`) are resolved to the literal.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

type edgeKind int

const (
	// edgeStatic is a direct call with a known callee.
	edgeStatic edgeKind = iota
	// edgeIface is an interface method call, widened to every
	// module-internal concrete type implementing the interface.
	edgeIface
	// edgeRef is a function or method value that is created here but not
	// provably called here.
	edgeRef
)

type callEdge struct {
	callee *funcNode
	kind   edgeKind
	pos    token.Pos
	// spawn marks edges whose call is a `go` statement: the callee runs on
	// another goroutine, so it is not part of the caller's own execution.
	spawn bool
	// deferred marks `defer f(...)` edges: they run, but at function exit.
	deferred bool
}

// funcNode is one function declaration or function literal.
type funcNode struct {
	pkg  *Package
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	obj  *types.Func   // nil for literals and for blank/invalid decls
	name string        // display name: "(*rtr.Client).dispatch", "rov.famSlot", "rtr.Serve$1"
	body *ast.BlockStmt
	out  []callEdge

	binds *funcBindings // single-assignment local func-value bindings

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
	sccID          int
}

func (n *funcNode) Pos() token.Pos {
	if n.decl != nil {
		return n.decl.Pos()
	}
	return n.lit.Pos()
}

func (n *funcNode) funcType() *ast.FuncType {
	if n.decl != nil {
		return n.decl.Type
	}
	return n.lit.Type
}

// inspect walks n's own body in source order; nested literals are excluded,
// each being a node of its own.
func (n *funcNode) inspect(f func(ast.Node) bool) {
	ast.Inspect(n.body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		return f(nd)
	})
}

// funcBindings records local variables bound exactly once to a function
// literal, so calls through them resolve statically.
type funcBindings struct {
	varLit map[*types.Var]*ast.FuncLit
	bound  map[*ast.FuncLit]bool
}

// CallGraph is the module-internal call graph over one loaded package set.
type CallGraph struct {
	fset  *token.FileSet
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
func buildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		fset:  fset,
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
				fn := &funcNode{pkg: p, lit: t, name: name, body: t.Body}
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
			fn := &funcNode{pkg: p, decl: d, obj: obj, name: name, body: d.Body}
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

// scan resolves the edges out of one node's immediate body. Nested literal
// bodies are skipped: each literal is its own node and scans itself.
func (g *CallGraph) scan(n *funcNode) {
	if n.body == nil {
		return
	}
	n.binds = g.localFuncBindings(n)

	// Pre-pass: which expressions sit in call position, and which calls are
	// go/defer statements.
	callFun := make(map[ast.Expr]bool)
	goCalls := make(map[*ast.CallExpr]bool)
	deferCalls := make(map[*ast.CallExpr]bool)
	n.inspect(func(nd ast.Node) bool {
		switch t := nd.(type) {
		case *ast.GoStmt:
			goCalls[t.Call] = true
		case *ast.DeferStmt:
			deferCalls[t.Call] = true
		case *ast.CallExpr:
			callFun[unparen(t.Fun)] = true
		}
		return true
	})

	var walk func(nd ast.Node) bool
	walk = func(nd ast.Node) bool {
		switch t := nd.(type) {
		case *ast.FuncLit:
			// A literal that is neither immediately invoked nor bound to a
			// single-assignment local escapes as a value: a reference edge.
			if child := g.byLit[t]; child != nil && !callFun[t] && !n.binds.bound[t] {
				n.out = append(n.out, callEdge{callee: child, kind: edgeRef, pos: t.Pos()})
			}
			return false
		case *ast.CallExpr:
			targets, kind := g.resolveCall(n.pkg, t, n.binds)
			for _, c := range targets {
				n.out = append(n.out, callEdge{
					callee:   c,
					kind:     kind,
					pos:      t.Pos(),
					spawn:    goCalls[t],
					deferred: deferCalls[t],
				})
			}
			return true
		case *ast.Ident:
			if !callFun[t] {
				if fn, ok := n.pkg.Info.Uses[t].(*types.Func); ok {
					if c := g.NodeFor(fn); c != nil {
						n.out = append(n.out, callEdge{callee: c, kind: edgeRef, pos: t.Pos()})
					}
				}
			}
		case *ast.SelectorExpr:
			if callFun[t] || g.refSelector(n, t) {
				// The selector is consumed (call position, or recorded as a
				// reference); only its receiver expression remains to scan.
				ast.Inspect(t.X, walk)
				return false
			}
		}
		return true
	}
	ast.Inspect(n.body, walk)
}

// refSelector records a reference edge for a selector that denotes a
// function or method value, returning whether the selector was one.
func (g *CallGraph) refSelector(n *funcNode, sel *ast.SelectorExpr) bool {
	info := n.pkg.Info
	if s, ok := info.Selections[sel]; ok {
		switch s.Kind() {
		case types.MethodVal:
			if types.IsInterface(s.Recv()) {
				for _, c := range g.widen(s.Recv(), sel.Sel.Name) {
					n.out = append(n.out, callEdge{callee: c, kind: edgeRef, pos: sel.Pos()})
				}
				return true
			}
			if m, ok := s.Obj().(*types.Func); ok {
				if c := g.NodeFor(m); c != nil {
					n.out = append(n.out, callEdge{callee: c, kind: edgeRef, pos: sel.Pos()})
				}
				return true
			}
		case types.MethodExpr:
			if m, ok := s.Obj().(*types.Func); ok {
				if c := g.NodeFor(m); c != nil {
					n.out = append(n.out, callEdge{callee: c, kind: edgeRef, pos: sel.Pos()})
				}
				return true
			}
		}
		return false
	}
	// Qualified identifier: pkg.F used as a value.
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		if c := g.NodeFor(fn); c != nil {
			n.out = append(n.out, callEdge{callee: c, kind: edgeRef, pos: sel.Pos()})
		}
		return true
	}
	return false
}

// resolveCall resolves a call expression to its possible module-internal
// callees. Conversions and builtins resolve to nothing.
func (g *CallGraph) resolveCall(p *Package, call *ast.CallExpr, binds *funcBindings) ([]*funcNode, edgeKind) {
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
		return nil, 0 // conversion, not a call
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		if c := g.byLit[f]; c != nil {
			return []*funcNode{c}, edgeStatic
		}
	case *ast.Ident:
		switch obj := p.Info.Uses[f].(type) {
		case *types.Func:
			if c := g.NodeFor(obj); c != nil {
				return []*funcNode{c}, edgeStatic
			}
		case *types.Var:
			if binds != nil {
				if lit := binds.varLit[obj]; lit != nil {
					if c := g.byLit[lit]; c != nil {
						return []*funcNode{c}, edgeStatic
					}
				}
			}
		}
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[f]; ok {
			switch s.Kind() {
			case types.MethodVal:
				if types.IsInterface(s.Recv()) {
					return g.widen(s.Recv(), f.Sel.Name), edgeIface
				}
				if m, ok := s.Obj().(*types.Func); ok {
					if c := g.NodeFor(m); c != nil {
						return []*funcNode{c}, edgeStatic
					}
				}
			case types.MethodExpr:
				if m, ok := s.Obj().(*types.Func); ok {
					if c := g.NodeFor(m); c != nil {
						return []*funcNode{c}, edgeStatic
					}
				}
			}
			return nil, 0
		}
		if fn, ok := p.Info.Uses[f.Sel].(*types.Func); ok {
			if c := g.NodeFor(fn); c != nil {
				return []*funcNode{c}, edgeStatic
			}
		}
	}
	return nil, 0
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
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if c := g.NodeFor(m); c != nil && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// localFuncBindings finds local variables bound exactly once to a function
// literal with no reassignment and no address taken — calls through them are
// static.
func (g *CallGraph) localFuncBindings(n *funcNode) *funcBindings {
	b := &funcBindings{
		varLit: make(map[*types.Var]*ast.FuncLit),
		bound:  make(map[*ast.FuncLit]bool),
	}
	info := n.pkg.Info
	assigned := make(map[*types.Var]int)
	dropped := make(map[*types.Var]bool)
	varOf := func(e ast.Expr) *types.Var {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	ast.Inspect(n.body, func(nd ast.Node) bool {
		switch t := nd.(type) {
		case *ast.AssignStmt:
			balanced := len(t.Lhs) == len(t.Rhs)
			for i, lhs := range t.Lhs {
				v := varOf(lhs)
				if v == nil {
					continue
				}
				assigned[v]++
				if balanced && t.Tok == token.DEFINE {
					if fl, ok := unparen(t.Rhs[i]).(*ast.FuncLit); ok {
						if _, dup := b.varLit[v]; !dup {
							b.varLit[v] = fl
							continue
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range t.Names {
				v, ok := info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				assigned[v]++
				if i < len(t.Values) {
					if fl, ok := unparen(t.Values[i]).(*ast.FuncLit); ok {
						if _, dup := b.varLit[v]; !dup {
							b.varLit[v] = fl
						}
					}
				}
			}
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				if v := varOf(t.X); v != nil {
					dropped[v] = true
				}
			}
		}
		return true
	})
	for v := range b.varLit {
		if assigned[v] != 1 || dropped[v] {
			delete(b.varLit, v)
		}
	}
	for _, fl := range b.varLit {
		b.bound[fl] = true
	}
	return b
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

// runs reports whether the callee executes on the caller's goroutine as part
// of the call: storing a func value does not run it, and a spawned goroutine's
// behaviour is its own.
func (e callEdge) runs() bool { return e.kind != edgeRef && !e.spawn }

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
// its own body does (own) or the first callee that runs as part of it does.
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
			if !e.runs() {
				continue
			}
			if w := out[e.callee]; w != nil {
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
