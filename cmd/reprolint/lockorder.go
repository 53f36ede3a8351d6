package main

// lockorder: the RTR and ROV layers stack several mutexes — per-client
// request and state locks, the server's registry and per-conn locks, the
// multi-supervisor's delivery and state locks, the live index's writer lock.
// Two functions that acquire the same two locks in opposite orders are a
// deadlock waiting for the interleaving that -race never draws. The
// check identifies each lock by its declaration — pkg.Type.field for struct
// mutexes, pkg.var for package-level ones — collects every acquisition in
// internal/rtr + internal/rov, composes a transitive acquires-summary per
// function bottom-up over the call graph, builds the lock-ordering graph
// ("A is held while B is acquired"), and reports every cycle with a full
// witness path. `go` statements do not extend the holder's order (the
// spawned goroutine holds nothing of the spawner's), and calls through
// unresolved func values contribute no edges (the call graph's documented
// limitation).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var lockOrderAnalyzer = &Analyzer{
	Name:      "lockorder",
	Doc:       "builds the inter-procedural lock-ordering graph over internal/rtr + internal/rov and reports every cycle with its witness path",
	RunModule: runLockOrder,
}

func lockOrderScoped(path string) bool {
	return strings.Contains(path, "internal/rtr") ||
		strings.Contains(path, "internal/rov") ||
		strings.Contains(path, "testdata/src/lockorder")
}

// lockAcq is one (possibly transitive) lock acquisition in a function's
// summary: where it happens and through which call chain.
type lockAcq struct {
	pos   token.Pos
	chain []string // callee names from the summarized function down; empty = direct
}

// lockPair is one direct "to acquired while from held" observation.
type lockPair struct {
	from, to       string
	fromPos, toPos token.Pos
}

// lockCallSite is a resolved call made while locks are held.
type lockCallSite struct {
	held   map[string]token.Pos
	callee *funcNode
	pos    token.Pos
}

// lockFnInfo is the intraprocedural harvest of one function.
type lockFnInfo struct {
	node     *funcNode
	acquires map[string]token.Pos
	pairs    []lockPair
	calls    []lockCallSite
}

// lockWitness is one lock-graph edge's evidence.
type lockWitness struct {
	to      string
	fn      string    // function where the edge was observed
	heldPos token.Pos // where `from` was acquired
	atPos   token.Pos // where `to` was acquired, or the call that leads to it
	acqPos  token.Pos // the eventual acquisition site of `to`
	chain   []string  // call chain from fn to the acquisition; empty = direct
}

func runLockOrder(m *ModulePass) {
	g := m.Graph

	// Phase 1: intraprocedural scan of every function in scope.
	infoByNode := make(map[*funcNode]*lockFnInfo)
	var scoped []*funcNode
	for _, n := range g.nodes {
		if n.body == nil || !lockOrderScoped(n.pkg.Path) {
			continue
		}
		fi := &lockFnInfo{node: n, acquires: make(map[string]token.Pos)}
		scanLockFn(m, fi)
		infoByNode[n] = fi
		scoped = append(scoped, n)
	}

	// Phase 2: compose transitive acquires bottom-up over the call graph.
	// Direct acquisitions only exist for scoped functions, but composition
	// runs module-wide so a scoped→unscoped→scoped call chain still carries.
	summaries := make(map[*funcNode]map[string]lockAcq)
	g.composeBottomUp(func(n *funcNode) bool {
		s := summaries[n]
		if s == nil {
			s = make(map[string]lockAcq)
			summaries[n] = s
		}
		grew := false
		if fi := infoByNode[n]; fi != nil {
			for k, pos := range fi.acquires {
				if _, ok := s[k]; !ok {
					s[k] = lockAcq{pos: pos}
					grew = true
				}
			}
		}
		for _, e := range n.out {
			if e.kind == edgeRef || e.spawn {
				continue
			}
			for k, a := range summaries[e.callee] {
				if _, ok := s[k]; !ok {
					chain := make([]string, 0, len(a.chain)+1)
					chain = append(chain, e.callee.name)
					chain = append(chain, a.chain...)
					s[k] = lockAcq{pos: a.pos, chain: chain}
					grew = true
				}
			}
		}
		return grew
	})

	// Phase 3: generate the lock-ordering graph. First witness per edge
	// wins; node iteration order is deterministic (loader topo × file ×
	// position), so so is the witness choice.
	edges := make(map[string]map[string]*lockWitness)
	addEdge := func(from string, w *lockWitness) {
		byTo := edges[from]
		if byTo == nil {
			byTo = make(map[string]*lockWitness)
			edges[from] = byTo
		}
		if byTo[w.to] == nil {
			byTo[w.to] = w
		}
	}
	for _, n := range scoped {
		fi := infoByNode[n]
		for _, pr := range fi.pairs {
			addEdge(pr.from, &lockWitness{
				to: pr.to, fn: n.name,
				heldPos: pr.fromPos, atPos: pr.toPos, acqPos: pr.toPos,
			})
		}
		for _, cs := range fi.calls {
			sum := summaries[cs.callee]
			if len(sum) == 0 {
				continue
			}
			heldKeys := make([]string, 0, len(cs.held))
			for h := range cs.held {
				heldKeys = append(heldKeys, h)
			}
			sort.Strings(heldKeys)
			sumKeys := make([]string, 0, len(sum))
			for k := range sum {
				sumKeys = append(sumKeys, k)
			}
			sort.Strings(sumKeys)
			for _, h := range heldKeys {
				for _, k := range sumKeys {
					a := sum[k]
					chain := make([]string, 0, len(a.chain)+1)
					chain = append(chain, cs.callee.name)
					chain = append(chain, a.chain...)
					addEdge(h, &lockWitness{
						to: k, fn: n.name,
						heldPos: cs.held[h], atPos: cs.pos, acqPos: a.pos,
						chain: chain,
					})
				}
			}
		}
	}

	reportLockCycles(m, edges)
}

// scanLockFn walks one function body tracking the held-lock set with the
// same branch-clone semantics blockinglock uses: branch bodies get copies of
// the entry state, defer Unlock holds to function end, nested literals and
// spawned goroutines run with nothing of ours held.
func scanLockFn(m *ModulePass, fi *lockFnInfo) {
	n := fi.node

	var scanStmts func(stmts []ast.Stmt, held map[string]token.Pos)
	var scanStmt func(s ast.Stmt, held map[string]token.Pos)

	clone := func(h map[string]token.Pos) map[string]token.Pos {
		c := make(map[string]token.Pos, len(h))
		for k, v := range h {
			c[k] = v
		}
		return c
	}

	scanExpr := func(e ast.Expr, held map[string]token.Pos) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(nd ast.Node) bool {
			switch t := nd.(type) {
			case *ast.FuncLit:
				return false // its own node; runs with its caller's held set
			case *ast.CallExpr:
				if key, acq, rel, ok := lockOpKey(m, n, t); ok {
					if acq {
						// Record ordering edges from everything currently
						// held — including the key itself: re-acquiring a
						// held sync.Mutex is a self-deadlock.
						for h, hp := range held {
							fi.pairs = append(fi.pairs, lockPair{from: h, to: key, fromPos: hp, toPos: t.Pos()})
						}
						if _, dup := fi.acquires[key]; !dup {
							fi.acquires[key] = t.Pos()
						}
						held[key] = t.Pos()
					} else if rel {
						delete(held, key)
					}
					return true
				}
				if targets, kind := m.Graph.resolveCall(n.pkg, t, n.binds); kind != edgeRef {
					for _, c := range targets {
						fi.calls = append(fi.calls, lockCallSite{held: clone(held), callee: c, pos: t.Pos()})
					}
				}
			}
			return true
		})
	}

	scanStmts = func(stmts []ast.Stmt, held map[string]token.Pos) {
		for _, s := range stmts {
			scanStmt(s, held)
		}
	}
	scanStmt = func(s ast.Stmt, held map[string]token.Pos) {
		switch t := s.(type) {
		case *ast.ExprStmt:
			scanExpr(t.X, held)
		case *ast.SendStmt:
			scanExpr(t.Chan, held)
			scanExpr(t.Value, held)
		case *ast.AssignStmt:
			for _, e := range t.Rhs {
				scanExpr(e, held)
			}
			for _, e := range t.Lhs {
				scanExpr(e, held)
			}
		case *ast.DeclStmt:
			if gd, ok := t.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, e := range vs.Values {
							scanExpr(e, held)
						}
					}
				}
			}
		case *ast.DeferStmt:
			// defer x.Unlock() keeps the lock to function end: no state
			// change. Other deferred calls run at exit with an unknowable
			// held set — record the call with nothing held (their transitive
			// acquisitions still enter this function's summary via the call
			// graph's deferred edges).
			if _, _, rel, ok := lockOpKey(m, n, t.Call); ok && rel {
				return
			}
			if targets, kind := m.Graph.resolveCall(n.pkg, t.Call, n.binds); kind != edgeRef {
				for _, c := range targets {
					fi.calls = append(fi.calls, lockCallSite{held: make(map[string]token.Pos), callee: c, pos: t.Call.Pos()})
				}
			}
			for _, a := range t.Call.Args {
				scanExpr(a, held)
			}
		case *ast.GoStmt:
			// The spawned goroutine holds none of our locks; only argument
			// evaluation happens here.
			for _, a := range t.Call.Args {
				scanExpr(a, held)
			}
		case *ast.IfStmt:
			if t.Init != nil {
				scanStmt(t.Init, held)
			}
			scanExpr(t.Cond, held)
			scanStmts(t.Body.List, clone(held))
			if t.Else != nil {
				scanStmt(t.Else, clone(held))
			}
		case *ast.ForStmt:
			if t.Init != nil {
				scanStmt(t.Init, held)
			}
			scanExpr(t.Cond, held)
			body := clone(held)
			scanStmts(t.Body.List, body)
			if t.Post != nil {
				scanStmt(t.Post, body)
			}
		case *ast.RangeStmt:
			scanExpr(t.X, held)
			scanStmts(t.Body.List, clone(held))
		case *ast.SwitchStmt:
			if t.Init != nil {
				scanStmt(t.Init, held)
			}
			scanExpr(t.Tag, held)
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(cc.Body, clone(held))
				}
			}
		case *ast.TypeSwitchStmt:
			if t.Init != nil {
				scanStmt(t.Init, held)
			}
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(cc.Body, clone(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanStmts(cc.Body, clone(held))
				}
			}
		case *ast.BlockStmt:
			scanStmts(t.List, held)
		case *ast.LabeledStmt:
			scanStmt(t.Stmt, held)
		case *ast.ReturnStmt:
			for _, e := range t.Results {
				scanExpr(e, held)
			}
		case *ast.IncDecStmt:
			scanExpr(t.X, held)
		}
	}
	scanStmts(n.body.List, make(map[string]token.Pos))
}

// lockOpKey classifies a call as Lock/RLock or Unlock/RUnlock on a
// sync.Mutex/RWMutex and derives the lock's declaration-anchored identity:
// "pkg.Type.field" for struct fields, "pkg.var" for package-level mutexes,
// "fn.var" for locals. RLock orders like Lock: a reader and a writer on the
// same two locks in opposite orders still deadlock.
func lockOpKey(m *ModulePass, n *funcNode, call *ast.CallExpr) (key string, acquire, release, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false, false
	}
	recv := unparen(sel.X)
	t := typeOfIn(n.pkg, recv)
	if !isMutexType(t) {
		return "", false, false, false
	}
	return lockKeyFor(n, recv), acquire, release, true
}

func typeOfIn(p *Package, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// lockKeyFor anchors a mutex expression on its declaration so the same lock
// spells the same key in every function that touches it.
func lockKeyFor(n *funcNode, e ast.Expr) string {
	p := n.pkg
	switch t := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[t]; ok && s.Kind() == types.FieldVal {
			field := s.Obj()
			recv := s.Recv()
			if ptr, isPtr := recv.Underlying().(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				obj := named.Obj()
				pkgName := ""
				if obj.Pkg() != nil {
					pkgName = shortPkg(obj.Pkg().Path()) + "."
				}
				return pkgName + obj.Name() + "." + field.Name()
			}
		}
		// pkg.mu: a package-level mutex through a qualifier.
		if v, ok := p.Info.Uses[t.Sel].(*types.Var); ok && v.Pkg() != nil &&
			v.Parent() == v.Pkg().Scope() {
			return shortPkg(v.Pkg().Path()) + "." + v.Name()
		}
	case *ast.Ident:
		v, ok := p.Info.Uses[t].(*types.Var)
		if !ok {
			v, _ = p.Info.Defs[t].(*types.Var)
		}
		if v != nil {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return shortPkg(v.Pkg().Path()) + "." + v.Name()
			}
			return n.name + "." + v.Name()
		}
	}
	return n.name + "." + exprText(e)
}

// reportLockCycles finds strongly connected components of the lock graph
// and reports one finding per cycle, anchored on the first edge's
// acquisition site so a //lint:ignore can sit next to real code.
func reportLockCycles(m *ModulePass, edges map[string]map[string]*lockWitness) {
	keys := make([]string, 0, len(edges))
	index := make(map[string]int)
	for k := range edges {
		keys = append(keys, k)
	}
	for _, byTo := range edges {
		for to := range byTo {
			if _, ok := edges[to]; !ok {
				keys = append(keys, to)
				edges[to] = nil
			}
		}
	}
	sort.Strings(keys)
	for i, k := range keys {
		index[k] = i
	}

	// Tarjan over the lock graph.
	n := len(keys)
	idx := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	counter := 0
	var sccs [][]int
	var connect func(v int)
	connect = func(v int) {
		counter++
		idx[v], low[v] = counter, counter
		stack = append(stack, v)
		onStack[v] = true
		byTo := edges[keys[v]]
		tos := make([]string, 0, len(byTo))
		for to := range byTo {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			w := index[to]
			if idx[w] == 0 {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && idx[w] < low[v] {
				low[v] = idx[w]
			}
		}
		if low[v] == idx[v] {
			var scc []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for v := 0; v < n; v++ {
		if idx[v] == 0 {
			connect(v)
		}
	}

	for _, scc := range sccs {
		inSCC := make(map[string]bool, len(scc))
		for _, v := range scc {
			inSCC[keys[v]] = true
		}
		if len(scc) == 1 {
			k := keys[scc[0]]
			if edges[k][k] == nil {
				continue // no self-loop: acyclic singleton
			}
		}
		start := keys[scc[0]]
		for _, v := range scc {
			if keys[v] < start {
				start = keys[v]
			}
		}
		cycle := findCycle(edges, inSCC, start)
		if len(cycle) == 0 {
			continue
		}
		var path strings.Builder
		path.WriteString(cycle[0])
		var detail strings.Builder
		for i := 0; i+1 <= len(cycle)-1; i++ {
			from, to := cycle[i], cycle[i+1]
			w := edges[from][to]
			path.WriteString(" → ")
			path.WriteString(to)
			if i > 0 {
				detail.WriteString("; ")
			}
			fmt.Fprintf(&detail, "%s acquires %s at %s while holding %s (since %s)",
				w.fn, to, m.Fset.Position(w.acqPos), from, m.Fset.Position(w.heldPos))
			if len(w.chain) > 0 {
				fmt.Fprintf(&detail, " via %s", strings.Join(w.chain, " → "))
			}
		}
		first := edges[cycle[0]][cycle[1]]
		m.Reportf(first.atPos, "lock-order cycle: %s — %s", path.String(), detail.String())
	}
}

// findCycle returns a lock cycle [start ... start] inside one SCC.
func findCycle(edges map[string]map[string]*lockWitness, inSCC map[string]bool, start string) []string {
	// DFS restricted to SCC members until we step back onto start.
	var path []string
	visited := make(map[string]bool)
	var dfs func(k string) bool
	dfs = func(k string) bool {
		path = append(path, k)
		byTo := edges[k]
		tos := make([]string, 0, len(byTo))
		for to := range byTo {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if !inSCC[to] {
				continue
			}
			if to == start {
				path = append(path, start)
				return true
			}
			if visited[to] {
				continue
			}
			visited[to] = true
			if dfs(to) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	visited[start] = true
	if dfs(start) {
		return path
	}
	return nil
}
