package main

// lockorder: the RTR and ROV layers stack several mutexes — the server's
// publish, registry and per-conn locks, the table's writer lock.
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
	"sort"
	"strings"
)

var lockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "reports every cycle in the inter-procedural lock-ordering graph over internal/rtr + internal/rov, with its witness path; " +
		"whether or not a test draws the interleaving that deadlocks on it, as rtr.TestServerCloseDuringPublish does for UpdateSet notifying under writeMu while Close takes writeMu under regMu",
	Run: runLockOrder,
}

// lockScoped is where lockorder and blockinglock enforce their invariants:
// the packages that stack mutexes, plus the checks' testdata.
func lockScoped(path string) bool {
	return strings.Contains(path, "internal/rtr") ||
		strings.Contains(path, "internal/rov") ||
		strings.Contains(path, "testdata/src/")
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

	// Phase 1: every scoped function's direct acquisitions.
	direct := make(map[*funcNode]map[string]token.Pos)
	var scoped []*funcNode
	for _, n := range g.nodes {
		if n.body == nil || !lockScoped(n.pkg.Path) {
			continue
		}
		acq := make(map[string]token.Pos)
		walkHeld(g, n, heldEvents{acquire: func(key string, pos token.Pos, _ heldSet) {
			if _, dup := acq[key]; !dup {
				acq[key] = pos
			}
		}})
		direct[n] = acq
		scoped = append(scoped, n)
	}

	// Phase 2: compose transitive acquires bottom-up over the call graph.
	// Direct acquisitions only exist for scoped functions, but composition
	// runs module-wide so a scoped→unscoped→scoped call chain still carries.
	summaries := make(map[*funcNode]map[string]*witness)
	g.composeBottomUp(func(n *funcNode) bool {
		s := summaries[n]
		if s == nil {
			s = make(map[string]*witness)
			summaries[n] = s
		}
		grew := false
		for k, pos := range direct[n] {
			if s[k] == nil {
				s[k] = &witness{pos: pos}
				grew = true
			}
		}
		for _, e := range n.out {
			if e.spawn {
				continue
			}
			for k, a := range summaries[e.callee] {
				if s[k] == nil {
					s[k] = a.via(e.callee)
					grew = true
				}
			}
		}
		return grew
	})

	// Phase 3: walk the scoped functions again, now with the summaries, and
	// generate the lock-ordering graph. First witness per edge wins; node
	// order is deterministic (loader topo × file × position) and so is the
	// walk, so so is the witness choice.
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
		walkHeld(g, n, heldEvents{
			// Everything currently held orders before key — including key
			// itself: re-acquiring a held sync.Mutex is a self-deadlock.
			acquire: func(key string, pos token.Pos, held heldSet) {
				for _, h := range held {
					addEdge(h.key, &lockWitness{to: key, fn: n.name, heldPos: h.pos, atPos: pos, acqPos: pos})
				}
			},
			call: func(call *ast.CallExpr, callees []*funcNode, held heldSet) {
				// One call contributes each (held, acquired) pair at most once
				// per callee, and callees come sorted, so map order is moot.
				for _, c := range callees {
					for k, a := range summaries[c] {
						for _, h := range held {
							addEdge(h.key, &lockWitness{
								to: k, fn: n.name,
								heldPos: h.pos, atPos: call.Pos(), acqPos: a.pos,
								chain: a.via(c).chain,
							})
						}
					}
				}
			},
		})
	}

	reportLockCycles(m, edges)
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
