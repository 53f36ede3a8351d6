package main

import (
	"os"
	"path/filepath"
	"testing"
)

// buildTestGraph loads one testdata package and builds its call graph.
func buildTestGraph(t *testing.T, name string) *CallGraph {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{filepath.Join(wd, "testdata", "src", name)})
	if err != nil {
		t.Fatal(err)
	}
	return buildCallGraph(pkgs)
}

// TestCallGraph pins the call-graph builder's own behavior: recursion,
// mutual recursion and interface dispatch widening, plus the callees-first
// SCC order every summary composition depends on.
func TestCallGraph(t *testing.T) {
	g := buildTestGraph(t, "callgraph")

	node := func(name string) *funcNode {
		t.Helper()
		for _, n := range g.nodes {
			if n.name == name {
				return n
			}
		}
		var names []string
		for _, n := range g.nodes {
			names = append(names, n.name)
		}
		t.Fatalf("no node %q; have %v", name, names)
		return nil
	}
	edgesTo := func(n *funcNode, callee string) []callEdge {
		var out []callEdge
		for _, e := range n.out {
			if e.callee.name == callee {
				out = append(out, e)
			}
		}
		return out
	}

	// Self-recursion: fact calls itself.
	fact := node("callgraph.fact")
	if es := edgesTo(fact, "callgraph.fact"); len(es) != 1 {
		t.Errorf("fact self-edge: got %+v", es)
	}

	// Mutual recursion: ping and pong share one SCC of size two.
	ping, pong := node("callgraph.ping"), node("callgraph.pong")
	if ping.sccID != pong.sccID {
		t.Errorf("ping sccID %d != pong sccID %d", ping.sccID, pong.sccID)
	}
	sccSize := 0
	for _, n := range g.nodes {
		if n.sccID == ping.sccID {
			sccSize++
		}
	}
	if sccSize != 2 {
		t.Errorf("ping/pong SCC size = %d, want 2", sccSize)
	}

	// Interface dispatch widens to every concrete implementation.
	dispatch := node("callgraph.dispatch")
	for _, impl := range []string{"(callgraph.A).Do", "(*callgraph.B).Do"} {
		if es := edgesTo(dispatch, impl); len(es) != 1 {
			t.Errorf("dispatch -> %s: got %+v", impl, es)
		}
	}

	// Callees-first: every cross-SCC edge points at an earlier SCC, the
	// invariant composeBottomUp's single forward pass relies on.
	for _, n := range g.nodes {
		for _, e := range n.out {
			if e.callee.sccID != n.sccID && e.callee.sccID > n.sccID {
				t.Errorf("edge %s -> %s breaks callees-first SCC order (%d -> %d)",
					n.name, e.callee.name, n.sccID, e.callee.sccID)
			}
		}
	}
}

// loadRepo loads the whole module from the test's working directory
// (cmd/reprolint).
func loadRepo(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkgs
}

// TestSuppressionInventory audits every //lint:ignore in the repository:
// each directive must be well-formed and name only registered checks, so a
// typo'd suppression cannot silently guard nothing, and there must be
// exactly as many as the allow-list holds — none. A lock held across a
// blocking operation is fixed, not suppressed.
func TestSuppressionInventory(t *testing.T) {
	loader, pkgs := loadRepo(t)

	known := map[string]bool{"lint": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	directives := 0
	for _, byLine := range collectIgnores(loader.Fset, pkgs) {
		for _, ds := range byLine {
			for _, d := range ds {
				directives++
				if !d.valid {
					t.Errorf("%s: malformed //lint:ignore", d.pos)
					continue
				}
				for _, c := range d.checks {
					if !known[c] {
						t.Errorf("%s: suppression names unregistered check %q", d.pos, c)
					}
				}
			}
		}
	}
	if allowed := 0; directives != allowed {
		t.Errorf("%d //lint:ignore directives in the repository, want %d", directives, allowed)
	}
}
