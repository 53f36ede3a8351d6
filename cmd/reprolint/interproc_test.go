package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLockOrderGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "lockorder"), wantsIn(t, "lockorder"))
}

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
// (cmd/reprolint), which it also returns.
func loadRepo(t *testing.T) (wd string, loader *Loader, pkgs []*Package) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err = NewLoader(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return wd, loader, pkgs
}

// TestSuppressionInventory audits every //lint:ignore in the repository:
// each directive must be well-formed and name only registered checks, so a
// typo'd suppression cannot silently guard nothing.
func TestSuppressionInventory(t *testing.T) {
	wd, loader, pkgs := loadRepo(t)

	known := map[string]bool{"lint": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// blockinglock suppressions are an exact allow-list, keyed by file and
	// the statement under the directive: the two exchange calls Client.Sync
	// and Client.Reset make under reqMu, which serialises whole exchanges by
	// design (only other Sync/Reset/FlushSubscribers callers queue on it). Any
	// other site means a lock held across a blocking operation again and
	// needs that design argument made, not a directive.
	root := filepath.Dir(filepath.Dir(wd))
	wantBlocking := map[string]int{
		"internal/rtr/client.go: return c.exchange(true, &ResetQuery{})": 1,
		"internal/rtr/client.go: err := c.exchange(full, q)":             1,
	}
	gotBlocking := make(map[string]int)

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
					if c == "blockinglock" {
						src, err := os.ReadFile(d.pos.Filename)
						if err != nil {
							t.Fatal(err)
						}
						rel, _ := filepath.Rel(root, d.pos.Filename)
						stmt := strings.TrimSpace(strings.Split(string(src), "\n")[d.pos.Line])
						gotBlocking[filepath.ToSlash(rel)+": "+stmt]++
					}
				}
			}
		}
	}
	for site, n := range gotBlocking {
		if wantBlocking[site] != n {
			t.Errorf("%d blockinglock suppression(s) at %q, allow-list has %d", n, site, wantBlocking[site])
		}
	}
	for site, n := range wantBlocking {
		if gotBlocking[site] == 0 {
			t.Errorf("allow-listed blockinglock suppression %q (%d) is gone; shrink the list", site, n)
		}
	}
	allowed := 0
	for _, n := range wantBlocking {
		allowed += n
	}
	if directives != allowed {
		t.Errorf("%d //lint:ignore directives in the repository, want the %d allow-listed blockinglock ones and nothing else", directives, allowed)
	}
}

// TestBlockingLockSeesExchange runs blockinglock on the real tree without the
// suppression layer: the inter-procedural summary must reach through
// Client.Sync/Reset into exchange's PDU write (the intraprocedural scan this
// check replaced saw nothing at a call site), and those two call sites must
// be all it finds — the allow-list above is what silences them.
func TestBlockingLockSeesExchange(t *testing.T) {
	_, loader, pkgs := loadRepo(t)
	var raw []Finding
	blockingLockAnalyzer.Run(&ModulePass{Fset: loader.Fset, Graph: buildCallGraph(pkgs), check: "blockinglock", findings: &raw})
	const want = "call to (*rtr.Client).exchange may block while rtr.Client.reqMu is held"
	for _, f := range raw {
		if !strings.Contains(f.Msg, want) || !strings.Contains(f.Msg, "blocking call rtr.WritePDU") {
			t.Errorf("unexpected raw finding: %s", f)
		}
	}
	if len(raw) != 2 {
		t.Errorf("got %d raw blockinglock findings, want the 2 exchange calls under reqMu: %v", len(raw), raw)
	}
}
