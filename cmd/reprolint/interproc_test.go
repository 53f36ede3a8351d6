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

func TestGoroLeakGolden(t *testing.T) {
	checkGolden(t, loadTestdata(t, "goroleak"), wantsIn(t, "goroleak"))
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
	return buildCallGraph(loader.Fset, pkgs)
}

// TestCallGraph pins the call-graph builder's own behavior: recursion,
// mutual recursion, interface dispatch widening, method values, and
// single-assignment func-literal bindings, plus the callees-first SCC order
// every summary composition depends on.
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

	// Self-recursion: fact calls itself statically.
	fact := node("callgraph.fact")
	if es := edgesTo(fact, "callgraph.fact"); len(es) != 1 || es[0].kind != edgeStatic {
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
		if es := edgesTo(dispatch, impl); len(es) != 1 || es[0].kind != edgeIface {
			t.Errorf("dispatch -> %s: got %+v", impl, es)
		}
	}

	// A method value is a reference, not a call.
	takeValue := node("callgraph.takeValue")
	if es := edgesTo(takeValue, "(callgraph.A).Do"); len(es) != 1 || es[0].kind != edgeRef {
		t.Errorf("takeValue -> (callgraph.A).Do: got %+v", es)
	}

	// A single-assignment local binding resolves the literal statically,
	// and the literal's own edges compose onward.
	useBound := node("callgraph.useBound")
	if es := edgesTo(useBound, "callgraph.useBound$1"); len(es) == 0 || es[0].kind != edgeStatic {
		t.Errorf("useBound -> useBound$1: got %+v", es)
	}
	lit := node("callgraph.useBound$1")
	if es := edgesTo(lit, "callgraph.fact"); len(es) != 1 || es[0].kind != edgeStatic {
		t.Errorf("useBound$1 -> fact: got %+v", es)
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

// TestMayGrowSlab pins arenaptr's derived growth summary on the real tree:
// the engine methods that append, a reset that appends into a truncated
// slab, a rov helper that only wraps Clone and a build that reaches Alloc two
// calls down are all in it; pure readers are not. Nothing here is named in
// the linter.
func TestMayGrowSlab(t *testing.T) {
	_, loader, pkgs := loadRepo(t)
	g := buildCallGraph(loader.Fset, pkgs)
	summary := mayGrowSlab(g)
	mayGrow := make(map[string]bool)
	for _, n := range g.nodes {
		mayGrow[n.name] = summary[n] != nil
	}
	for name, want := range map[string]bool{
		"(*core.Engine[V]).PathInsert": true,
		"rov.CompactFromIndex":         true,
		"(*core.mtrie).reset":          true,
		"(*rov.Table).pathCopy":        true,
		"(*core.Engine[V]).PathFind":   false,
		"(*rov.Index).Validate":        false,
	} {
		if got, ok := mayGrow[name]; !ok || got != want {
			t.Errorf("mayGrowSlab[%s] = %v (a node: %v), want %v", name, got, ok, want)
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

	seen := make(map[*ignoreDirective]bool)
	for _, byLine := range collectIgnores(loader.Fset, pkgs) {
		for _, ds := range byLine {
			for _, d := range ds {
				if seen[d] {
					continue // indexed under both its line and the line below
				}
				seen[d] = true
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
	if len(seen) != allowed {
		t.Errorf("%d //lint:ignore directives in the repository, want the %d allow-listed blockinglock ones and nothing else", len(seen), allowed)
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
	blockingLockAnalyzer.Run(&ModulePass{
		Fset: loader.Fset, Pkgs: pkgs,
		Graph: buildCallGraph(loader.Fset, pkgs), check: "blockinglock", findings: &raw,
	})
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
