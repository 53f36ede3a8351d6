package core

import (
	"testing"

	"repro/internal/prefix"
)

func dwp(t *testing.T, s string) prefix.Prefix {
	t.Helper()
	return prefix.MustParse(s)
}

func v4Root(t *testing.T) prefix.Prefix {
	t.Helper()
	p, err := prefix.Make(prefix.IPv4, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSharedArena(t *testing.T) {
	var a, b Engine[int]
	if a.SharedArena(&b) {
		t.Fatal("zero engines must not share an arena")
	}
	a.Init(4, 0)
	b.Init(4, 0)
	if !a.SharedArena(&a) {
		t.Fatal("engine must share an arena with itself")
	}
	if a.SharedArena(&b) {
		t.Fatal("independent Init calls must not share an arena")
	}
	// A struct copy is a snapshot of the same history: it shares.
	snap := a
	a.Alloc(1)
	if !snap.SharedArena(&a) {
		t.Fatal("value-copied snapshot must share its origin's arena")
	}
	// Re-Init starts a new history.
	a.Init(4, 0)
	if snap.SharedArena(&a) {
		t.Fatal("re-Init must not inherit the old lineage")
	}
}

// pathCopyInsert emulates the rov.LiveIndex persistent update: clone every
// node along p's path (allocating the missing ones) onto the slab tail and
// return the new root and terminal. Nothing reachable from root is written.
func pathCopyInsert(e *Engine[int], root int32, p prefix.Prefix) (newRoot, term int32) {
	cur := e.Clone(root)
	newRoot = cur
	for depth := uint8(0); depth < p.Len(); depth++ {
		bit := p.Bit(depth)
		var next int32
		if c := e.Nodes[cur].Children[bit]; c != NoChild {
			next = e.Clone(c)
		} else {
			next = e.Alloc(0)
		}
		e.Nodes[cur].Children[bit] = next
		cur = next
	}
	return newRoot, cur
}

type dualVisit struct {
	a, b int32
	p    prefix.Prefix
}

func collectDiffWalk(ea, eb *Engine[int], ra, rb int32, at prefix.Prefix) []dualVisit {
	var out []dualVisit
	DiffWalk(ea, eb, ra, rb, at, func(ai, bi int32, p prefix.Prefix) {
		out = append(out, dualVisit{a: ai, b: bi, p: p})
	})
	return out
}

func TestDiffWalkSharedArenaVisitsOnlyCopiedPaths(t *testing.T) {
	var e Engine[int]
	e.Init(0, 0)
	base := []string{"10.0.0.0/8", "10.32.0.0/11", "192.168.0.0/16", "203.0.113.0/24"}
	for _, s := range base {
		e.PathInsert(0, dwp(t, s), 0)
	}
	snap := e // snapshot of the pre-update tree, same lineage
	ins := dwp(t, "10.64.0.0/10")
	newRoot, term := pathCopyInsert(&e, 0, ins)

	visits := collectDiffWalk(&snap, &e, 0, newRoot, v4Root(t))
	// Only the copied path differs: exactly the ancestors of the inserted
	// prefix (root included), in canonical order — not the whole table.
	if want := int(ins.Len()) + 1; len(visits) != want {
		t.Fatalf("visited %d node pairs, want %d (the copied path)", len(visits), want)
	}
	for i, v := range visits {
		if uint8(i) != v.p.Len() || !v.p.Contains(ins) {
			t.Fatalf("visit %d at %v: not an ancestor walk of %v", i, v.p, ins)
		}
	}
	last := visits[len(visits)-1]
	if last.p != ins || last.b != term {
		t.Fatalf("terminal visit %+v, want prefix %v node %d", last, ins, term)
	}
	if last.a != -1 {
		t.Fatalf("inserted terminal should be absent on the old side, got %d", last.a)
	}

	// Identical roots on a shared arena: nothing to visit at all.
	if got := collectDiffWalk(&e, &e, newRoot, newRoot, v4Root(t)); len(got) != 0 {
		t.Fatalf("identical shared roots visited %d pairs, want 0", len(got))
	}
}

func TestDiffWalkIndependentArenasFullUnion(t *testing.T) {
	var a, b Engine[int]
	a.Init(0, 0)
	b.Init(0, 0)
	onlyA := dwp(t, "10.0.0.0/8")
	onlyB := dwp(t, "11.0.0.0/8")
	both := dwp(t, "192.0.2.0/24")
	a.PathInsert(0, onlyA, 0)
	a.PathInsert(0, both, 0)
	b.PathInsert(0, onlyB, 0)
	b.PathInsert(0, both, 0)

	seen := make(map[prefix.Prefix]dualVisit)
	var order []prefix.Prefix
	DiffWalk(&a, &b, 0, 0, v4Root(t), func(ai, bi int32, p prefix.Prefix) {
		seen[p] = dualVisit{a: ai, b: bi, p: p}
		order = append(order, p)
	})
	// Every node of either tree is visited (no skippable sharing exists),
	// with -1 marking the absent side.
	va, ok := seen[onlyA]
	if !ok || va.a < 0 || va.b != -1 {
		t.Fatalf("prefix only in A: visit %+v, ok=%v", va, ok)
	}
	vb, ok := seen[onlyB]
	if !ok || vb.b < 0 || vb.a != -1 {
		t.Fatalf("prefix only in B: visit %+v, ok=%v", vb, ok)
	}
	vboth, ok := seen[both]
	if !ok || vboth.a < 0 || vboth.b < 0 {
		t.Fatalf("prefix in both: visit %+v, ok=%v", vboth, ok)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1].Compare(order[i]) >= 0 {
			t.Fatalf("visits out of canonical order: %v before %v", order[i-1], order[i])
		}
	}
}
