package rov

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// The tests in this file pin Diff bit-identical to naiveSetDiff, a reference
// that knows nothing about tries or arenas: materialize both tables, take
// the two set differences, sort canonically. Agreement is checked over both
// regimes Diff distinguishes — shared-ancestry snapshot pairs (one LiveIndex
// history, where the structural walk skips shared subtrees) and
// independent-build pairs (two unrelated indexes, the linear fallback).

// sortVRPsCanonical sorts vs into Diff's documented output order: canonical
// prefix order, then AS, then MaxLength.
func sortVRPsCanonical(vs []rpki.VRP) {
	sort.Slice(vs, func(i, j int) bool {
		if c := vs[i].Prefix.Compare(vs[j].Prefix); c != 0 {
			return c < 0
		}
		if vs[i].AS != vs[j].AS {
			return vs[i].AS < vs[j].AS
		}
		return vs[i].MaxLength < vs[j].MaxLength
	})
}

// naiveSetDiff is the reference: plain set difference over the two
// materialized tables, canonically sorted.
func naiveSetDiff(old, nw []rpki.VRP) (announced, withdrawn []rpki.VRP) {
	os := make(map[rpki.VRP]bool, len(old))
	for _, v := range old {
		os[v] = true
	}
	ns := make(map[rpki.VRP]bool, len(nw))
	for _, v := range nw {
		ns[v] = true
	}
	for _, v := range nw {
		if !os[v] {
			announced = append(announced, v)
		}
	}
	for _, v := range old {
		if !ns[v] {
			withdrawn = append(withdrawn, v)
		}
	}
	sortVRPsCanonical(announced)
	sortVRPsCanonical(withdrawn)
	return announced, withdrawn
}

// checkDiffAgainstNaive asserts Diff(old, nw) is bit-identical to the naive
// reference over the same two tables.
func checkDiffAgainstNaive(t *testing.T, old, nw *Index) {
	t.Helper()
	gotA, gotW := Diff(old, nw)
	wantA, wantW := naiveSetDiff(old.AppendVRPs(nil), nw.AppendVRPs(nil))
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("announced mismatch:\n got %v\nwant %v", gotA, wantA)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Fatalf("withdrawn mismatch:\n got %v\nwant %v", gotW, wantW)
	}
}

// randomTable draws n distinct random VRPs.
func randomTable(rng *rand.Rand, n int) []rpki.VRP {
	seen := make(map[rpki.VRP]bool, n)
	var out []rpki.VRP
	for len(out) < n {
		v := randomVRP(rng)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func TestDiffMatchesNaiveSharedAncestry(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 30; iter++ {
		base := randomTable(rng, 150)
		l := NewLiveIndex(rpki.NewSet(base))
		old := l.Snapshot()
		table := make(map[rpki.VRP]bool, len(base))
		for _, v := range base {
			table[v] = true
		}
		// Churn through several Applies: announce fresh VRPs, withdraw
		// existing ones, and re-announce VRPs already present (no-ops the
		// diff must not report).
		for k := 0; k < 4; k++ {
			var ann, wd []rpki.VRP
			for i := 0; i < 10; i++ {
				v := randomVRP(rng)
				ann = append(ann, v)
				table[v] = true
			}
			for v := range table {
				if rng.Intn(12) == 0 {
					wd = append(wd, v)
					delete(table, v)
				}
			}
			l.Apply(ann, wd)
		}
		settle(t, l)
		checkDiffAgainstNaive(t, old, l.Snapshot())

		// The reverse direction swaps announced and withdrawn.
		checkDiffAgainstNaive(t, l.Snapshot(), old)
	}
}

func TestDiffMatchesNaiveIndependentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 30; iter++ {
		old := randomTable(rng, 120)
		// Derive the second table from the first: drop some, add some, so
		// the overlap the linear walk must cancel out is substantial.
		var nw []rpki.VRP
		for _, v := range old {
			if rng.Intn(8) != 0 {
				nw = append(nw, v)
			}
		}
		nw = append(nw, randomTable(rng, 15)...)
		checkDiffAgainstNaive(t, NewIndex(rpki.NewSet(old)), NewIndex(rpki.NewSet(nw)))
	}
}

func TestDiffEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	table := randomTable(rng, 50)
	ix := NewIndex(rpki.NewSet(table))
	empty := NewIndex(rpki.NewSet(nil))

	if a, w := Diff(ix, ix); a != nil || w != nil {
		t.Fatalf("Diff(ix, ix) = %v, %v; want nil, nil", a, w)
	}
	// Equal tables, independent builds: still empty.
	if a, w := Diff(ix, NewIndex(rpki.NewSet(table))); len(a) != 0 || len(w) != 0 {
		t.Fatalf("Diff over equal independent tables = %v, %v; want empty", a, w)
	}
	checkDiffAgainstNaive(t, empty, ix) // everything announced
	checkDiffAgainstNaive(t, ix, empty) // everything withdrawn
}

// TestDiffSurvivesCompactionAndReset pins Diff across each way a table is
// built and the one way it is changed: ResetTo and a first full sync start a
// new arena lineage, walked linearly; a delta as large as the table is
// path-copied, and Diff against its parent is exactly the net delta applied;
// and a compaction keeps its version, so Diff from before everything is still
// the naive difference.
func TestDiffSurvivesCompactionAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	base := randomTable(rng, 100)
	l := NewLiveIndex(rpki.NewSet(base))
	old := l.Snapshot()

	// ResetTo rebuilds into a fresh arena: the snapshots no longer share a
	// lineage and Diff must take the linear path, still exact.
	next := randomTable(rng, 90)
	l.ResetTo(next)
	checkDiffAgainstNaive(t, old, l.Snapshot())

	// So does a first full sync, into the table emptied by a delta.
	emptied := l.Snapshot()
	l.Apply(nil, next)
	l.Apply(next, nil)
	if l.Snapshot().fams[0].eng.SharedArena(&emptied.fams[0].eng) {
		t.Fatal("a first full sync was path-copied, not built")
	}
	checkDiffAgainstNaive(t, emptied, l.Snapshot())
	checkDiffAgainstNaive(t, old, l.Snapshot())

	// A delta the size of the table is path-copied: the delta it applied —
	// no-ops, a repeat and an announce the same delta withdraws included — is
	// exactly what Diff finds between the snapshots on either side of it.
	before := l.Snapshot()
	ann := append(randomTable(rng, 80), next[0], next[1])
	ann = append(ann, ann[0])
	wd := append([]rpki.VRP{ann[1], markerVRP(3)}, next[10:50]...)
	l.Apply(ann, wd)
	if !before.fams[0].eng.SharedArena(&l.Snapshot().fams[0].eng) {
		t.Fatalf("%d operations into %d VRPs were rebuilt, not path-copied", len(ann)+len(wd), before.Len())
	}
	applied := map[rpki.VRP]bool{}
	for _, v := range next {
		applied[v] = true
	}
	for _, v := range ann {
		applied[v] = true
	}
	for _, v := range wd {
		delete(applied, v)
	}
	var after []rpki.VRP
	for v := range applied {
		after = append(after, v)
	}
	wantA, wantW := naiveSetDiff(next, after)
	if gotA, gotW := checkParentDiff(t, "a table-sized delta", before, l.Snapshot()); !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotW, wantW) {
		t.Fatalf("Diff across a table-sized delta: +%d -%d, want the applied net delta +%d -%d", len(gotA), len(gotW), len(wantA), len(wantW))
	}

	// A compaction: the same version in fresh slabs.
	waitCompactor(t, &l.tab)
	cur := l.Snapshot()
	l.tab.compact(cur, nil)
	if compacted := l.Snapshot(); compacted.version != cur.version || compacted.fams[0].eng.SharedArena(&cur.fams[0].eng) {
		t.Fatal("the compaction did not publish its rebuild in the snapshot's place")
	}
	checkDiffAgainstNaive(t, before, l.Snapshot())
	checkDiffAgainstNaive(t, old, l.Snapshot())
}

// checkDiffAgainstWalk fails unless Diff(old, nw) is what the walk finds, in
// the walk's order, and returns it.
func checkDiffAgainstWalk(t *testing.T, name string, old, nw *Index) (announced, withdrawn []rpki.VRP) {
	t.Helper()
	announced, withdrawn = Diff(old, nw)
	wantA, wantW := walkDiff(old, nw)
	if !slices.Equal(announced, wantA) || !slices.Equal(withdrawn, wantW) {
		t.Fatalf("%s: Diff is +%v -%v, the walk +%v -%v", name, announced, withdrawn, wantA, wantW)
	}
	return announced, withdrawn
}

// checkParentDiff fails unless nw is old's child and Diff(old, nw) — the delta
// nw carries — is what the walk finds. It returns the delta.
func checkParentDiff(t *testing.T, name string, old, nw *Index) (announced, withdrawn []rpki.VRP) {
	t.Helper()
	if nw.parent != old.version {
		t.Fatalf("%s: version %d is not the parent of version %d (parent %d)", name, old.version, nw.version, nw.parent)
	}
	return checkDiffAgainstWalk(t, name, old, nw)
}

// TestDiffOfParentEqualsWalk pins Diff of a snapshot against its parent — the
// net delta the snapshot carries — to the walk it skips, order included: for a
// clustered delta given out of order, for operations that change nothing or
// cancel out, for a delta whose caller then reuses its slice, and for a pair
// straddling a compaction, whose rebuild keeps the version of the snapshot it
// replaced. ResetTo of an equal set is no child: it is walked, and the walk
// finds nothing.
func TestDiffOfParentEqualsWalk(t *testing.T) {
	tab := NewTable(todayTable(t))
	present := tab.Snapshot().AppendVRPs(nil)
	beside := present[100] // a VRP at a prefix that holds one
	beside.AS += 1000
	reversed := clustered8(the21, 64501)
	slices.Reverse(reversed)
	for _, c := range []struct {
		name               string
		announce, withdraw []rpki.VRP
		ann, wd            int
	}{
		{"a clustered delta, out of order", reversed, nil, 8, 0},
		{"an announce the same delta withdraws", []rpki.VRP{beside, markerVRP(1)}, []rpki.VRP{beside}, 1, 0},
		{"a repeated announce", []rpki.VRP{markerVRP(2), markerVRP(2), present[5]}, nil, 1, 0},
		{"a present VRP announced and withdrawn", []rpki.VRP{present[7], markerVRP(3)}, []rpki.VRP{present[7]}, 1, 1},
	} {
		old := tab.Snapshot()
		tab.Apply(c.announce, c.withdraw)
		if a, w := checkParentDiff(t, c.name, old, tab.Snapshot()); len(a) != c.ann || len(w) != c.wd {
			t.Fatalf("%s: +%d -%d, want +%d -%d", c.name, len(a), len(w), c.ann, c.wd)
		}
	}

	// The carried delta is the table's own: the caller may reuse its slice.
	reuse := clustered8(the21, 64502)
	old := tab.Snapshot()
	tab.Apply(reuse, nil)
	nw := tab.Snapshot()
	for i := range reuse {
		reuse[i] = markerVRP(10 + i)
	}
	checkParentDiff(t, "a delta whose caller reused its slice", old, nw)

	last, compacted, first := acrossCompaction(t, tab)
	if compacted.version != last.version {
		t.Fatalf("the compaction published version %d in place of %d", compacted.version, last.version)
	}
	if a, w := Diff(last, compacted); a != nil || w != nil {
		t.Fatalf("Diff of one version across a compaction: +%d -%d", len(a), len(w))
	}
	if a, w := walkDiff(last, compacted); len(a)+len(w) != 0 {
		t.Fatalf("the compaction changed the table: +%d -%d", len(a), len(w))
	}
	if a, w := checkParentDiff(t, "across a compaction", last, first); len(a) != 8 || len(w) != 8 {
		t.Fatalf("across a compaction: +%d -%d, want +8 -8", len(a), len(w))
	}

	old = tab.Snapshot()
	tab.ResetTo(old.AppendVRPs(nil))
	if nw := tab.Snapshot(); nw.parent == old.version || nw.version == old.version {
		t.Fatalf("ResetTo published version %d with parent %d after version %d", nw.version, nw.parent, old.version)
	}
	if a, w := Diff(old, tab.Snapshot()); len(a)+len(w) != 0 {
		t.Fatalf("Diff across ResetTo of an equal set: +%d -%d", len(a), len(w))
	}
}

// TestDiffOneSidedSubtrees pins what DiffWalk hands over to a single-trie walk
// — a subtree only one side holds: everything under an empty table, a /12
// block one table lacks — to the sorted-set difference, in order. Every span
// of the table was filled in descending (AS, MaxLength) order, so an output
// that kept span order instead of sorting within a prefix would show; the
// pairs are taken over independent arenas and within one lineage, both ways
// round.
func TestDiffOneSidedSubtrees(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	block := mp("10.16.0.0/12")
	table := randomTable(rng, 300)
	for i := 0; i < 40; i++ { // the block: nested prefixes, three entries each
		l := uint8(12 + rng.Intn(13))
		p, err := prefix.Make(prefix.IPv4, (10<<24|16<<16|uint64(rng.Intn(1<<20)))<<32, 0, l)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			table = append(table, rpki.VRP{Prefix: p, MaxLength: l + uint8(k), AS: rpki.ASN(100 + i%7 + 10*k)})
		}
	}
	table = rpki.NewSet(table).VRPs() // distinct
	sortVRPsCanonical(table)
	slices.Reverse(table) // within a prefix: (AS, MaxLength) descending
	var inBlock, rest []rpki.VRP
	for _, v := range table {
		if block.Contains(v.Prefix) {
			inBlock = append(inBlock, v)
		} else {
			rest = append(rest, v)
		}
	}
	if len(inBlock) < 100 || len(rest) < 250 {
		t.Fatalf("the table has %d VRPs in the block and %d outside it", len(inBlock), len(rest))
	}

	check := func(name string, a, b *Index) {
		t.Run(name, func(t *testing.T) {
			checkDiffAgainstNaive(t, a, b)
			checkDiffAgainstNaive(t, b, a)
		})
	}
	empty, whole, lacking := newIndexFromVRPs(nil, nil), newIndexFromVRPs(table, nil), newIndexFromVRPs(rest, nil)
	check("independent/empty", empty, whole)
	check("independent/block", lacking, whole)

	// One lineage: the table, then the block, path-copied onto an empty table.
	tab := NewTable(nil)
	none := tab.Snapshot()
	pathCopy(tab, rest, nil)
	without := tab.Snapshot()
	pathCopy(tab, inBlock, nil)
	with := tab.Snapshot()
	if !none.fams[0].eng.SharedArena(&with.fams[0].eng) {
		t.Fatal("the path-copied snapshots do not share a lineage")
	}
	check("lineage/empty", none, with)
	check("lineage/block", without, with)
}
