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
	if l.Snapshot().fams[0].sameLineage(&emptied.fams[0]) {
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
	if !before.fams[0].sameLineage(&l.Snapshot().fams[0]) {
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
	waitCompactor(t, &l.Table)
	cur := l.Snapshot()
	l.Table.compact(cur, nil)
	if compacted := l.Snapshot(); compacted.version != cur.version || compacted.fams[0].sameLineage(&cur.fams[0]) {
		t.Fatal("the compaction did not publish its rebuild in the snapshot's place")
	}
	checkDiffAgainstNaive(t, before, l.Snapshot())
	checkDiffAgainstNaive(t, old, l.Snapshot())
}

// TestDiffFromEmptyHandsOffOnce pins the one build whose parent is known: a
// Table.ResetTo of a list strictly in diffOrder answers the first Diff from an
// empty table with that very list, and a second Diff from empty walks into a
// fresh one. Both equal the walk bit for bit, whatever the list: in order, or
// with a VRP repeated, two entries of one prefix in descending (AS, MaxLength)
// order, IPv6 first or shuffled, which the table keeps nothing of. Neither a
// LiveIndex build nor a first full sync by Apply keeps its caller's list.
func TestDiffFromEmptyHandsOffOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	inOrder := randomTable(rng, 400) // a third of it IPv6
	slices.SortFunc(inOrder, diffOrder)
	repeated := slices.Insert(slices.Clone(inOrder), 200, inOrder[200])
	a, b := v("203.0.113.0/24", 24, 64500), v("203.0.113.0/24", 24, 64501)
	descending := append(slices.Clone(inOrder), a, b)
	slices.SortFunc(descending, diffOrder)
	at := slices.Index(descending, a)
	descending[at], descending[at+1] = b, a
	v6 := slices.IndexFunc(inOrder, func(v rpki.VRP) bool { return v.Prefix.Family() == prefix.IPv6 })
	v6First := append(slices.Clone(inOrder[v6:]), inOrder[:v6]...)
	shuffled := slices.Clone(inOrder)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	empty := NewIndex(rpki.NewSet(nil))
	diffEqualsWalk := func(name string, nw *Index) []rpki.VRP {
		t.Helper()
		gotA, gotW := Diff(empty, nw)
		if wantA, wantW := walkDiff(empty, nw); !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("%s: Diff from empty is +%d -%d VRPs, the walk +%d -%d, or they differ", name, len(gotA), len(gotW), len(wantA), len(wantW))
		}
		return gotA
	}
	for _, c := range []struct {
		name string
		list []rpki.VRP
		kept bool
	}{
		{"in diffOrder", inOrder, true},
		{"a VRP repeated", repeated, false},
		{"one prefix in descending (AS, MaxLength) order", descending, false},
		{"IPv6 before IPv4", v6First, false},
		{"shuffled", shuffled, false},
	} {
		list := slices.Clone(c.list)
		tab := NewTable(nil)
		tab.ResetTo(list)
		nw := tab.Snapshot()
		if kept := nw.handoff.Load() != nil; kept != c.kept {
			t.Fatalf("%s: ResetTo kept the list: %v, want %v", c.name, kept, c.kept)
		}
		first := diffEqualsWalk(c.name+", first Diff", nw)
		if c.kept && &first[0] != &list[0] {
			t.Errorf("%s: the first Diff from empty walked, not handed the list out", c.name)
		}
		if nw.handoff.Load() != nil {
			t.Errorf("%s: the snapshot still holds the list after a Diff from empty", c.name)
		}
		if second := diffEqualsWalk(c.name+", second Diff", nw); &second[0] == &first[0] {
			t.Errorf("%s: two Diffs from empty returned one backing array", c.name)
		}

		l := NewLiveIndex(rpki.NewSet(nil))
		l.ResetTo(list)
		built := l.Snapshot()
		l.Apply(nil, list)
		l.Apply(list, nil) // a first full sync: a build too
		for _, ix := range []*Index{built, l.Snapshot()} {
			if ix.handoff.Load() != nil {
				t.Fatalf("%s: a LiveIndex build kept its caller's list", c.name)
			}
		}
	}
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

// TestDiffOneSidedSubtrees pins what the lockstep walk hands over to the
// pre-order walk — a subtree only one side holds: everything under an empty
// table, a /12 block one table lacks — to the sorted-set difference, in
// order. The table is listed in descending (AS, MaxLength) order within each
// prefix, so a build or a delta that kept a span in the order it met its
// VRPs, instead of sorting it, would show in the merge's output; the pairs
// are taken over independent builds and within one lineage, both ways round.
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
	if !none.fams[0].sameLineage(&with.fams[0]) {
		t.Fatal("the path-copied snapshots do not share a lineage")
	}
	check("lineage/empty", none, with)
	check("lineage/block", without, with)
}

// TestSharedArena pins the lineage Diff's skip rule rests on: a build starts
// one, a path-copied delta carries its parent's, and nothing else shares it —
// not a zero index, not an independent build of the same set, not a
// compaction's rebuild, which keeps the version it replaces but not its slabs.
func TestSharedArena(t *testing.T) {
	var zero famIndex
	if zero.sameLineage(&zero) {
		t.Fatal("a zero trie shares a lineage")
	}
	rng := rand.New(rand.NewSource(61))
	table := randomTable(rng, 200)
	tab := NewTable(table)
	built := tab.Snapshot()
	for slot := range built.fams {
		if f := &built.fams[slot]; !f.sameLineage(f) {
			t.Fatalf("family %d of a build does not share its own lineage", slot)
		}
	}
	if other := newIndexFromVRPs(table, nil); built.fams[0].sameLineage(&other.fams[0]) {
		t.Fatal("two builds of one set share a lineage")
	}
	pathCopy(tab, randomTable(rng, 5), nil)
	copied := tab.Snapshot()
	if !built.fams[0].sameLineage(&copied.fams[0]) || !built.fams[1].sameLineage(&copied.fams[1]) {
		t.Fatal("a path-copied snapshot left its parent's lineage")
	}
	tab.compact(copied, nil)
	if compacted := tab.Snapshot(); compacted.version != copied.version || compacted.fams[0].sameLineage(&copied.fams[0]) {
		t.Fatal("the compaction's rebuild did not start a lineage of its own under the version it replaced")
	}
	tab.ResetTo(table)
	if tab.Snapshot().fams[0].sameLineage(&copied.fams[0]) {
		t.Fatal("ResetTo kept the replaced table's lineage")
	}
}

// TestDiffWalkSharedArenaVisitsOnlyCopiedPaths pins the skip rule: within one
// lineage, the walk descends only where the two snapshots' node indices part,
// the paths a delta copied. Two independent builds with the same prefixes, in
// the same order, lay out the same nodes at the same indices over different
// entries; with one build's lineage forged onto the other, equal indices hide
// those differences, and a walk that skipped nothing would report them. All
// Diff may report is what the delta's copied path leads to.
func TestDiffWalkSharedArenaVisitsOnlyCopiedPaths(t *testing.T) {
	var a, b []rpki.VRP
	for i, s := range []string{"10.0.0.0/8", "10.32.0.0/11", "192.168.0.0/16", "2001:db8::/32"} {
		p := mp(s)
		a = append(a, rpki.VRP{Prefix: p, MaxLength: p.Len(), AS: 1})
		b = append(b, rpki.VRP{Prefix: p, MaxLength: p.Len(), AS: 2}, rpki.VRP{Prefix: p, MaxLength: p.Len() + uint8(i), AS: 3})
	}
	old, tab := newIndexFromVRPs(a, nil), NewTable(b)
	for slot, f := range tab.Snapshot().fams {
		if !slices.EqualFunc(old.fams[slot].nodes, f.nodes, func(x, y node) bool { return x.children == y.children }) {
			t.Fatalf("family %d: the two builds lay out different nodes", slot)
		}
	}
	added := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 4}
	pathCopy(tab, []rpki.VRP{added}, nil)
	nw := tab.Snapshot()
	checkDiffAgainstNaive(t, old, nw) // the builds differ at every prefix

	old.fams[0].lineage, old.fams[1].lineage = nw.fams[0].lineage, nw.fams[1].lineage
	if announced, withdrawn := Diff(old, nw); !slices.Equal(announced, []rpki.VRP{added}) || len(withdrawn) != 0 {
		t.Fatalf("over one forged lineage, Diff is +%v -%v; want only +%v, the copied path's", announced, withdrawn, added)
	}
	// Equal roots in one lineage, the short-prefix trie's and the radix
	// root's: nothing to walk at all.
	nw.fams[0].root, nw.fams[0].top = old.fams[0].root, old.fams[0].top
	if announced, withdrawn := Diff(old, nw); len(announced)+len(withdrawn) != 0 {
		t.Fatalf("equal roots in one lineage: Diff is +%v -%v, want nothing", announced, withdrawn)
	}
}

// TestDiffWalkIndependentArenasFullUnion pins the walk across lineages: two
// independent builds share nothing provable, so every node of either is
// visited — a prefix only one holds is announced or withdrawn whole, one both
// hold by the entries that differ — in Diff's order.
func TestDiffWalkIndependentArenasFullUnion(t *testing.T) {
	onlyA := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	onlyB := rpki.VRP{Prefix: mp("11.0.0.0/8"), MaxLength: 8, AS: 1}
	bothA := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 1}
	bothB := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	same := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 3}
	a := NewIndex(rpki.NewSet([]rpki.VRP{onlyA, bothA, same}))
	b := NewIndex(rpki.NewSet([]rpki.VRP{onlyB, bothB, same}))
	if a.fams[0].sameLineage(&b.fams[0]) {
		t.Fatal("independent builds share a lineage")
	}
	announced, withdrawn := Diff(a, b)
	if !slices.Equal(announced, []rpki.VRP{onlyB, bothB}) || !slices.Equal(withdrawn, []rpki.VRP{onlyA, bothA}) {
		t.Fatalf("Diff is +%v -%v; want +%v -%v", announced, withdrawn, []rpki.VRP{onlyB, bothB}, []rpki.VRP{onlyA, bothA})
	}
	checkDiffAgainstNaive(t, a, b)
	checkDiffAgainstNaive(t, b, a)
}
