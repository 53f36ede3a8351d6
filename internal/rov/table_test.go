package rov

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// clustered8 returns eight /24s of the /21 at base (an IPv4 address in the top
// 32 bits of a uint64), at origin as: the shape of a one-ROA edit, and of
// roa_change's deltas.
func clustered8(base uint64, as rpki.ASN) []rpki.VRP {
	out := make([]rpki.VRP, 8)
	for k := range out {
		p, err := prefix.Make(prefix.IPv4, base+uint64(k)<<40, 0, 24)
		if err != nil {
			panic(err)
		}
		out[k] = rpki.VRP{Prefix: p, MaxLength: 24, AS: as}
	}
	return out
}

// the21 is 198.51.96.0/21, the /21 the clustered tests and benchmarks edit.
const the21 = uint64(198<<24|51<<16|96<<8) << 32

// spanAt returns the span of p's node in ix (the zero span if there is none).
func spanAt(ix *Index, p prefix.Prefix) span {
	f := &ix.fams[famSlot(p.Family())]
	if idx := f.eng.PathFind(f.root, p); idx >= 0 {
		return f.eng.Nodes[idx].Val
	}
	return span{}
}

// garbage reads tab's garbage counters.
func garbage(tab *Table) (nodes, entries int) {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.garbageNodes, tab.garbageEntries
}

// checkEntryGarbage fails unless tab counts every dead cell of its current
// entry slab as garbage. Every cell of a slab built from VRPs without repeats
// is live, and each later cell is a span's or dead, so the count must be the
// slab's length less the table's.
func checkEntryGarbage(t *testing.T, tab *Table) {
	t.Helper()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	cur := tab.cur.Load()
	if dead := len(cur.entries) - cur.Len(); tab.garbageEntries != dead {
		t.Fatalf("garbageEntries = %d, but %d of the entry slab's %d cells are dead", tab.garbageEntries, dead, len(cur.entries))
	}
}

// TestCompactCopiesLiveSlab pins what a compaction publishes to the build of
// the table's VRP stream, node for node and entry for entry, on a table of
// today's size churned by roa_change's deltas until a compaction is due: the
// withdrawn chains it reaches are not rebuilt. TestCompactAllocs pins the
// slabs' sizes.
func TestCompactCopiesLiveSlab(t *testing.T) {
	tab, _ := churnedTable(t)
	src := tab.Snapshot()
	tab.compact(src, nil)
	got, want := tab.Snapshot(), newIndexFromVRPs(src.AppendVRPs(nil), nil)
	if got.fams[0].eng.SharedArena(&src.fams[0].eng) || got.version != src.version {
		t.Fatalf("the compaction published version %d on src's slabs: %v; want version %d in fresh slabs", got.version, got.fams[0].eng.SharedArena(&src.fams[0].eng), src.version)
	}
	checkSameSlabs(t, "the compaction's rebuild", got, want)
	reachable := 0
	for slot := range src.fams {
		src.fams[slot].eng.Walk(src.fams[slot].root, rootPrefix(slot), func(int32, prefix.Prefix) { reachable++ })
	}
	if _, live := nodeCaps(want); reachable <= live {
		t.Fatalf("the churned table reaches %d nodes, its build holds %d: no withdrawn chain to drop", reachable, live)
	}
}

// TestDeltaShapes applies one path-copied delta of the shapes a finger must
// read right whatever order they come in: a nested chain and a sibling listed
// deepest first, both families' /0, an IPv6 /96 (bits of the address's low
// word), a repeated announce, a VRP announced and withdrawn, a present VRP
// withdrawn, and two absent withdraws, the second under the first, whose
// descent stops above where an earlier operation's path went on. After it the
// table is the reference set, Diff is the walk, every dead entry cell counts,
// the snapshot before it still holds its table, and the caller's slices are as
// given.
func TestDeltaShapes(t *testing.T) {
	var base []rpki.VRP
	for k := 0; k < 64; k++ {
		base = append(base, markerVRP(k))
	}
	base = append(base, v("10.1.0.0/16", 16, 9), v("10.1.2.0/24", 24, 5))
	announce := []rpki.VRP{
		v("10.1.2.0/24", 24, 1), v("10.1.3.0/24", 24, 1), v("10.1.0.0/16", 24, 1), v("10.0.0.0/8", 16, 1),
		v("0.0.0.0/0", 8, 3), v("::/0", 8, 3), v("2001:db8::5:6:0:0/96", 96, 2),
		v("10.1.2.0/24", 24, 1),
	}
	withdraw := []rpki.VRP{
		v("10.9.2.0/24", 24, 1), // the finger's path to 10.1.2.0/24 has its bits from /16 on
		v("10.9.0.0/16", 16, 1), // absent below 10.0.0.0/12
		v("10.1.3.0/24", 24, 1),
		v("10.1.0.0/16", 16, 9),
	}
	want := map[rpki.VRP]struct{}{}
	for _, v := range append(slices.Clone(base), announce...) {
		want[v] = struct{}{}
	}
	for _, v := range withdraw {
		delete(want, v)
	}
	givenA, givenW := slices.Clone(announce), slices.Clone(withdraw)

	tab := NewTable(base)
	before := tab.Snapshot()
	tab.Apply(announce, withdraw)
	after := tab.Snapshot()
	if !before.fams[0].eng.SharedArena(&after.fams[0].eng) {
		t.Fatal("the delta was not path-copied")
	}
	if extra, missing := naiveSetDiff(setOf(want).VRPs(), after.AppendVRPs(nil)); len(extra)+len(missing) != 0 || after.Len() != len(want) {
		t.Fatalf("after the delta: %v extra, %v missing, Len() %d of %d", extra, missing, after.Len(), len(want))
	}
	if extra, missing := naiveSetDiff(base, before.AppendVRPs(nil)); len(extra)+len(missing) != 0 || before.Len() != len(base) {
		t.Fatalf("the snapshot before the delta: %v extra, %v missing, Len() %d of %d", extra, missing, before.Len(), len(base))
	}
	checkParentDiff(t, "the delta", before, after)
	checkEntryGarbage(t, tab)
	if !slices.Equal(announce, givenA) || !slices.Equal(withdraw, givenW) {
		t.Fatalf("Apply reordered the caller's slices: +%v -%v", announce, withdraw)
	}
}

// TestDeltaCopiesEachPathOnce pins the one rule that makes a multi-VRP delta
// cost the union of its paths: inside one delta a published node is cloned at
// most once — whatever the delta cloned or allocated is unpublished and
// written in place — while no published snapshot is ever written, and every
// entry cell a delta leaves dead still counts toward compaction.
func TestDeltaCopiesEachPathOnce(t *testing.T) {
	t.Run("a clustered delta clones the union of its paths", func(t *testing.T) {
		// The eight /24s are in the table (at another origin), so their paths
		// exist: root, 21 nodes down to the /21, then 2 + 4 + 8 — 36 nodes,
		// where eight separate root-to-/24 paths are 8 × 25 = 200. The order
		// the caller lists them in changes neither, nor the delta carried.
		given := clustered8(the21, 64501) // in prefix order
		reversed, shuffled := slices.Clone(given), slices.Clone(given)
		slices.Reverse(reversed)
		rand.New(rand.NewSource(83)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, c := range []struct {
			name  string
			delta []rpki.VRP
		}{{"given", given}, {"reversed", reversed}, {"shuffled", shuffled}} {
			t.Run(c.name, func(t *testing.T) {
				tab := NewTable(append(slices.Clone(benchSet().VRPs()), clustered8(the21, 64500)...))
				before := tab.Snapshot()
				moved := 0 // entries the eight spans held before the delta
				for _, v := range c.delta {
					moved += int(spanAt(before, v.Prefix).n)
				}
				tab.Apply(c.delta, nil)
				after := tab.Snapshot()
				gn, ge := garbage(tab)
				if grew := len(after.fams[0].eng.Nodes) - len(before.fams[0].eng.Nodes); grew != 36 || gn != 36 {
					t.Fatalf("the node slab grew by %d and the garbage by %d nodes, want 36 and 36 (the union of the paths)", grew, gn)
				}
				if grew := len(after.entries) - len(before.entries); grew != moved+8 || ge != moved {
					t.Fatalf("the entry slab grew by %d and the garbage by %d, want %d and %d (each span moved once)", grew, ge, moved+8, moved)
				}
				if !slices.Equal(after.announced, given) || len(after.withdrawn) != 0 {
					t.Fatalf("the snapshot carries +%v -%v, want +%v", after.announced, after.withdrawn, given)
				}
				checkEntryGarbage(t, tab)
			})
		}
	})

	t.Run("every cell a delta leaves dead is garbage", func(t *testing.T) {
		// Announces alternating between two prefixes move each one's growing
		// span on every announce, and an announce+withdraw of one VRP vacates
		// its cell: k of them leave O(k²) dead cells in one delta, and all of
		// them must count, or the delta inflates the slab with no compaction.
		tab := NewTable(randomTable(rand.New(rand.NewSource(79)), 2000))
		compactions := countCompactions(tab)
		p, q := clustered8(the21, 0)[0].Prefix, clustered8(the21, 0)[1].Prefix
		var ann []rpki.VRP
		for as := rpki.ASN(1); as <= 300; as++ {
			ann = append(ann, rpki.VRP{Prefix: p, MaxLength: 24, AS: as}, rpki.VRP{Prefix: q, MaxLength: 24, AS: as})
		}
		tab.Apply(ann, ann[:2])
		checkEntryGarbage(t, tab)
		waitCompactor(t, tab)
		if n := compactions.Load(); n != 1 {
			t.Fatalf("%d compactions published after a delta that left 90,300 dead cells beside 2,598 live ones, want 1", n)
		}
		checkEntryGarbage(t, tab)
		if got, want := tab.Len(), 2000+598; got != want {
			t.Fatalf("Len() = %d after the compaction, want %d", got, want)
		}
	})

	t.Run("a compaction's catch-up leaves no node garbage", func(t *testing.T) {
		rng := rand.New(rand.NewSource(71))
		state := map[rpki.VRP]struct{}{}
		for _, v := range randomTable(rng, 400) {
			state[v] = struct{}{}
		}
		tab := NewTable(setOf(state).VRPs())
		compactions := countCompactions(tab)
		started, release := wedgeCompactions(tab)
		for i := 0; started.Load() == 0; i++ {
			if i == 200000 {
				t.Fatal("churn never triggered a compaction")
			}
			v := markerVRP(i % 200)
			tab.Apply([]rpki.VRP{v}, nil)
			tab.Apply(nil, []rpki.VRP{v})
		}
		// What the rebuild must catch up with: announces at prefixes the table
		// holds (spans inside the rebuilt slab), withdraws, and a clustered
		// delta — every kind of write the catch-up makes.
		table := setOf(state).VRPs()
		for k := 0; k < 20; k++ {
			v := table[rng.Intn(len(table))]
			more := rpki.VRP{Prefix: v.Prefix, MaxLength: v.MaxLength, AS: v.AS + 100}
			gone := table[rng.Intn(len(table))]
			tab.Apply([]rpki.VRP{more}, []rpki.VRP{gone})
			state[more] = struct{}{}
			delete(state, gone)
		}
		for _, v := range clustered8(the21, 9) {
			state[v] = struct{}{}
		}
		tab.Apply(clustered8(the21, 9), nil)
		close(release)
		waitCompactor(t, tab)
		if n := compactions.Load(); n != 1 {
			t.Fatalf("%d compactions published, want 1", n)
		}
		// The catch-up clones no node of the private rebuild; the entry cells
		// it relocates are dead, and counted.
		if gn, _ := garbage(tab); gn != 0 {
			t.Fatalf("after the catch-up: %d nodes of garbage, want none", gn)
		}
		checkEntryGarbage(t, tab)
		if extra, missing := naiveSetDiff(setOf(state).VRPs(), tab.Snapshot().AppendVRPs(nil)); len(extra)+len(missing) != 0 {
			t.Fatalf("after the catch-up: %d VRPs extra, %d missing", len(extra), len(missing))
		}
	})

	t.Run("published snapshots are never written", func(t *testing.T) {
		// A snapshot kept before each of 300 deltas — clustered ones over a few
		// /21s that keep colliding, with a second entry at a prefix whose span
		// the delta already moved, and scattered ones — across compactions
		// caught up with up to four deltas each, must still hold its table at
		// the end and answer its delta's neighbourhood as its table does, and
		// every delta must leave each dead entry cell counted.
		rng := rand.New(rand.NewSource(73))
		state := map[rpki.VRP]struct{}{}
		for _, v := range randomTable(rng, 200) {
			state[v] = struct{}{}
		}
		tab := NewTable(setOf(state).VRPs())
		compactions := countCompactions(tab)
		type kept struct {
			ix     *Index
			table  []rpki.VRP
			probes []Route
		}
		var keep []kept
		for i := 0; i < 300; i++ {
			var ann, wd []rpki.VRP
			if i%2 == 0 {
				for _, v := range clustered8(uint64(10<<24|rng.Intn(4)<<11)<<32, rpki.ASN(rng.Intn(3))) {
					if rng.Intn(3) == 0 {
						wd = append(wd, v)
					} else {
						ann = append(ann, v)
					}
				}
				if len(ann) > 0 && rng.Intn(2) == 0 {
					ann = append(ann, rpki.VRP{Prefix: ann[0].Prefix, MaxLength: 24, AS: 3})
				}
			} else {
				table := setOf(state).VRPs()
				for k := 1 + rng.Intn(8); k > 0; k-- {
					if rng.Intn(2) == 0 {
						wd = append(wd, table[rng.Intn(len(table))])
					} else {
						ann = append(ann, randomVRP(rng))
					}
				}
			}
			keep = append(keep, kept{tab.Snapshot(), setOf(state).VRPs(), probesAround(append(slices.Clone(ann), wd...))})
			tab.Apply(ann, wd)
			checkEntryGarbage(t, tab)
			for _, v := range ann {
				state[v] = struct{}{}
			}
			for _, v := range wd {
				delete(state, v)
			}
			if i%5 == 4 {
				waitCompactor(t, tab)
			}
		}
		waitCompactor(t, tab)
		if n := compactions.Load(); n < 2 {
			t.Fatalf("%d compactions in 300 deltas, want at least two", n)
		}
		keep = append(keep, kept{tab.Snapshot(), setOf(state).VRPs(), nil})
		for i, k := range keep {
			if extra, missing := naiveSetDiff(k.table, k.ix.AppendVRPs(nil)); len(extra)+len(missing) != 0 || k.ix.Len() != len(k.table) {
				t.Fatalf("snapshot before delta %d: %d VRPs extra, %d missing, Len() %d of %d", i, len(extra), len(missing), k.ix.Len(), len(k.table))
			}
			ref := NewReference(rpki.NewSet(k.table))
			for _, q := range k.probes {
				if got, want := k.ix.Validate(q.Prefix, q.Origin), ref.Validate(q.Prefix, q.Origin); got != want {
					t.Fatalf("snapshot before delta %d: Validate(%s, %v) = %v, want %v", i, q.Prefix, q.Origin, got, want)
				}
			}
		}
	})
}
