package rov

import (
	"fmt"
	"math/rand"
	"reflect"
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

// spanAt returns the entries of p's node in ix (none if there is no node).
func spanAt(ix *Index, p prefix.Prefix) []entry {
	slot := famSlot(p.Family())
	f := &ix.fams[slot]
	fg := newFinger(slot, f, 0, 0)
	if !f.seek(&fg, p) {
		return nil
	}
	return span(ix.entries, f.nodes[fg.path[fg.n-1]].off)
}

// reachable returns the number of nodes of f's tries, and of pages of its
// radix root, the empty page aside.
func reachable(f *famIndex) (nodes, pages int) {
	f.walkAll(func(int32) bool { nodes++; return true })
	var under func(pg int32, level int)
	under = func(pg int32, level int) {
		if pg == 0 {
			return
		}
		pages++
		for _, c := range f.pages[pg] {
			if level < 3 {
				under(c, level+1)
			}
		}
	}
	under(f.top, 0)
	return nodes, pages
}

// render lists ix's nodes as walkAll hands them over, each by its key, its
// entries and which children it has: two indexes that render alike hold the
// same tries.
func render(ix *Index) []string {
	var out []string
	for slot := range ix.fams {
		f := &ix.fams[slot]
		f.walkAll(func(i int32) bool {
			nd := &f.nodes[i]
			out = append(out, fmt.Sprintf("%s %v %t %t", f.prefix(slotFamily(slot), i), span(ix.entries, nd.off), nd.children[0] != 0, nd.children[1] != 0))
			return true
		})
	}
	return out
}

// shapeError walks ix's tries and describes the first thing out of their
// shape, or returns "": a short-prefix root that is not /0, a short-prefix
// node of /16 or longer (a branch point above /16 outside the short-prefix
// trie), a node of a slot's trie that is not under the slot's /16, a node
// other than the short-prefix root with neither a span nor two children, a
// child whose key does not strictly extend its parent's on the side it hangs
// from, a radix page that holds nothing, or, last, tries other than the ones
// a build of ix's VRPs makes.
func shapeError(ix *Index) string {
	for slot := range ix.fams {
		f, fam := &ix.fams[slot], slotFamily(slot)
		if len(f.nodes) == 0 {
			continue
		}
		if f.nodes[f.root].plen != 0 {
			return fmt.Sprintf("the %v root is %s", fam, f.prefix(fam, f.root))
		}
		bad := ""
		check := func(root int32, in func(prefix.Prefix) bool, where string) bool {
			return f.walk(root, func(i int32) bool {
				nd, up := &f.nodes[i], f.prefix(fam, i)
				switch {
				case !in(up):
					bad = fmt.Sprintf("%s in %s", up, where)
				case i != f.root && nd.off == 0 && (nd.children[0] == 0 || nd.children[1] == 0):
					bad = fmt.Sprintf("%s has no span and children %v", up, nd.children)
				}
				for bit, c := range nd.children {
					if k := f.prefix(fam, c); c != 0 && (k.Len() <= up.Len() || !up.Contains(k) || k.Bit(up.Len()) != uint8(bit)) {
						bad = fmt.Sprintf("%s hangs as child %d of %s", k, bit, up)
					}
				}
				return bad == ""
			})
		}
		if !check(f.root, func(p prefix.Prefix) bool { return p.Len() < radixBits }, "the short-prefix trie") {
			return bad
		}
		if !f.slots(0, 1<<radixBits, func(s uint32, root int32) bool {
			in := func(p prefix.Prefix) bool {
				hi, _ := p.Bits()
				return p.Len() >= radixBits && uint32(hi>>(64-radixBits)) == s
			}
			return check(root, in, fmt.Sprintf("slot %#x", s))
		}) {
			return bad
		}
		var empty func(pg int32, level int) bool
		empty = func(pg int32, level int) bool {
			if f.pages[pg] == (page{}) {
				return true
			}
			return level < 3 && slices.ContainsFunc(f.pages[pg][:], func(c int32) bool { return c != 0 && empty(c, level+1) })
		}
		if f.top != 0 && empty(f.top, 0) {
			return fmt.Sprintf("the %v radix root holds an empty page", fam)
		}
	}
	if !slices.Equal(render(ix), render(newIndexFromVRPs(ix.AppendVRPs(nil), nil))) {
		return "the tries are not the ones a build of their VRPs makes"
	}
	return ""
}

// checkShape fails unless ix's tries are in shape (shapeError).
func checkShape(t *testing.T, name string, ix *Index) {
	t.Helper()
	if bad := shapeError(ix); bad != "" {
		t.Fatalf("%s: %s", name, bad)
	}
}

// slabs is a copy of a snapshot's node and page slabs, as published.
type slabs struct {
	nodes [2][]node
	pages [2][]page
}

func copySlabs(ix *Index) (c slabs) {
	for s := range ix.fams {
		c.nodes[s], c.pages[s] = slices.Clone(ix.fams[s].nodes), slices.Clone(ix.fams[s].pages)
	}
	return c
}

// checkShapes holds every snapshot tab publishes from now on — a delta's, a
// build's, a compaction's, on whichever goroutine publishes it — to the
// tries' shape (shapeError), and each one it replaces to the slabs it was
// published with: no delta writes a node or a page an older snapshot reads.
// It returns a check that fails t with the first that broke either.
func checkShapes(t *testing.T, tab *Table) func() {
	var bad string // guarded by tab.mu
	tab.mu.Lock()
	inner := tab.published
	cur, was := tab.cur.Load(), copySlabs(tab.cur.Load())
	tab.published = func(nw *Index) {
		if bad == "" {
			if e := shapeError(nw); e != "" {
				bad = fmt.Sprintf("version %d: %s", nw.version, e)
			} else if now := copySlabs(cur); !reflect.DeepEqual(now, was) {
				bad = fmt.Sprintf("version %d wrote a slab cell of version %d", nw.version, cur.version)
			}
		}
		cur, was = nw, copySlabs(nw)
		if inner != nil {
			inner(nw)
		}
	}
	tab.mu.Unlock()
	return func() {
		t.Helper()
		tab.mu.Lock()
		defer tab.mu.Unlock()
		if bad != "" {
			t.Fatalf("a published snapshot is out of shape: %s", bad)
		}
	}
}

// garbage reads tab's garbage counters.
func garbage(tab *Table) (nodes, pages, entries int) {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.garbageNodes, tab.garbagePages, tab.garbageEntries
}

// checkEntryGarbage fails unless tab counts every dead cell of its current
// entry slab as garbage. Every cell of a slab built from VRPs without repeats
// is live but the reserved first, and each later cell is a span's or dead, so
// the count must be the slab's length less the table's and that one.
func checkEntryGarbage(t *testing.T, tab *Table) {
	t.Helper()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	cur := tab.cur.Load()
	if dead := len(cur.entries) - 1 - cur.Len(); tab.garbageEntries != dead {
		t.Fatalf("garbageEntries = %d, but %d of the entry slab's %d cells are dead", tab.garbageEntries, dead, len(cur.entries))
	}
}

// checkNodeGarbage fails unless tab counts every node and page of its current
// slabs that its roots no longer reach as garbage: a clone's original, a node
// a withdrawal took out, a rerooted family's build root, the pages of an
// emptied slot.
func checkNodeGarbage(t *testing.T, tab *Table) {
	t.Helper()
	tab.mu.Lock()
	defer tab.mu.Unlock()
	cur := tab.cur.Load()
	_, total := nodeCaps(cur)
	deadNodes, deadPages, pages := total, 0, 0
	for s := range cur.fams {
		n, p := reachable(&cur.fams[s])
		deadNodes -= n
		deadPages += len(cur.fams[s].pages) - 1 - p
		pages += len(cur.fams[s].pages) - 1
	}
	if tab.garbageNodes != deadNodes {
		t.Fatalf("garbageNodes = %d, but %d of the node slabs' %d cells are dead", tab.garbageNodes, deadNodes, total)
	}
	if tab.garbagePages != deadPages {
		t.Fatalf("garbagePages = %d, but %d of the page slabs' %d pages are dead", tab.garbagePages, deadPages, pages)
	}
}

// TestCompactCopiesLiveSlab pins what a compaction publishes to the build of
// the table's VRP stream, node for node and entry for entry, on a table of
// today's size churned by roa_change's deltas until a compaction is due; and
// the churned table reaches as many nodes as that build holds: its deltas
// left no node a build would not make. TestCompactAllocs pins the slabs'
// sizes.
func TestCompactCopiesLiveSlab(t *testing.T) {
	tab, _ := churnedTable(t)
	src := tab.Snapshot()
	tab.compact(src, nil)
	got, want := tab.Snapshot(), newIndexFromVRPs(src.AppendVRPs(nil), nil)
	if got.fams[0].sameLineage(&src.fams[0]) || got.version != src.version {
		t.Fatalf("the compaction published version %d on src's slabs: %v; want version %d in fresh slabs", got.version, got.fams[0].sameLineage(&src.fams[0]), src.version)
	}
	checkSameSlabs(t, "the compaction's rebuild", got, want)
	n0, _ := reachable(&src.fams[0])
	n1, _ := reachable(&src.fams[1])
	if _, live := nodeCaps(want); n0+n1 != live {
		t.Fatalf("the churned table reaches %d nodes, its build holds %d", n0+n1, live)
	}
}

// TestDeltaShapes applies one path-copied delta of the shapes a finger must
// read right whatever order they come in: a nested chain and a sibling listed
// deepest first, both families' /0, an IPv6 /96 (bits of the address's low
// word, the family's first key past 32 bits: the delta starts its wide slab,
// and the snapshot before keeps none), a repeated announce, a VRP announced and withdrawn, a present VRP
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
	if !before.fams[0].sameLineage(&after.fams[0]) {
		t.Fatal("the delta was not path-copied")
	}
	if before.fams[1].wide != nil || len(after.fams[1].wide) != len(after.fams[1].nodes) {
		t.Fatalf("IPv6 wide slabs of %d keys before the delta and %d after, for %d nodes: want none, then one a node", len(before.fams[1].wide), len(after.fams[1].wide), len(after.fams[1].nodes))
	}
	if extra, missing := naiveSetDiff(setOf(want).VRPs(), after.AppendVRPs(nil)); len(extra)+len(missing) != 0 || after.Len() != len(want) {
		t.Fatalf("after the delta: %v extra, %v missing, Len() %d of %d", extra, missing, after.Len(), len(want))
	}
	if extra, missing := naiveSetDiff(base, before.AppendVRPs(nil)); len(extra)+len(missing) != 0 || before.Len() != len(base) {
		t.Fatalf("the snapshot before the delta: %v extra, %v missing, Len() %d of %d", extra, missing, before.Len(), len(base))
	}
	checkParentDiff(t, "the delta", before, after)
	checkShape(t, "after the delta", after)
	checkEntryGarbage(t, tab)
	checkNodeGarbage(t, tab)
	if !slices.Equal(announce, givenA) || !slices.Equal(withdraw, givenW) {
		t.Fatalf("Apply reordered the caller's slices: +%v -%v", announce, withdraw)
	}
}

// TestDeltaCopiesEachPathOnce pins the one rule that makes a multi-VRP delta
// cost the union of its paths: inside one delta a published node is cloned at
// most once — whatever the delta cloned or allocated is unpublished and
// written in place — while no published snapshot is ever written, and every
// node and entry cell a delta leaves dead still counts toward compaction.
func TestDeltaCopiesEachPathOnce(t *testing.T) {
	t.Run("a clustered delta clones the union of its paths", func(t *testing.T) {
		// The eight /24s are in the table (at another origin), so their paths
		// exist: the four pages on the path to their slot, 198.51/16, whose
		// trie the /21 roots, and the /21 and, under it, 2 + 4 + 8 — 15 nodes,
		// where the trie with no radix root cloned the root and the 15 branch
		// points benchSet's prefixes make above the /21 besides (31), the bit
		// trie's paths were 36 and eight separate root-to-/24 paths are
		// 8 × 20 = 160. The order the caller lists them in changes neither,
		// nor the delta carried.
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
					moved += len(spanAt(before, v.Prefix))
				}
				tab.Apply(c.delta, nil)
				after := tab.Snapshot()
				gn, gp, ge := garbage(tab)
				if grew := len(after.fams[0].nodes) - len(before.fams[0].nodes); grew != 15 || gn != 15 {
					t.Fatalf("the node slab grew by %d and the garbage by %d nodes, want 15 and 15 (the union of the paths)", grew, gn)
				}
				if grew := len(after.fams[0].pages) - len(before.fams[0].pages); grew != 4 || gp != 4 {
					t.Fatalf("the page slab grew by %d and the garbage by %d pages, want 4 and 4 (the slot's path)", grew, gp)
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
		// A VRP announced and withdrawn at every prefix of the table moves each
		// span twice, the second time out of cells the delta itself wrote: the
		// delta leaves more dead cells than live ones, and all of them must
		// count, or it inflates the slab with no compaction.
		table := randomTable(rand.New(rand.NewSource(79)), 2000)
		tab := NewTable(table)
		compactions := countCompactions(tab)
		var both []rpki.VRP
		for _, v := range table {
			both = append(both, rpki.VRP{Prefix: v.Prefix, MaxLength: v.Prefix.Len(), AS: 1 << 20})
		}
		tab.Apply(both, both)
		checkEntryGarbage(t, tab)
		_, _, dead := garbage(tab)
		waitCompactor(t, tab)
		if n := compactions.Load(); n != 1 {
			t.Fatalf("%d compactions published after a delta that left %d dead cells beside %d live ones, want 1", n, dead, tab.Len())
		}
		checkEntryGarbage(t, tab)
		if got, want := tab.Len(), 2000; got != want {
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
		// The catch-up clones no node of the private rebuild: its node garbage
		// is the nodes its withdrawals took out. The entry cells it relocates
		// are dead, and counted.
		checkNodeGarbage(t, tab)
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
			checkNodeGarbage(t, tab)
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
