//go:build !race

package rov

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// TestValidateAllocs is the noalloc gate: every validation entry point runs
// at exactly 0 allocs — single routes, and batches into a dst the caller has
// sized — over a 50k-VRP table with both families in it, and through a
// LiveIndex after a delta. The rows between them execute every statement of
// validateOn, validate, validate4, descend4, keyMatch and the Validate and
// ValidateBatch methods of Index and LiveIndex (go test -run
// TestValidateAllocs -coverprofile says so), so an allocation added on any
// branch shows here. The edge routes are the branches a random IPv4 batch
// does not take: an IPv6 route longer than /64, routes shorter than /16 in
// either family, under a short VRP and not, an invalid prefix.
// ValidateBatchSorted's documented allocation, the permutation, is pinned at
// exactly one. Not built under -race, whose instrumentation allocates.
func TestValidateAllocs(t *testing.T) {
	vrps := slices.Clone(benchSet().VRPs())
	for _, v := range []struct {
		p  string
		ml uint8
	}{{"2000::/6", 8}, {"2001:db8::/32", 48}, {"2001:db8:0:1::/64", 64}, {"2001:db8:0:1:8000::/80", 128}} {
		vrps = append(vrps, rpki.VRP{Prefix: prefix.MustParse(v.p), MaxLength: v.ml, AS: 64500})
	}
	set := rpki.NewSet(vrps)
	ix := NewIndex(set)
	live := NewLiveIndex(set)
	live.Apply(vrps[:1], vrps[1:2])
	live.Apply(vrps[1:2], vrps[:1])

	routes := benchRoutes(8192)
	edge := []Route{
		{Prefix: prefix.MustParse("2001:db8:0:1:8000:1::/96"), Origin: 64500}, // below the /80 VRP
		{Prefix: prefix.MustParse("2001:db8:0:1:4000::/96"), Origin: 64500},   // beside it
		{Prefix: prefix.MustParse("2001:db8:7::/48"), Origin: 64500},
		{Prefix: prefix.MustParse("3000::/16"), Origin: 64500}, // under no VRP
		{Prefix: prefix.MustParse("2000::/7"), Origin: 64500},  // shorter than /16, under the /6
		{Prefix: prefix.MustParse("2000::/4"), Origin: 64500},  // and than its shortest VRP
		{Prefix: prefix.MustParse("10.0.0.0/7"), Origin: 1},    // shorter than /16 and every VRP
		{}, // not a prefix
		routes[0],
	}
	mixed := append(slices.Clone(routes), edge...)
	// The first batch of each kind grows its dst: the one allocation a caller
	// can ask for, and every entry point must agree on what went into it.
	dst := ix.ValidateBatch(mixed, nil)
	want := slices.Clone(dst)
	if !slices.Equal(want[8192:8200], []State{Valid, Invalid, Valid, NotFound, Valid, NotFound, NotFound, NotFound}) {
		t.Fatalf("edge routes classified %v", want[8192:])
	}
	for name, got := range map[string][]State{
		"Index.ValidateBatchSorted": ix.ValidateBatchSorted(mixed, nil),
		"LiveIndex.ValidateBatch":   live.ValidateBatch(mixed, nil),
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s disagrees with Index.ValidateBatch", name)
		}
	}

	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Index.Validate", 0, func() {
			for _, r := range edge {
				ix.Validate(r.Prefix, r.Origin)
			}
		}},
		{"Index.ValidateBatch", 0, func() { ix.ValidateBatch(mixed, dst) }},
		{"Index.ValidateBatchSorted, a small batch", 0, func() { ix.ValidateBatchSorted(edge, dst) }},
		{"Index.ValidateBatchSorted", 1, func() { ix.ValidateBatchSorted(mixed, dst) }},
		{"LiveIndex.Validate", 0, func() {
			for _, r := range edge {
				live.Validate(r.Prefix, r.Origin)
			}
		}},
		{"LiveIndex.ValidateBatch", 0, func() { live.ValidateBatch(mixed, dst) }},
	} {
		if got := testing.AllocsPerRun(10, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocs/op, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDiffAllocs is the gate on what a Diff of a snapshot against its parent
// costs: its two result slices and nothing else, on one arena lineage and
// across a compaction, where it used to be the full dual walk; and a Diff of
// two snapshots of one version — a compaction's and the one it replaced —
// allocates nothing, nor does an empty table's against a full sync's build,
// which hands out the list ResetTo kept (re-armed before each run).
func TestDiffAllocs(t *testing.T) {
	tab := NewTable(todayTable(t))
	old := tab.Snapshot()
	tab.Apply(clustered8(the21, 64501), old.AppendVRPs(nil)[:8])
	nw := tab.Snapshot()
	last, compacted, first := acrossCompaction(t, tab)
	synced := NewTable(nil)
	synced.ResetTo(old.AppendVRPs(nil))
	built := synced.Snapshot()
	list := built.handoff.Load()
	for _, c := range []struct {
		name    string
		old, nw *Index
		changed int // VRPs announced or withdrawn
		want    float64
		kept    *[]rpki.VRP // stored back into nw's hand-off before each Diff
	}{
		{"a snapshot against its parent", old, nw, 16, 2, nil},
		{"a snapshot against its parent, across a compaction", last, first, 16, 2, nil},
		{"a compaction's snapshot against the one it replaced", last, compacted, 0, 0, nil},
		{"an empty table against a full sync's build", NewTable(nil).Snapshot(), built, todaySize, 0, list},
	} {
		if a, w := Diff(c.old, c.nw); len(a)+len(w) != c.changed {
			t.Fatalf("%s: +%d -%d, want %d VRPs", c.name, len(a), len(w), c.changed)
		}
		if got := testing.AllocsPerRun(10, func() {
			if c.kept != nil {
				c.nw.handoff.Store(c.kept)
			}
			_, _ = Diff(c.old, c.nw)
		}); got != c.want {
			t.Errorf("%s: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// TestApplyAllocs is the gate on what a path-copied delta allocates:
// roa_change's eight clustered /24s into today's table, compaction held
// (pathCopy), announced and then withdrawn. Each allocates its snapshot and
// the slice of operations it carries, which is also the sorted copy of the
// caller's: nothing more, and the slabs have room for every delta of the run.
func TestApplyAllocs(t *testing.T) {
	tab := NewTable(todayTable(t))
	const runs = 10
	deltas := make([][]rpki.VRP, runs+1) // AllocsPerRun calls its function once before it counts
	for i := range deltas {
		deltas[i] = clustered8(the21, rpki.ASN(64500+i))
	}
	for _, c := range []struct {
		name     string
		add      bool
		want, at int // allocations, and the table's size after the run
	}{
		{"announce", true, 2, todaySize + 8*len(deltas)},
		{"withdraw", false, 2, todaySize},
	} {
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if c.add {
				pathCopy(tab, deltas[i], nil)
			} else {
				pathCopy(tab, nil, deltas[i])
			}
			i++
		})
		if tab.Len() != c.at {
			t.Fatalf("%s: the table holds %d VRPs after the run, want %d", c.name, tab.Len(), c.at)
		}
		if got != float64(c.want) {
			t.Errorf("%s of a clustered delta: %v allocs, want %d", c.name, got, c.want)
		}
	}
}

// TestCompactAllocs is the gate on a compaction: of churnedTable, from the
// snapshot that made it due, with nothing to catch up. It allocates six
// times — the VRP stream it rebuilds from, then the build's index and four
// slabs, the IPv4 family's page slab among them (the IPv6 family, with no
// slot in use, shares the empty one): the stream is in pre-order, so its
// spans are written in place, with no terminal list — and no slab regrows.
// The node and page slabs it publishes are src's lengths and a 32nd more,
// plus cell 0, and the entry slab src's and a 32nd more; and the cycle it
// starts fills the node and page slabs without growing one up to the next
// compaction: at src's length exactly, half of roa_change's cycles regrew a
// slab by a quarter.
func TestCompactAllocs(t *testing.T) {
	tab, churn := churnedTable(t)
	src := tab.Snapshot()
	// A collection, which each compaction's few MB would start, allocates
	// too: the count is taken with none.
	gc := debug.SetGCPercent(-1)
	allocs := testing.AllocsPerRun(5, func() {
		tab.cur.Store(src)
		tab.compact(src, nil)
	})
	debug.SetGCPercent(gc)
	if allocs != 6 {
		t.Errorf("a compaction of %d VRPs: %v allocs, want 6", src.Len(), allocs)
	}
	got := tab.Snapshot()
	for slot := range src.fams {
		if c, n := cap(got.fams[slot].nodes), len(src.fams[slot].nodes); c != n+n/32+1 { // + node 0
			t.Fatalf("family %d: the rebuild's node slab holds %d cells, the slab it replaces %d", slot, c, n)
		}
	}
	if c, n := cap(got.fams[0].pages), len(src.fams[0].pages); c != n+n/32+1 { // + page 0
		t.Fatalf("the rebuild's IPv4 page slab holds %d pages, the slab it replaces %d", c, n)
	}
	if c, n := cap(got.entries), len(src.entries); c != n+n/32 {
		t.Fatalf("the rebuild's entry slab holds %d cells, the slab it replaces %d", c, n)
	}
	capacity, _ := nodeCaps(got)
	pages := cap(got.fams[0].pages)
	deltas := 0
	for ; !compactDue(tab); deltas++ {
		churn()
		if c, n := nodeCaps(tab.Snapshot()); c != capacity {
			t.Fatalf("delta %d after the compaction: node slabs of %d cells for %d nodes, were %d", deltas+1, c, n, capacity)
		}
		if c := cap(tab.Snapshot().fams[0].pages); c != pages {
			t.Fatalf("delta %d after the compaction: a page slab of %d pages, was %d", deltas+1, c, pages)
		}
	}
	if deltas < 100 {
		t.Fatalf("the next compaction was due after %d deltas", deltas)
	}
	t.Logf("%v allocs; node slabs of %d cells, a page slab of %d; the next compaction due after %d deltas", allocs, capacity, pages, deltas)
}

// TestIndexBuildAllocs is the gate on what a cold start's build allocates:
// today's table in wire order is sized by the counting pass and its spans are
// written in place, so the build is the index and its four slabs — entries,
// a node slab a family, the IPv4 family's pages; no regrowth, no terminal
// list, no wide slab: every key of an IPv4 table fits in its node — and it
// allocates little beyond what the finished index retains, which is at most
// 60 bytes a VRP. With v6Table's 9,000 IPv6 VRPs added, /48s among them, the
// IPv6 family's page slab and wide slab are a sixth and seventh allocation,
// and the table still fits in 60 bytes a VRP. Counted with the collector off,
// as TestCompactAllocs does: a cycle a build starts allocates too.
func TestIndexBuildAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		vrps []rpki.VRP
		want float64
	}{
		{"today", todayTable(t), 5},
		{"today and IPv6", append(slices.Clone(todayTable(t)), v6Table()...), 7},
	} {
		ix := newIndexFromVRPs(c.vrps, nil)
		vrps := ix.AppendVRPs(nil)
		if got := testing.AllocsPerRun(5, func() { _ = ix.AppendVRPs(nil) }); got != 1 {
			t.Errorf("%s: AppendVRPs(nil) of %d VRPs: %v allocs, want the one it grows its result by", c.name, len(vrps), got)
		}
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(5, func() { ix = newIndexFromVRPs(vrps, nil) })
		debug.SetGCPercent(gc)
		if allocs > c.want {
			t.Errorf("%s: an ordered build of %d VRPs: %v allocs, want at most %v", c.name, len(vrps), allocs, c.want)
		}
		retained := uint64(unsafe.Sizeof(*ix)) + uint64(cap(ix.entries))*uint64(unsafe.Sizeof(entry{}))
		for slot := range ix.fams {
			f := &ix.fams[slot]
			retained += uint64(cap(f.nodes))*uint64(unsafe.Sizeof(node{})) + uint64(cap(f.wide))*uint64(unsafe.Sizeof([2]uint64{}))
			if len(f.pages) > 1 {
				retained += uint64(cap(f.pages)) * uint64(unsafe.Sizeof(page{}))
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix = newIndexFromVRPs(vrps, nil)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		perVRP := float64(retained) / float64(ix.Len())
		t.Logf("%s: ordered build of %d VRPs: %v allocs, %d bytes for an index of %d, %.1f B/VRP", c.name, ix.Len(), allocs, got, retained, perVRP)
		if float64(got) > 1.15*float64(retained) {
			t.Errorf("%s: an ordered build allocated %d bytes for an index of %d", c.name, got, retained)
		}
		if perVRP > 60 {
			t.Errorf("%s: an index of %d VRPs retains %d bytes, %.1f a VRP: want at most 60", c.name, ix.Len(), retained, perVRP)
		}
	}
}

// TestByPrefixAllocs is the gate on the sort a build out of pre-order pays,
// on today's table as a Set lists it: the copy and the slab it sorts through,
// and no more bytes than the two, each rounded up to the heap's 8 KiB pages;
// the digit counts stay on the stack. Counted with the collector off, as
// TestIndexBuildAllocs is.
func TestByPrefixAllocs(t *testing.T) {
	vrps := todayTable(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(3, func() { _ = byPrefix(vrps) }); got != 2 {
		t.Errorf("byPrefix of %d VRPs: %v allocs, want 2", len(vrps), got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sorted := byPrefix(vrps)
	runtime.ReadMemStats(&after)
	slabs := 2 * (uint64(cap(sorted))*uint64(unsafe.Sizeof(sorted[0])) + 8<<10)
	if got := after.TotalAlloc - before.TotalAlloc; got > slabs {
		t.Errorf("byPrefix of %d VRPs allocated %d bytes, want at most %d: two slabs", len(sorted), got, slabs)
	}
}

// TestCompactFromIndexAllocs is the gate on the compact derivation, which is
// no derivation: a compact index is its Index, on today's table and with four
// IPv6 VRPs added, short ones among them, and taking one allocates nothing.
func TestCompactFromIndexAllocs(t *testing.T) {
	v4 := todayTable(t)
	both := slices.Clone(v4)
	for _, s := range []string{"2001:db8::/32", "2001:db8:1::/48", "2001:db8:8000::/33", "2a00::/12"} {
		p := prefix.MustParse(s)
		both = append(both, rpki.VRP{Prefix: p, MaxLength: p.Len() + 8, AS: 64500})
	}
	for _, c := range []struct {
		name string
		vrps []rpki.VRP
		want float64
	}{
		{"today", v4, 0},
		{"two families", both, 0},
	} {
		ix := newIndexFromVRPs(c.vrps, nil)
		var cx *CompactIndex
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(5, func() { cx = CompactFromIndex(ix) })
		debug.SetGCPercent(gc)
		if cx != ix || cx.Len() != len(c.vrps) {
			t.Fatalf("%s: a compact index of %d VRPs, want %d", c.name, cx.Len(), len(c.vrps))
		}
		if allocs != c.want {
			t.Errorf("%s: CompactFromIndex of %d VRPs: %v allocs, want %v", c.name, len(c.vrps), allocs, c.want)
		}
	}
}
