//go:build !race

package rov

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// TestValidateAllocs is the noalloc gate: every validation entry point runs
// at exactly 0 allocs — single routes, and batches into a dst the caller has
// sized — over a 50k-VRP table with both families in it, and the LiveIndex
// ones also over today's table under an overlay of a thousand touched
// prefixes, where each route is tested against it and a quarter of them go
// to the bit trie. The rows between them execute every statement of
// validateOn, validateCompact, keyMatch, overlay.covers and the Validate and
// ValidateBatch methods of Index, CompactIndex and LiveIndex (go test -run
// TestValidateAllocs -coverprofile says so), so an allocation added on any
// branch shows here. The edge routes are the branches a random IPv4 batch does not take:
// an IPv6 route longer than /64, routes shorter than either family's stride,
// an invalid prefix. ValidateBatchSorted's documented allocation, the
// permutation, is pinned at exactly one. Not built under -race, whose
// instrumentation allocates.
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
	cx := NewCompactIndex(set)
	live := NewLiveIndex(set)
	bare := NewLiveIndex(set) // nobody read through it: the delta drops the compact half
	bare.Apply(vrps[:1], vrps[1:2])
	if bare.Stats().CompactHeld {
		t.Fatal("an unread LiveIndex kept its compact half across a delta")
	}

	routes := benchRoutes(8192)
	overlaid := liveWithOverlay(t, routes, 0.25)
	if st := overlaid.Stats(); st.Marks < 1000 {
		t.Fatalf("overlay of %d marks, want at least 1000", st.Marks)
	}
	edge := []Route{
		{Prefix: prefix.MustParse("2001:db8:0:1:8000:1::/96"), Origin: 64500}, // below the /80 VRP
		{Prefix: prefix.MustParse("2001:db8:0:1:4000::/96"), Origin: 64500},   // beside it
		{Prefix: prefix.MustParse("2001:db8:7::/48"), Origin: 64500},
		{Prefix: prefix.MustParse("3000::/16"), Origin: 64500}, // under no VRP
		{Prefix: prefix.MustParse("2000::/7"), Origin: 64500},  // shorter than the IPv6 stride
		{Prefix: prefix.MustParse("2000::/4"), Origin: 64500},  // and than its shortest VRP
		{Prefix: prefix.MustParse("10.0.0.0/7"), Origin: 1},    // shorter than the IPv4 stride
		{}, // not a prefix
		routes[0],
	}
	mixed := append(slices.Clone(routes), edge...)
	// The first batch of each kind grows its dst: the one allocation a caller
	// can ask for, and all three tables must agree on what went into it.
	dst := ix.ValidateBatch(mixed, nil)
	want := slices.Clone(dst)
	if !slices.Equal(want[8192:8200], []State{Valid, Invalid, Valid, NotFound, Valid, NotFound, NotFound, NotFound}) {
		t.Fatalf("edge routes classified %v", want[8192:])
	}
	for name, got := range map[string][]State{
		"CompactIndex.ValidateBatch":       cx.ValidateBatch(mixed, nil),
		"CompactIndex.ValidateBatchSorted": cx.ValidateBatchSorted(mixed, nil),
		"LiveIndex.ValidateBatch":          live.ValidateBatch(mixed, nil),
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
		{"CompactIndex.Validate", 0, func() {
			for _, r := range edge {
				cx.Validate(r.Prefix, r.Origin)
			}
		}},
		{"CompactIndex.ValidateBatch", 0, func() { cx.ValidateBatch(mixed, dst) }},
		{"CompactIndex.ValidateBatchSorted, a small batch", 0, func() { cx.ValidateBatchSorted(edge, dst) }},
		{"CompactIndex.ValidateBatchSorted", 1, func() { cx.ValidateBatchSorted(mixed, dst) }},
		{"LiveIndex.Validate", 0, func() {
			for _, r := range edge {
				live.Validate(r.Prefix, r.Origin)
			}
		}},
		{"LiveIndex.ValidateBatch", 0, func() { live.ValidateBatch(mixed, dst) }},
		{"LiveIndex.ValidateBatch without a compact half", 0, func() { bare.ValidateBatch(mixed, dst) }},
		{"LiveIndex.Validate under an overlay, a touched route", 0, func() { overlaid.Validate(routes[0].Prefix, routes[0].Origin) }},
		{"LiveIndex.Validate under an overlay, the last route", 0, func() { overlaid.Validate(routes[8191].Prefix, routes[8191].Origin) }},
		{"LiveIndex.ValidateBatch under an overlay", 0, func() { overlaid.ValidateBatch(mixed, dst) }},
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
// allocates nothing.
func TestDiffAllocs(t *testing.T) {
	tab := NewTable(todayTable(t))
	old := tab.Snapshot()
	tab.Apply(clustered8(the21, 64501), old.AppendVRPs(nil)[:8])
	nw := tab.Snapshot()
	last, compacted, first := acrossCompaction(t, tab)
	for _, c := range []struct {
		name    string
		old, nw *Index
		changed int // VRPs announced or withdrawn
		want    float64
	}{
		{"a snapshot against its parent", old, nw, 16, 2},
		{"a snapshot against its parent, across a compaction", last, first, 16, 2},
		{"a compaction's snapshot against the one it replaced", last, compacted, 0, 0},
	} {
		if a, w := Diff(c.old, c.nw); len(a)+len(w) != c.changed {
			t.Fatalf("%s: +%d -%d, want %d VRPs", c.name, len(a), len(w), c.changed)
		}
		if got := testing.AllocsPerRun(10, func() { _, _ = Diff(c.old, c.nw) }); got != c.want {
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

// TestIndexBuildAllocs is the gate on what a cold start's build allocates:
// today's table in wire order is sized by the counting pass, so the build is
// the index, its three slabs and the terminal list — no regrowth — and all it
// allocates beyond what the finished index retains is that list.
func TestIndexBuildAllocs(t *testing.T) {
	ix := newIndexFromVRPs(todayTable(t))
	vrps := ix.AppendVRPs(nil)
	if got := testing.AllocsPerRun(5, func() { _ = ix.AppendVRPs(nil) }); got != 1 {
		t.Errorf("AppendVRPs(nil) of %d VRPs: %v allocs, want the one it grows its result by", len(vrps), got)
	}
	allocs := testing.AllocsPerRun(5, func() { ix = newIndexFromVRPs(vrps) })
	if allocs > 6 {
		t.Errorf("an ordered build of %d VRPs: %v allocs, want at most 6", len(vrps), allocs)
	}
	retained := uint64(unsafe.Sizeof(*ix)) + uint64(cap(ix.entries))*uint64(unsafe.Sizeof(entry{}))
	for slot := range ix.fams {
		nodes := ix.fams[slot].eng.Nodes
		retained += uint64(cap(nodes)) * uint64(unsafe.Sizeof(nodes[0]))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix = newIndexFromVRPs(vrps)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("ordered build of %d VRPs: %v allocs, %d bytes for an index of %d", ix.Len(), allocs, got, retained)
	if float64(got) > 1.15*float64(retained) {
		t.Errorf("an ordered build allocated %d bytes for an index of %d", got, retained)
	}
}
