package rov

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// TestSlabCellSizes pins the cells every resident table is made of — the
// cache's, each session's and each follower's: a node is two children, a span
// offset, the first 32 bits of its key — all of an IPv4 key — and its length,
// 20 bytes; a wide key, which only a family with keys past 32 bits keeps, 16;
// and an entry 8, its last mark in the padding before the AS; a radix page is 16 int32 slots, 64
// bytes, the sizes needCompact weighs garbage by. A field more than the length's byte would add a
// fifth to every node slab.
func TestSlabCellSizes(t *testing.T) {
	var f famIndex
	if n, w, e := unsafe.Sizeof(node{}), unsafe.Sizeof(f.wide[0]), unsafe.Sizeof(entry{}); n != 20 || w != 16 || e != 8 {
		t.Fatalf("a node is %d bytes, a wide key %d and an entry %d, want 20, 16 and 8", n, w, e)
	}
	if n, p := unsafe.Sizeof(node{}), unsafe.Sizeof(page{}); n != nodeBytes || p != pageBytes {
		t.Fatalf("a node is %d bytes and a radix page %d, where needCompact weighs them at %d and %d", n, p, nodeBytes, pageBytes)
	}
}

// TestSpanWithoutLimit puts 70,000 VRPs, one an AS, on one /24 — between a
// covering /16, a /25 under it and a sibling /24 — and holds every path that
// reads or writes a span to the set it should hold and to Reference: both
// builds, a delta announcing the 70,000 and one withdrawing every other, Diff
// both ways, the compact derivation, and LiveIndex. 70,000 is more than a
// span length packed into 16 bits counts, and a hostile cache may send it:
// no count limits a span.
func TestSpanWithoutLimit(t *testing.T) {
	const n = 70000
	p24 := mp("192.0.2.0/24")
	around := []rpki.VRP{v("192.0.0.0/16", 16, n/2), v("192.0.2.128/25", 25, n/2), v("192.0.3.0/24", 24, 7)}
	var big, half []rpki.VRP
	for i := range n {
		vrp := rpki.VRP{Prefix: p24, MaxLength: 24 + uint8(i%9), AS: rpki.ASN(i + 1)}
		if big = append(big, vrp); i%2 == 1 {
			half = append(half, vrp)
		}
	}
	all := append(slices.Clone(around), big...)
	kept := slices.DeleteFunc(slices.Clone(all), func(v rpki.VRP) bool { return v.Prefix == p24 && v.AS%2 == 0 })

	// Routes at the /24 and at a /25 and /26 inside it for ASes all through
	// the span, past 2⁸ and 2¹⁶ included, and for ones it lacks.
	var routes []Route
	for _, as := range []rpki.ASN{1, 2, 255, 256, 257, 4464, 4465, 65535, 65536, 65537, n - 1, n, n + 1, n / 2} {
		for _, p := range []string{"192.0.2.0/24", "192.0.2.0/25", "192.0.2.64/26", "192.0.2.128/25", "192.0.3.0/24", "192.0.0.0/16", "10.0.0.0/8"} {
			routes = append(routes, Route{Prefix: mp(p), Origin: as})
		}
	}
	for as := rpki.ASN(3); as < n; as += 997 {
		routes = append(routes, Route{Prefix: p24, Origin: as}, Route{Prefix: mp("192.0.2.0/27"), Origin: as})
	}
	type validator interface {
		Validate(prefix.Prefix, rpki.ASN) State
	}
	check := func(name string, x validator, vrps []rpki.VRP) {
		t.Helper()
		ref := NewReference(rpki.NewSet(vrps))
		for _, r := range routes {
			if got, want := x.Validate(r.Prefix, r.Origin), ref.Validate(r.Prefix, r.Origin); got != want {
				t.Fatalf("%s: Validate(%s, %v) = %v, Reference %v", name, r.Prefix, r.Origin, got, want)
			}
		}
		if ix, ok := x.(*Index); ok {
			want := slices.Clone(vrps)
			slices.SortFunc(want, diffOrder)
			if got := ix.AppendVRPs(nil); ix.Len() != len(want) || !slices.Equal(got, want) {
				t.Fatalf("%s: %d VRPs streamed of %d counted, want the %d given", name, len(got), ix.Len(), len(want))
			}
		}
	}

	preorder := slices.Clone(all)
	slices.SortFunc(preorder, diffOrder)
	built := newIndexFromVRPs(preorder, nil)
	check("the pre-order build", built, all)
	asMajor := append(rpki.NewSet(all).VRPs(), big[n-1]) // out of pre-order, and a repeat
	asMajorBuilt := newIndexFromVRPs(asMajor, nil)
	checkSameSlabs(t, "the AS-major build", asMajorBuilt, built)
	check("the AS-major build", asMajorBuilt, all)

	tab := NewTable(around)
	tab.Apply(big, nil)
	before := tab.Snapshot()
	check("the table after the announce", before, all)
	tab.Apply(nil, half)
	after := tab.Snapshot()
	check("the table after the withdraw", after, kept)
	check("the snapshot before the withdraw", before, all)

	pairs := []struct {
		name     string
		old, nw  *Index
		ann, wdr []rpki.VRP
	}{
		{"the withdraw, walked", before, after, nil, half},
		{"the withdraw undone, walked", after, before, half, nil},
		{"the announce, across builds", newIndexFromVRPs(around, nil), built, big, nil},
		{"the withdraw, across builds", built, newIndexFromVRPs(kept, nil), nil, half},
		{"the withdraw undone, across builds", newIndexFromVRPs(kept, nil), built, half, nil},
	}
	for _, c := range pairs {
		a, w := walkDiff(c.old, c.nw)
		if !slices.Equal(a, c.ann) || !slices.Equal(w, c.wdr) {
			t.Fatalf("%s: +%d -%d, want +%d -%d", c.name, len(a), len(w), len(c.ann), len(c.wdr))
		}
	}
	if a, w := Diff(before, after); len(a) != 0 || !slices.Equal(w, half) {
		t.Fatalf("Diff of the withdraw: +%d -%d, want +0 -%d", len(a), len(w), len(half))
	}

	check("the compact derivation", CompactFromIndex(after), kept)
	l := NewLiveIndex(rpki.NewSet(around))
	l.Apply(big, nil)
	check("LiveIndex after the announce", l, all)
	l.Apply(nil, half)
	check("LiveIndex after the withdraw", l, kept)
	l.ResetTo(preorder)
	check("LiveIndex reset", l, all)
	waitCompactor(t, &l.Table)
	waitCompactor(t, tab)
}
