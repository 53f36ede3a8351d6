package rov

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// probesFor builds a query set that exercises every compact-path shape for
// the given table: each VRP's exact prefix, its parent (shorter than the
// VRP — the aggregate-filter case), a deeper child, random probes, and the
// degenerate /0 query of each family.
func probesFor(rng *rand.Rand, vrps []rpki.VRP) []Route {
	var qs []Route
	for _, v := range vrps {
		as := rpki.ASN(rng.Intn(6))
		qs = append(qs, Route{Prefix: v.Prefix, Origin: v.AS}, Route{Prefix: v.Prefix, Origin: as})
		if v.Prefix.Len() > 0 {
			qs = append(qs, Route{Prefix: v.Prefix.Parent(), Origin: v.AS})
		}
		if v.Prefix.Len() < v.Prefix.MaxLen() {
			c := v.Prefix.Child(uint8(rng.Intn(2)))
			qs = append(qs, Route{Prefix: c, Origin: v.AS}, Route{Prefix: c, Origin: as})
		}
	}
	for i := 0; i < 200; i++ {
		qs = append(qs, randomProbe(rng))
	}
	qs = append(qs,
		Route{Prefix: prefix.MustParse("0.0.0.0/0"), Origin: 1},
		Route{Prefix: prefix.MustParse("::/0"), Origin: 1})
	return qs
}

// checkCompactAgainst asserts cx answers every probe exactly like ix and ref.
func checkCompactAgainst(t *testing.T, tag string, cx *CompactIndex, ix *Index, ref *Reference, qs []Route) {
	t.Helper()
	for _, q := range qs {
		got := cx.Validate(q.Prefix, q.Origin)
		if want := ix.Validate(q.Prefix, q.Origin); got != want {
			t.Fatalf("%s: compact.Validate(%s, AS%d) = %v, index says %v", tag, q.Prefix, q.Origin, got, want)
		}
		if want := ref.Validate(q.Prefix, q.Origin); got != want {
			t.Fatalf("%s: compact.Validate(%s, AS%d) = %v, reference says %v", tag, q.Prefix, q.Origin, got, want)
		}
	}
}

// TestCompactIndexMatchesIndex pits the compact index against the arena
// Index and the linear Reference over randomized IPv4+IPv6 tables, built
// both from the normalized set and from the Index's canonical walk.
func TestCompactIndexMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		var vrps []rpki.VRP
		for i := 0; i < rng.Intn(120); i++ {
			vrps = append(vrps, randomVRP(rng))
		}
		set := rpki.NewSet(vrps)
		ix := NewIndex(set)
		ref := NewReference(set)
		qs := probesFor(rng, set.VRPs())
		checkCompactAgainst(t, "fromSet", NewCompactIndex(set), ix, ref, qs)
		checkCompactAgainst(t, "fromIndex", CompactFromIndex(ix), ix, ref, qs)
	}
}

// keptNodes renders one family's compact trie as "key=own entries" in Walk
// order, and checks that Walk order is slab order: CompactFromIndex allocates
// the nodes it keeps as its pre-order walk meets them.
func keptNodes(t *testing.T, cx *CompactIndex, slot int) []string {
	t.Helper()
	f := &cx.fams[slot]
	var out []string
	if len(f.eng.Nodes) == 0 {
		return out
	}
	f.eng.Walk(0, func(idx int32) {
		if int(idx) != len(out) {
			t.Fatalf("Walk visit %d is slab node %d: the slab is not in pre-order", len(out), idx)
		}
		nd := &f.eng.Nodes[idx]
		own := 0
		for _, e := range cx.entries[nd.Val.off : nd.Val.off+nd.Val.n] {
			if e.plen == nd.PLen {
				own++
			}
		}
		out = append(out, fmt.Sprintf("%s=%d", nd.Key(slotFamily(slot)), own))
	})
	if len(out) != len(f.eng.Nodes) {
		t.Fatalf("Walk visited %d of %d slab nodes", len(out), len(f.eng.Nodes))
	}
	return out
}

// TestCompactFromIndexKeptNodes pins which bit-trie nodes the derivation
// keeps, key set by key set: a node per key, a payload-free node wherever two
// keys part ways below the root, the root always, and nothing else.
func TestCompactFromIndexKeptNodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []string // one VRP each; a repeated key is a second VRP at its node
		want []string // keptNodes of the keys' family
	}{
		{"one key under the root", []string{"10.0.0.0/8"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/8=1"}},
		{"an edge spliced where two keys part", []string{"10.0.0.0/16", "10.64.0.0/16"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/9=0", "10.0.0.0/16=1", "10.64.0.0/16=1"}},
		{"a key extending a key", []string{"10.0.0.0/8", "10.0.0.0/16", "10.0.128.0/17"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/8=1", "10.0.0.0/16=1", "10.0.128.0/17=1"}},
		{"a branch above two leaves, under a key", []string{"10.0.0.0/8", "10.0.0.0/16", "10.0.128.0/17", "10.64.0.0/16", "11.0.0.0/8", "11.0.0.0/8", "192.168.0.0/16"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/7=0", "10.0.0.0/8=1", "10.0.0.0/9=0", "10.0.0.0/16=1", "10.0.128.0/17=1", "10.64.0.0/16=1", "11.0.0.0/8=2", "192.168.0.0/16=1"}},
		{"the /0 key", []string{"0.0.0.0/0", "0.0.0.0/0", "128.0.0.0/1"},
			[]string{"0.0.0.0/0=2", "128.0.0.0/1=1"}},
		{"128-bit keys", []string{"2001:db8::/32", "2001:db8::1/128", "2001:db8::2/128"},
			[]string{"::/0=0", "2001:db8::/32=1", "2001:db8::/126=0", "2001:db8::1/128=1", "2001:db8::2/128=1"}},
	} {
		var vrps []rpki.VRP
		for i, k := range tc.keys {
			p := prefix.MustParse(k)
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: p.Len(), AS: rpki.ASN(64500 + i)})
		}
		cx := CompactFromIndex(newIndexFromVRPs(vrps, nil))
		slot := famSlot(vrps[0].Prefix.Family())
		if got := keptNodes(t, cx, slot); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
		if other := &cx.fams[1-slot]; other.slots != nil || len(other.eng.Nodes) != 0 {
			t.Errorf("%s: the family without VRPs was built", tc.name)
		}
	}
}

// TestCompactFromIndexRandom derives compact tries from random key sets of
// both families and checks the structural invariants: every key resolves to
// a node carrying its entry, every non-root node strictly extends its parent,
// payload-free nodes below the root branch, and (keptNodes) the slab is the
// canonical pre-order.
func TestCompactFromIndexRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		fam, slot := prefix.IPv4, trial%2
		if slot == 1 {
			fam = prefix.IPv6
		}
		var vrps []rpki.VRP
		for i, n := 0, 1+rng.Intn(200); i < n; i++ {
			l, hi := uint8(rng.Intn(33)), uint64(rng.Uint32())<<32
			if fam == prefix.IPv6 {
				l, hi = uint8(rng.Intn(65)), rng.Uint64() // cap at /64 like the fuzz harness
			}
			p, err := prefix.Make(fam, hi, 0, l)
			if err != nil {
				t.Fatal(err)
			}
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: l, AS: 1})
		}
		cx := CompactFromIndex(newIndexFromVRPs(vrps, nil))
		f := &cx.fams[slot]
		own := make(map[string]bool)
		for _, k := range keptNodes(t, cx, slot) {
			own[k] = true
		}
		for _, v := range vrps {
			if !own[v.Prefix.String()+"=1"] {
				t.Fatalf("trial %d: key %s has no node carrying its entry", trial, v.Prefix)
			}
		}
		for idx := range f.eng.Nodes {
			nd := &f.eng.Nodes[idx]
			k := nd.Key(fam)
			kids := 0
			for bit, c := range nd.Children {
				if c == core.NoChild {
					continue
				}
				kids++
				ck := f.eng.Nodes[c].Key(fam)
				if ck.Len() <= k.Len() || !k.Contains(ck) || ck.Bit(k.Len()) != uint8(bit) {
					t.Fatalf("trial %d: %s is child %d of %s", trial, ck, bit, k)
				}
			}
			if idx != 0 && kids < 2 && !own[k.String()+"=1"] {
				t.Fatalf("trial %d: payload-free node %s has %d children", trial, k, kids)
			}
		}
	}
}

// TestCompactFromIndexGarbageSnapshot derives from a snapshot with garbage in
// it — a Table after a few hundred path-copied deltas and no compaction
// (pathCopy) — and from an Index freshly built over the same set: the same VRPs
// out, the same answer to every probe around every prefix ever in the table.
// What only the first has: spans emptied in place, chains of nodes leading to
// nothing, and branch nodes with nothing left down one side, or either.
func TestCompactFromIndexGarbageSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	mk := func(s string, as rpki.ASN) rpki.VRP {
		p := prefix.MustParse(s)
		return rpki.VRP{Prefix: p, MaxLength: p.Len(), AS: as}
	}
	var base []rpki.VRP
	for len(base) < 400 {
		base = append(base, randomVRP(rng))
	}
	tab := NewTable(base)

	// The case by hand: 10.0.0.0/9 branches to two /16s and loses one of
	// them, then the other; 2001:db8::/33 keeps one side of three.
	hand := []rpki.VRP{mk("10.0.0.0/16", 1), mk("10.64.0.0/16", 2), mk("10.64.0.0/24", 2),
		mk("2001:db8::/34", 3), mk("2001:db8:4000::/34", 3), mk("2001:db8:8000::/33", 4)}
	ever := append(slices.Clone(base), hand...)
	pathCopy(tab, hand, nil)
	pathCopy(tab, nil, []rpki.VRP{hand[1], hand[2], hand[4], hand[5]})
	in := rpki.NewSet(tab.Snapshot().AppendVRPs(nil)).VRPs()
	for delta := 0; delta < 300; delta++ {
		var ann, wd []rpki.VRP
		for i := rng.Intn(3); i >= 0; i-- {
			ann = append(ann, randomVRP(rng))
		}
		for i := rng.Intn(3); i >= 0 && len(in) > 0; i-- {
			wd = append(wd, in[rng.Intn(len(in))])
		}
		pathCopy(tab, ann, wd)
		ever = append(ever, ann...)
		in = rpki.NewSet(tab.Snapshot().AppendVRPs(nil)).VRPs()
	}

	snap := tab.Snapshot()
	if live, all := len(snap.AppendVRPs(nil)), len(snap.entries); all < 2*live {
		t.Fatalf("the snapshot holds %d entry cells for %d VRPs: not much garbage", all, live)
	}
	set := rpki.NewSet(snap.AppendVRPs(nil))
	fresh := NewIndex(set)
	got, want := CompactFromIndex(snap), CompactFromIndex(fresh)
	if got.Len() != want.Len() {
		t.Fatalf("Len: %d from the snapshot, %d from the fresh index", got.Len(), want.Len())
	}
	// Entries at one prefix keep the order they were announced in, which a
	// fresh build over the sorted set does not share: exact against the
	// snapshot's own stream, as a set against the fresh derivation's.
	if g, w := got.AppendVRPs(nil), snap.AppendVRPs(nil); !reflect.DeepEqual(g, w) {
		t.Fatalf("AppendVRPs: %d VRPs derived, the snapshot streams %d, or in another order", len(g), len(w))
	}
	if g, w := rpki.NewSet(got.AppendVRPs(nil)), rpki.NewSet(want.AppendVRPs(nil)); !reflect.DeepEqual(g.VRPs(), w.VRPs()) {
		t.Fatalf("AppendVRPs: %d VRPs from the snapshot, %d from the fresh index, or other ones", g.Len(), w.Len())
	}
	probes := append(probesFor(rng, ever), probesAround(ever)...)
	checkCompactAgainst(t, "garbage snapshot", got, fresh, NewReference(set), probes)
	for _, q := range probes {
		if g, w := got.Validate(q.Prefix, q.Origin), want.Validate(q.Prefix, q.Origin); g != w {
			t.Fatalf("Validate(%s, AS%d): %v from the snapshot, %v from the fresh index", q.Prefix, q.Origin, g, w)
		}
	}
}

// TestCompactIndexStride16 crosses the stride cutoff (a 65536-slot table)
// with a dense random IPv4 load and checks against the Index on queries that
// include sub-stride lengths, so both the wide slot table and the
// plen-filtered aggregate scan are exercised at scale.
func TestCompactIndexStride16(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var vrps []rpki.VRP
	for i := 0; i < strideCutoff+2000; i++ {
		l := uint8(6 + rng.Intn(27))
		p, err := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		if err != nil {
			t.Fatal(err)
		}
		ml := l + uint8(rng.Intn(int(32-l)+1))
		vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(rng.Intn(500))})
	}
	set := rpki.NewSet(vrps)
	ix := NewIndex(set)
	cx := NewCompactIndex(set)
	if got := cx.fams[0].stride; got != 16 {
		t.Fatalf("IPv4 stride = %d, want 16", got)
	}
	for i := 0; i < 20000; i++ {
		l := uint8(rng.Intn(33))
		p, err := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		if err != nil {
			t.Fatal(err)
		}
		as := rpki.ASN(rng.Intn(500))
		if got, want := cx.Validate(p, as), ix.Validate(p, as); got != want {
			t.Fatalf("compact.Validate(%s, AS%d) = %v, index says %v", p, as, got, want)
		}
	}
}

// checkSlotSpans repaints cx's stride tables with the painter buildFamCompact's
// pass 3 replaced — every node at or above the stride writes its aggregate
// over its whole slot range, in pre-order, so a slot ends up with its deepest
// covering one — and compares every slot's span by content: the build skips
// the writes that would not change what a slot holds, so offsets may differ
// where entries cannot.
func checkSlotSpans(t *testing.T, name string, cx *CompactIndex) {
	t.Helper()
	for slot := range cx.fams {
		f := &cx.fams[slot]
		if f.slots == nil {
			continue
		}
		want := make([]cspan, len(f.slots))
		f.eng.Walk(0, func(idx int32) {
			nd := &f.eng.Nodes[idx]
			if nd.PLen > f.stride {
				return
			}
			base := nd.Hi >> f.shift
			for s := base; s < base+1<<(f.stride-nd.PLen); s++ {
				want[s] = nd.Val
			}
		})
		for s, w := range want {
			g := f.slots[s].span
			if !slices.Equal(cx.entries[g.off:g.off+g.n], cx.entries[w.off:w.off+w.n]) {
				t.Fatalf("%s: %v slot %#x holds %v, painted always it holds %v", name, slotFamily(slot), s,
					cx.entries[g.off:g.off+g.n], cx.entries[w.off:w.off+w.n])
			}
		}
	}
}

// TestCompactSlotSpans runs checkSlotSpans on today's table (a 16-bit IPv4
// table, an 8-bit IPv6 one) and on a table with entries at every level above
// the stride, where a paint skipped wrongly would lose one.
func TestCompactSlotSpans(t *testing.T) {
	checkSlotSpans(t, "today", CompactFromIndex(newIndexFromVRPs(todayTable(t), nil)))
	rng := rand.New(rand.NewSource(61))
	var vrps []rpki.VRP
	for i := 0; i < strideCutoff+500; i++ {
		l := uint8(rng.Intn(25)) // a third of them above /8, two thirds above /16
		p, err := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		if err != nil {
			t.Fatal(err)
		}
		vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: l, AS: rpki.ASN(rng.Intn(50))})
	}
	cx := CompactFromIndex(newIndexFromVRPs(vrps, nil))
	if cx.fams[0].stride != 16 {
		t.Fatalf("IPv4 stride = %d, want 16", cx.fams[0].stride)
	}
	checkSlotSpans(t, "short prefixes", cx)
}

// TestCompactIndexEdgeCases covers the table shapes the stride/aggregate
// machinery treats specially: empty tables, one-family tables, /0 and
// maximum-length VRPs, and invalid query prefixes.
func TestCompactIndexEdgeCases(t *testing.T) {
	empty := NewCompactIndex(rpki.NewSet(nil))
	if got := empty.Validate(prefix.MustParse("10.0.0.0/8"), 1); got != NotFound {
		t.Fatalf("empty table: %v, want NotFound", got)
	}
	if got := empty.Validate(prefix.Prefix{}, 1); got != NotFound {
		t.Fatalf("invalid prefix: %v, want NotFound", got)
	}
	if n := len(empty.AppendVRPs(nil)); n != 0 {
		t.Fatalf("empty AppendVRPs returned %d VRPs", n)
	}

	vrps := []rpki.VRP{
		{Prefix: prefix.MustParse("0.0.0.0/0"), MaxLength: 8, AS: 64500},
		{Prefix: prefix.MustParse("10.0.0.0/8"), MaxLength: 8, AS: 64501},
		{Prefix: prefix.MustParse("10.0.0.0/8"), MaxLength: 24, AS: 64502},
		{Prefix: prefix.MustParse("10.1.2.3/32"), MaxLength: 32, AS: 64503},
		{Prefix: prefix.MustParse("2001:db8::/32"), MaxLength: 48, AS: 64504},
		{Prefix: prefix.MustParse("2001:db8::1/128"), MaxLength: 128, AS: 64505},
	}
	set := rpki.NewSet(vrps)
	cx := NewCompactIndex(set)
	ix := NewIndex(set)
	ref := NewReference(set)
	queries := []Route{
		{Prefix: prefix.MustParse("0.0.0.0/0"), Origin: 64500},   // matches the /0 VRP
		{Prefix: prefix.MustParse("7.0.0.0/8"), Origin: 64500},   // covered only by /0
		{Prefix: prefix.MustParse("7.0.0.0/9"), Origin: 64500},   // beyond /0's maxLength
		{Prefix: prefix.MustParse("10.0.0.0/6"), Origin: 64501},  // shorter than the /8 VRPs
		{Prefix: prefix.MustParse("10.0.0.0/8"), Origin: 64501},  // exact
		{Prefix: prefix.MustParse("10.1.2.3/32"), Origin: 64503}, // host route
		{Prefix: prefix.MustParse("10.1.2.2/31"), Origin: 64503}, // parent of a /32
		{Prefix: prefix.MustParse("10.9.0.0/16"), Origin: 64502}, // within maxLength 24
		{Prefix: prefix.MustParse("2001:db8::1/128"), Origin: 64505},
		{Prefix: prefix.MustParse("2001:db8::/33"), Origin: 64504},
		{Prefix: prefix.MustParse("2001:db8::/31"), Origin: 64504}, // shorter than every v6 VRP
		{Prefix: prefix.MustParse("::/0"), Origin: 64504},
		{Prefix: prefix.MustParse("8000::/1"), Origin: 64504},
	}
	for _, q := range queries {
		got := cx.Validate(q.Prefix, q.Origin)
		if want := ix.Validate(q.Prefix, q.Origin); got != want {
			t.Fatalf("compact.Validate(%s, AS%d) = %v, index says %v", q.Prefix, q.Origin, got, want)
		}
		if want := ref.Validate(q.Prefix, q.Origin); got != want {
			t.Fatalf("compact.Validate(%s, AS%d) = %v, reference says %v", q.Prefix, q.Origin, got, want)
		}
	}
	if got, want := cx.AppendVRPs(nil), ix.AppendVRPs(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendVRPs mismatch:\ncompact: %v\nindex:   %v", got, want)
	}
}

// TestCompactBatchVariants pins every batch entry point to the one-route
// Validate answer: plain, sorted (above and below its radix threshold), and
// parallel batches must be indistinguishable.
func TestCompactBatchVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var vrps []rpki.VRP
	for i := 0; i < 500; i++ {
		vrps = append(vrps, randomVRP(rng))
	}
	cx := NewCompactIndex(rpki.NewSet(vrps))
	for _, n := range []int{0, 1, sortedBatchMin - 1, 2048} {
		routes := make([]Route, n)
		for i := range routes {
			routes[i] = randomProbe(rng)
		}
		want := make([]State, n)
		for i, q := range routes {
			want[i] = cx.Validate(q.Prefix, q.Origin)
		}
		statesEqual := func(got []State) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if got := cx.ValidateBatch(routes, nil); !statesEqual(got) {
			t.Fatalf("n=%d: ValidateBatch diverges from Validate", n)
		}
		if got := cx.ValidateBatchSorted(routes, nil); !statesEqual(got) {
			t.Fatalf("n=%d: ValidateBatchSorted diverges from Validate", n)
		}
		if got := cx.ValidateBatchParallel(routes, nil, 4); !statesEqual(got) {
			t.Fatalf("n=%d: ValidateBatchParallel diverges from Validate", n)
		}
	}
}
