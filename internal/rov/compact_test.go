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
		checkCompactAgainst(t, "fromSet", NewIndex(set), ix, ref, qs)
		checkCompactAgainst(t, "fromIndex", CompactFromIndex(ix), ix, ref, qs)
	}
}

// keptNodes renders one family's tries as "key=entries", in the canonical
// order walkAll hands them over: the nodes the Index keeps, the short-prefix
// trie's root first.
func keptNodes(ix *Index, slot int) []string {
	f := &ix.fams[slot]
	var out []string
	f.walkAll(func(i int32) bool {
		out = append(out, fmt.Sprintf("%s=%d", f.prefix(slotFamily(slot), i), len(span(ix.entries, f.nodes[i].off))))
		return true
	})
	return out
}

// TestCompactFromIndexKeptNodes pins which nodes the Index keeps, key set by
// key set: the short-prefix trie's /0 root always, a node per key, a
// payload-free node wherever two keys of the short-prefix trie or of one slot
// part ways, at /16 at the least, and nothing else: no branch point above /16
// between two slots.
func TestCompactFromIndexKeptNodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []string // one VRP each; a repeated key is a second VRP at its node
		want []string // keptNodes of the keys' family
	}{
		{"one key under the root", []string{"10.0.0.0/8"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/8=1"}},
		{"two slots, no branch point above them", []string{"10.0.0.0/16", "10.64.0.0/16"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/16=1", "10.64.0.0/16=1"}},
		{"a branch point at a slot's /16", []string{"10.0.0.0/17", "10.0.128.0/17"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/16=0", "10.0.0.0/17=1", "10.0.128.0/17=1"}},
		{"a key extending a key", []string{"10.0.0.0/8", "10.0.0.0/16", "10.0.128.0/17"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/8=1", "10.0.0.0/16=1", "10.0.128.0/17=1"}},
		{"short keys branching, slots between them", []string{"10.0.0.0/8", "10.0.0.0/16", "10.0.128.0/17", "10.64.0.0/16", "11.0.0.0/8", "11.0.0.0/8", "192.168.0.0/16"},
			[]string{"0.0.0.0/0=0", "10.0.0.0/7=0", "10.0.0.0/8=1", "10.0.0.0/16=1", "10.0.128.0/17=1", "10.64.0.0/16=1", "11.0.0.0/8=2", "192.168.0.0/16=1"}},
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
		ix := CompactFromIndex(newIndexFromVRPs(vrps, nil))
		slot := famSlot(vrps[0].Prefix.Family())
		if got := keptNodes(ix, slot); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
		if other := &ix.fams[1-slot]; other.top != 0 || len(other.nodes) != 1 {
			t.Errorf("%s: the family without VRPs holds %d nodes and a top page %d", tc.name, len(other.nodes), other.top)
		}
		checkShape(t, tc.name, ix)
	}
}

// TestCompactFromIndexRandom builds from random key sets of both families,
// lengths /0 up, and checks the structural invariants: every key resolves to
// a node carrying its entry, the tries are in shape (shapeError: keys extend
// their parents', payload-free nodes branch, each slot's trie holds its /16's
// keys and nothing shorter), and nothing else is kept.
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
		ix := CompactFromIndex(newIndexFromVRPs(vrps, nil))
		checkShape(t, fmt.Sprintf("trial %d", trial), ix)
		own := make(map[string]bool)
		for _, k := range keptNodes(ix, slot) {
			own[k] = true
		}
		for _, v := range vrps {
			if !own[v.Prefix.String()+"=1"] {
				t.Fatalf("trial %d: key %s has no node carrying its entry", trial, v.Prefix)
			}
		}
	}
}

// TestCompactFromIndexGarbageSnapshot derives from a snapshot with garbage in
// it — a Table after a few hundred path-copied deltas and no compaction
// (pathCopy) — and from an Index freshly built over the same set: the same VRPs
// out, the same answer to every probe around every prefix ever in the table.
// What only the first has: cells its roots no longer reach, in both slabs —
// the originals of clones, nodes withdrawals spliced out, relocated spans.
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

// TestCompactIndexStride16 loads the radix root's /16 stride densely — a
// random IPv4 table from /6 down, a VRP in most slots and short prefixes over
// many — and checks it against the Reference on queries of every length, so
// both the short-prefix trie and the slots' tries answer at scale.
func TestCompactIndexStride16(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var vrps []rpki.VRP
	for i := 0; i < 6096; i++ {
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
	ref := NewReference(set)
	checkShape(t, "the dense table", ix)
	for i := 0; i < 20000; i++ {
		l := uint8(rng.Intn(33))
		p, err := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		if err != nil {
			t.Fatal(err)
		}
		as := rpki.ASN(rng.Intn(500))
		if got, want := ix.Validate(p, as), ref.Validate(p, as); got != want {
			t.Fatalf("Validate(%s, AS%d) = %v, reference says %v", p, as, got, want)
		}
	}
}

// checkSlotSpans fails unless every slot's trie holds the VRPs of its /16 and
// the short-prefix trie those shorter than /16, each exactly once: a slot's
// keys start with its 16 bits and are /16 or longer, and the two walks
// together stream the table.
func checkSlotSpans(t *testing.T, name string, ix *Index) {
	t.Helper()
	n := 0
	for slot := range ix.fams {
		f := &ix.fams[slot]
		f.walk(f.root, func(i int32) bool {
			if f.nodes[i].plen >= radixBits {
				t.Fatalf("%s: %s in the short-prefix trie", name, f.prefix(slotFamily(slot), i))
			}
			n += len(span(ix.entries, f.nodes[i].off))
			return true
		})
		f.slots(0, 1<<radixBits, func(s uint32, root int32) bool {
			f.walk(root, func(i int32) bool {
				if hi, _ := f.key(i); uint32(hi>>(64-radixBits)) != s || f.nodes[i].plen < radixBits {
					t.Fatalf("%s: %s in slot %#x", name, f.prefix(slotFamily(slot), i), s)
				}
				n += len(span(ix.entries, f.nodes[i].off))
				return true
			})
			return true
		})
	}
	if n != ix.Len() {
		t.Fatalf("%s: the short-prefix tries and the slots hold %d VRPs, the index %d", name, n, ix.Len())
	}
}

// TestCompactSlotSpans runs checkSlotSpans on today's table, which has no VRP
// shorter than /16, and on one with entries at every length from /0, before
// and after a delta.
func TestCompactSlotSpans(t *testing.T) {
	checkSlotSpans(t, "today", newIndexFromVRPs(todayTable(t), nil))
	rng := rand.New(rand.NewSource(61))
	var vrps []rpki.VRP
	for i := 0; i < 4596; i++ {
		l := uint8(rng.Intn(25)) // a third of them above /8, two thirds above /16
		p, err := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		if err != nil {
			t.Fatal(err)
		}
		vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: l, AS: rpki.ASN(rng.Intn(50))})
	}
	tab := NewTable(vrps)
	checkSlotSpans(t, "short prefixes", tab.Snapshot())
	pathCopy(tab, vrps[:100:100], vrps[100:200])
	checkSlotSpans(t, "short prefixes after a delta", tab.Snapshot())
}

// TestCompactIndexEdgeCases covers the table shapes the stride/aggregate
// machinery treats specially: empty tables, one-family tables, /0 and
// maximum-length VRPs, and invalid query prefixes.
func TestCompactIndexEdgeCases(t *testing.T) {
	empty := NewIndex(rpki.NewSet(nil))
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
	cx := NewIndex(set)
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
	cx := NewIndex(rpki.NewSet(vrps))
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
