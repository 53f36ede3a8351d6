package rov

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rpki"
	"repro/internal/synth"
)

// todayTable is today's table as the benchmark serves it: the generator's
// paper-calibrated status quo, compressed (Table 1: 39,949 → 33,615 PDUs), in
// the Set's AS-major order. Built once.
var todayTableCache []rpki.VRP

func todayTable(tb testing.TB) []rpki.VRP {
	if todayTableCache == nil {
		set, _ := core.Compress(synth.Generate(synth.Params6_1()).VRPs, core.Options{})
		if set.Len() != todaySize {
			tb.Fatalf("today's table compressed to %d VRPs, want %d", set.Len(), todaySize)
		}
		todayTableCache = set.VRPs()
	}
	return todayTableCache
}

// insertLoopIndex is the build newIndexFromVRPs replaced, kept as its
// reference: every VRP inserted by a descent from the root (PathInsert) into
// a slab hinted at one node per VRP, then the same two-pass span fill.
func insertLoopIndex(vrps []rpki.VRP) *Index {
	ix := &Index{version: versions.Add(1)}
	for _, v := range vrps {
		ix.fams[famSlot(v.Prefix.Family())].size++
	}
	for slot := range ix.fams {
		ix.fams[slot].eng.Init(ix.fams[slot].size, span{})
	}
	terms := make([]int32, 0, len(vrps))
	for _, v := range vrps {
		f := &ix.fams[famSlot(v.Prefix.Family())]
		idx := f.eng.PathInsert(f.root, v.Prefix, span{})
		f.eng.Nodes[idx].Val.n++
		terms = append(terms, idx)
	}
	off := int32(0)
	for slot := range ix.fams {
		nodes := ix.fams[slot].eng.Nodes
		for j := range nodes {
			sp := &nodes[j].Val
			sp.off = off
			off += sp.n
			sp.n = 0
		}
	}
	ix.entries = make([]entry, off)
	for i, v := range vrps {
		f := &ix.fams[famSlot(v.Prefix.Family())]
		sp := &f.eng.Nodes[terms[i]].Val
		e := entry{maxLength: v.MaxLength, as: v.AS}
		if slices.Contains(ix.entries[sp.off:sp.off+sp.n], e) {
			f.size--
			continue
		}
		ix.entries[sp.off+sp.n] = e
		sp.n++
	}
	return ix
}

// checkSameSlabs fails unless got and want are the same index cell for cell:
// node slabs, roots, sizes, entry slab.
func checkSameSlabs(t *testing.T, name string, got, want *Index) {
	t.Helper()
	for slot := range want.fams {
		g, w := &got.fams[slot], &want.fams[slot]
		if g.root != w.root || g.size != w.size {
			t.Fatalf("%s, family %d: root %d size %d, want %d and %d", name, slot, g.root, g.size, w.root, w.size)
		}
		if !slices.Equal(g.eng.Nodes, w.eng.Nodes) {
			t.Fatalf("%s, family %d: %d nodes, not the %d wanted cell for cell", name, slot, len(g.eng.Nodes), len(w.eng.Nodes))
		}
	}
	if !slices.Equal(got.entries, want.entries) {
		t.Fatalf("%s: %d entry cells, not the %d wanted cell for cell", name, len(got.entries), len(want.entries))
	}
}

// checkSameTable fails unless got and want hold the same VRP set: the same
// size, nothing to announce or withdraw between them, and one VRP stream but
// for the order inside a prefix, which is the order of insertion.
func checkSameTable(t *testing.T, name string, got, want *Index) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d VRPs, want %d", name, got.Len(), want.Len())
	}
	if a, w := Diff(want, got); len(a)+len(w) != 0 {
		t.Fatalf("%s: +%d -%d against the pre-ordered build", name, len(a), len(w))
	}
	if a, w := Diff(got, want); len(a)+len(w) != 0 {
		t.Fatalf("%s: +%d -%d from the pre-ordered build", name, len(a), len(w))
	}
	stream := func(ix *Index) []rpki.VRP {
		vrps := ix.AppendVRPs(nil)
		if !slices.IsSortedFunc(vrps, func(a, b rpki.VRP) int { return a.Prefix.Compare(b.Prefix) }) {
			t.Fatalf("%s: the VRP stream is not in prefix order", name)
		}
		slices.SortFunc(vrps, func(a, b rpki.VRP) int { return cmp.Or(a.Prefix.Compare(b.Prefix), a.Compare(b)) })
		return vrps
	}
	if !slices.Equal(stream(got), stream(want)) {
		t.Fatalf("%s: not the pre-ordered build's VRP stream", name)
	}
}

// buildOrders returns vrps (which may repeat VRPs) as given and in the orders
// a builder meets: the trie's pre-order, IPv4 first, as VisitVRPs streams it; a Set's
// AS-major order; the pre-order reversed; shuffled; and the pre-order with the
// two families' streams interleaved, each still in order.
func buildOrders(vrps []rpki.VRP, seed int64) map[string][]rpki.VRP {
	pre := slices.Clone(vrps)
	slices.SortStableFunc(pre, func(a, b rpki.VRP) int { return a.Prefix.Compare(b.Prefix) })
	asMajor := slices.Clone(vrps)
	slices.SortStableFunc(asMajor, rpki.VRP.Compare)
	reversed := slices.Clone(pre)
	slices.Reverse(reversed)
	shuffled := slices.Clone(pre)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	split := 0
	for split < len(pre) && pre[split].Prefix.Family() == prefix.IPv4 {
		split++
	}
	interleaved := make([]rpki.VRP, 0, len(pre))
	for i := 0; i < max(split, len(pre)-split); i++ {
		if i < split {
			interleaved = append(interleaved, pre[i])
		}
		if split+i < len(pre) {
			interleaved = append(interleaved, pre[split+i])
		}
	}
	return map[string][]rpki.VRP{"given": vrps, "preorder": pre, "as-major": asMajor, "reversed": reversed, "shuffled": shuffled, "interleaved": interleaved}
}

// buildTable is today's table plus what it lacks: a second family with keys
// down to /128, a /0 in each, VRPs that differ in maxLength or origin only,
// and one VRP three times over.
func buildTable(tb testing.TB) []rpki.VRP {
	vrps := slices.Clone(todayTable(tb))
	for _, v := range []struct {
		p  string
		ml uint8
		as rpki.ASN
	}{
		{"0.0.0.0/0", 0, 64500}, {"::/0", 0, 64500}, {"::/0", 8, 64501},
		{"2001:db8::/32", 48, 64500}, {"2001:db8::/32", 32, 64500}, {"2001:db8:0:1::/64", 64, 64502},
		{"2001:db8::1/128", 128, 64500}, {"2001:db8::/127", 128, 64500}, {"2001:db8::3/128", 128, 64500},
		{"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", 128, 64503}, {"255.255.255.255/32", 32, 64503},
	} {
		vrps = append(vrps, rpki.VRP{Prefix: prefix.MustParse(v.p), MaxLength: v.ml, AS: v.as})
	}
	return append(vrps, vrps[100], vrps[len(vrps)-4], vrps[100], vrps[100])
}

// TestIndexBuildMatchesInsertLoop pins the finger builder against the loop it
// replaced. In every input order the index is the insert loop's cell for cell
// — the finger is a cache of the path, so the same nodes are created in the
// same sequence — and every order's index holds the table the pre-ordered one
// does. The pre-ordered input is checked to be what VisitVRPs streams.
func TestIndexBuildMatchesInsertLoop(t *testing.T) {
	orders := buildOrders(buildTable(t), 7)
	want := insertLoopIndex(orders["preorder"])
	if want.Len() != todaySize+11 || want.fams[1].size != 9 {
		t.Fatalf("the table holds %d VRPs, %d of them IPv6; want %d and 9", want.Len(), want.fams[1].size, todaySize+11)
	}
	seen := map[rpki.VRP]bool{}
	once := slices.DeleteFunc(slices.Clone(orders["preorder"]), func(v rpki.VRP) bool {
		again := seen[v]
		seen[v] = true
		return again
	})
	if !slices.Equal(want.AppendVRPs(nil), once) {
		t.Fatal("the pre-ordered input, repeats dropped, is not the index's VisitVRPs stream")
	}
	for name, vrps := range orders {
		got := newIndexFromVRPs(vrps, nil)
		checkSameSlabs(t, name, got, insertLoopIndex(vrps))
		checkSameTable(t, name, got, want)
	}
}

// nodeCaps returns the capacity and length of ix's node slabs, both families
// summed.
func nodeCaps(ix *Index) (capacity, length int) {
	for slot := range ix.fams {
		capacity += cap(ix.fams[slot].eng.Nodes)
		length += len(ix.fams[slot].eng.Nodes)
	}
	return capacity, length
}

// TestIndexBuildCapacity pins the slab sizing on both sides. Ordered input is
// sized once: no family's slab is over len + len/64 + 64 nodes, and the
// headroom takes a path-copied delta without regrowing — an exactly full slab
// would grow by a quarter at the first one, in every table of every follower.
// Unordered input never trusts Σ(len − cpl), which over it is several times
// the node count: its slabs are what growth by append leaves, under 1.3 × len.
func TestIndexBuildCapacity(t *testing.T) {
	orders := buildOrders(buildTable(t), 7)
	for _, name := range []string{"preorder", "interleaved"} {
		tab := NewTable(orders[name])
		ix := tab.Snapshot()
		for slot := range ix.fams {
			if n, c := len(ix.fams[slot].eng.Nodes), cap(ix.fams[slot].eng.Nodes); c > n+n/64+64 {
				t.Errorf("%s, family %d: slab of %d nodes for %d", name, slot, c, n)
			}
		}
		before, _ := nodeCaps(ix)
		pathCopy(tab, []rpki.VRP{markerVRP(0), {Prefix: prefix.MustParse("2001:db8:1::/48"), MaxLength: 48, AS: 64500}}, nil)
		if after, _ := nodeCaps(tab.Snapshot()); after != before || tab.Len() != ix.Len()+2 {
			t.Errorf("%s: node slabs of %d cells became %d at the first path-copied delta (%d VRPs → %d)", name, before, after, ix.Len(), tab.Len())
		}
	}
	for _, name := range []string{"as-major", "reversed", "shuffled"} {
		if c, n := nodeCaps(newIndexFromVRPs(orders[name], nil)); float64(c) > 1.3*float64(n) {
			t.Errorf("%s: slabs of %d nodes for %d", name, c, n)
		}
	}
}
