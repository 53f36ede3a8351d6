package rov

import (
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

// v6Table is an IPv6 table shaped like real ROAs: 1,000 /32s under 2000::/3,
// each announced, and eight /48s under each, at the /32's origin.
func v6Table() []rpki.VRP {
	rng := rand.New(rand.NewSource(7))
	var out []rpki.VRP
	for range 1000 {
		base := uint64(0x2000)<<48 | rng.Uint64()>>3&0x1fffffff<<32
		as := rpki.ASN(rng.Intn(30000))
		p, _ := prefix.Make(prefix.IPv6, base, 0, 32)
		out = append(out, rpki.VRP{Prefix: p, MaxLength: 32, AS: as})
		for range 8 {
			q, _ := prefix.Make(prefix.IPv6, base|uint64(rng.Intn(1<<16))<<16, 0, 48)
			out = append(out, rpki.VRP{Prefix: q, MaxLength: 48, AS: as})
		}
	}
	return out
}

// insertLoopIndex is the reference every build is held to, given the same
// VRPs in the trie's pre-order (inPreorder): every VRP inserted by a descent
// into a slab hinted at one node per VRP — a prefix shorter than /16 from the
// short-prefix trie's root, a longer one from its slot, whose pages are
// appended as the first VRP in them needs them, the top page first — through
// every child whose key its prefix extends, to its node or to the child its
// key parts from, which moves under a new branch point (appended first) or
// under the prefix's new node — each node's entries gathered, a repeat
// dropped, and the spans laid out sorted, in node order, IPv4's first, after
// the reserved cell.
func insertLoopIndex(vrps []rpki.VRP) *Index {
	ix := &Index{version: versions.Add(1), entries: make([]entry, 1)}
	for _, v := range vrps {
		ix.fams[famSlot(v.Prefix.Family())].size++
	}
	for slot := range ix.fams {
		ix.fams[slot].nodes = make([]node, 1, ix.fams[slot].size+1)
		ix.fams[slot].pages = make([]page, 1)
	}
	spans := [2]map[int32][]entry{{}, {}}
	for _, v := range vrps {
		slot, p := famSlot(v.Prefix.Family()), v.Prefix
		f := &ix.fams[slot]
		add := func(k prefix.Prefix) int32 {
			hi, lo := k.Bits()
			return f.push(k.Len(), hi, lo)
		}
		newPage := func() int32 {
			f.pages = append(f.pages, page{})
			return int32(len(f.pages) - 1)
		}
		hi, _ := p.Bits()
		s, head, leaf := uint32(hi>>48), p.Len() >= 16, int32(0)
		if head {
			if f.top == 0 {
				f.top = newPage()
			}
			leaf = f.top
			for shift := 12; shift > 0; shift -= 4 {
				if f.pages[leaf][s>>shift&15] == 0 {
					pg := newPage()
					f.pages[leaf][s>>shift&15] = pg
				}
				leaf = f.pages[leaf][s>>shift&15]
			}
		}
		idx := f.root
		for head || f.nodes[idx].plen < p.Len() {
			var c int32
			var put func(int32)
			if head {
				c = f.pages[leaf][s&15]
				put = func(x int32) { f.pages[leaf][s&15] = x }
			} else {
				up, bit := idx, p.Bit(f.nodes[idx].plen)
				c = f.nodes[up].children[bit]
				put = func(x int32) { f.nodes[up].children[bit] = x }
			}
			head = false
			if c == 0 {
				c = add(p)
				put(c)
			} else if ck := f.prefix(p.Family(), c); !ck.Contains(p) {
				if d := prefix.CommonPrefixLen(ck, p); d < p.Len() {
					hi, lo := p.Bits()
					b := add(keyPrefix(p.Family(), hi, lo, d))
					f.nodes[b].children[ck.Bit(d)] = c
					put(b)
					c = add(p)
					f.nodes[b].children[p.Bit(d)] = c
				} else {
					k := add(p)
					f.nodes[k].children[ck.Bit(p.Len())] = c
					put(k)
					c = k
				}
			}
			idx = c
		}
		e := entry{maxLength: v.MaxLength, as: v.AS}
		if slices.Contains(spans[slot][idx], e) {
			f.size--
			continue
		}
		spans[slot][idx] = append(spans[slot][idx], e)
	}
	for slot := range ix.fams {
		nodes := ix.fams[slot].nodes
		for j := range nodes {
			if es := spans[slot][int32(j)]; len(es) > 0 {
				slices.SortFunc(es, cmpEntry)
				es[len(es)-1].last = true
				nodes[j].off = int32(len(ix.entries))
				ix.entries = append(ix.entries, es...)
			}
		}
	}
	return ix
}

// checkSameSlabs fails unless got and want are the same index cell for cell:
// page slabs page for page, node slabs child for child, key for key and span
// offset for span offset, wide slabs, roots, sizes and entry slabs — what two
// builds of one set make, whatever order either was given.
func checkSameSlabs(t *testing.T, name string, got, want *Index) {
	t.Helper()
	for slot := range want.fams {
		g, w := &got.fams[slot], &want.fams[slot]
		if g.root != w.root || g.size != w.size {
			t.Fatalf("%s, family %d: root %d size %d, want %d and %d", name, slot, g.root, g.size, w.root, w.size)
		}
		if g.top != w.top || !slices.Equal(g.pages, w.pages) {
			t.Fatalf("%s, family %d: top page %d of %d, want %d of %d (or other pages)", name, slot, g.top, len(g.pages), w.top, len(w.pages))
		}
		if len(g.nodes) != len(w.nodes) || !slices.Equal(g.wide, w.wide) {
			t.Fatalf("%s, family %d: %d nodes, %d wide keys, want %d and %d (or other keys)", name, slot, len(g.nodes), len(g.wide), len(w.nodes), len(w.wide))
		}
		for j := range w.nodes {
			gn, wn := g.nodes[j], w.nodes[j]
			if gn.children != wn.children || gn.key != wn.key || gn.plen != wn.plen || gn.off != wn.off {
				t.Fatalf("%s, family %d: node %d is %+v, want %+v", name, slot, j, gn, wn)
			}
		}
	}
	if !slices.Equal(got.entries, want.entries) {
		t.Fatalf("%s: %d entry cells, not the %d wanted cell for cell", name, len(got.entries), len(want.entries))
	}
}

// checkSameTable fails unless got and want hold the same VRP set: the same
// size, nothing to announce or withdraw between them, and one VRP stream, in
// diffOrder whatever order either was built from.
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
		for i := 1; i < len(vrps); i++ {
			if diffOrder(vrps[i-1], vrps[i]) >= 0 {
				t.Fatalf("%s: the VRP stream is not strictly in diffOrder at %d: %v, %v", name, i, vrps[i-1], vrps[i])
			}
		}
		return vrps
	}
	if !slices.Equal(stream(got), stream(want)) {
		t.Fatalf("%s: not the pre-ordered build's VRP stream", name)
	}
}

// inPreorder returns a copy of vrps in the trie's pre-order, IPv4 first, as
// VisitVRPs streams it: a stable sort on the prefix, so one prefix's VRPs keep
// their order.
func inPreorder(vrps []rpki.VRP) []rpki.VRP {
	pre := slices.Clone(vrps)
	slices.SortStableFunc(pre, func(a, b rpki.VRP) int { return a.Prefix.Compare(b.Prefix) })
	return pre
}

// buildOrders returns vrps (which may repeat VRPs) as given and in the orders
// a builder meets: the trie's pre-order; a Set's AS-major order; the
// pre-order reversed; shuffled; and the pre-order with the two families'
// streams interleaved, each still in order.
func buildOrders(vrps []rpki.VRP, seed int64) map[string][]rpki.VRP {
	pre := inPreorder(vrps)
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

// TestIndexBuildMatchesInsertLoop pins the one builder against the
// root-descent insert loop over the pre-order. In every input order the index
// is the loop's cell for cell — a list out of pre-order is sorted first, so
// the same nodes are created in the same sequence and every span is written in
// place, leaving no cell unused — and holds the table in the trie's shape. The
// pre-ordered input is checked to be what VisitVRPs streams.
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
	slices.SortFunc(once, diffOrder)
	if !slices.Equal(want.AppendVRPs(nil), once) {
		t.Fatal("the pre-ordered input, repeats dropped, is not the index's VisitVRPs stream")
	}
	for name, vrps := range orders {
		got := newIndexFromVRPs(vrps, nil)
		checkSameSlabs(t, name, got, want)
		checkSameTable(t, name, got, want)
		checkShape(t, name, got)
		if cells := len(got.entries); cells != 1+got.Len() {
			t.Errorf("%s: %d entry cells for %d VRPs listed, %d of them distinct", name, cells, len(vrps), got.Len())
		}
	}
}

// nodeCaps returns the capacity and length of ix's node slabs, both families
// summed.
func nodeCaps(ix *Index) (capacity, length int) {
	for slot := range ix.fams {
		capacity += cap(ix.fams[slot].nodes)
		length += len(ix.fams[slot].nodes)
	}
	return capacity, length
}

// TestIndexBuildCapacity pins the slab sizing. Every order is counted before
// it is built and sized once: no family's slab is over len + len/64 + 64
// nodes, and the headroom takes a path-copied delta without regrowing — an
// exactly full slab would grow by a quarter at the first one, in every table
// of every follower.
func TestIndexBuildCapacity(t *testing.T) {
	for name, vrps := range buildOrders(buildTable(t), 7) {
		tab := NewTable(vrps)
		ix := tab.Snapshot()
		for slot := range ix.fams {
			if n, c := len(ix.fams[slot].nodes), cap(ix.fams[slot].nodes); c > n+n/64+64 {
				t.Errorf("%s, family %d: slab of %d nodes for %d", name, slot, c, n)
			}
		}
		before, _ := nodeCaps(ix)
		pathCopy(tab, []rpki.VRP{markerVRP(0), {Prefix: prefix.MustParse("2001:db8:1::/48"), MaxLength: 48, AS: 64500}}, nil)
		if after, _ := nodeCaps(tab.Snapshot()); after != before || tab.Len() != ix.Len()+2 {
			t.Errorf("%s: node slabs of %d cells became %d at the first path-copied delta (%d VRPs → %d)", name, before, after, ix.Len(), tab.Len())
		}
	}
}

// TestNewIndexMatchesItsStream pins a Set's build to the wire's: NewIndex of
// today's table, AS-major, is cell for cell and capacity for capacity the
// index built from its own VisitVRPs stream, which is in pre-order.
func TestNewIndexMatchesItsStream(t *testing.T) {
	ix := NewIndex(rpki.NewSet(todayTable(t)))
	streamed := newIndexFromVRPs(ix.AppendVRPs(nil), nil)
	checkSameSlabs(t, "today's Set", ix, streamed)
	for slot := range ix.fams {
		g, w := &ix.fams[slot], &streamed.fams[slot]
		if cap(g.nodes) != cap(w.nodes) || cap(g.pages) != cap(w.pages) {
			t.Errorf("family %d: slabs of %d nodes and %d pages, the stream's %d and %d", slot, cap(g.nodes), cap(g.pages), cap(w.nodes), cap(w.pages))
		}
	}
	if cap(ix.entries) != cap(streamed.entries) {
		t.Errorf("an entry slab of %d cells, the stream's %d", cap(ix.entries), cap(streamed.entries))
	}
}

// TestByPrefixOrder pins byPrefix to a stable comparison sort on the prefix.
// Its key is the prefix alone, so the hand-built list's ties — three ASes on
// one prefix, one of them with three maxLengths, listed out of (AS, maxLength)
// order — keep the list's order only if the sort is stable, and its two IPv6
// prefixes that differ only in their low 64 bits, the later one held by the
// lower AS, come out right only if every low digit is sorted. A random list of
// both families, every length and random low bits follows, as a Set lists it
// and shuffled; byPrefix writes neither.
func TestByPrefixOrder(t *testing.T) {
	hand := []rpki.VRP{
		v("192.0.2.0/24", 24, 64502), v("192.0.2.0/24", 28, 64501), v("192.0.2.0/24", 24, 64501),
		v("192.0.2.0/24", 26, 64501), v("192.0.2.0/24", 24, 64500), v("192.0.0.0/16", 24, 64503),
		v("10.0.0.0/8", 8, 64503), v("2001:db8::1:0:0/96", 96, 64500), v("2001:db8::/96", 128, 64501),
		v("2001:db8::/32", 48, 64502),
	}
	rng := rand.New(rand.NewSource(37))
	var random []rpki.VRP
	for range 3000 {
		fam, hi, lo := prefix.IPv4, uint64(rng.Uint32())<<32, uint64(0)
		if rng.Intn(2) == 0 {
			fam, hi, lo = prefix.IPv6, rng.Uint64(), rng.Uint64()
		}
		l := uint8(rng.Intn(int(fam.MaxLen()) + 1))
		p, err := prefix.Make(fam, hi, lo, l)
		if err != nil {
			t.Fatal(err)
		}
		for range 1 + rng.Intn(3) {
			random = append(random, rpki.VRP{Prefix: p, MaxLength: l + uint8(rng.Intn(int(fam.MaxLen()-l)+1)), AS: rpki.ASN(rng.Intn(8))})
		}
	}
	orders := buildOrders(random, 5)
	for _, c := range []struct {
		name string
		vrps []rpki.VRP
	}{{"hand-built", hand}, {"as-major", orders["as-major"]}, {"shuffled", orders["shuffled"]}} {
		before := slices.Clone(c.vrps)
		got, want := byPrefix(c.vrps), inPreorder(c.vrps)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Errorf("%s: byPrefix's %d VRPs part from the comparison sort's %d at index %d", c.name, len(got), len(want), i)
		}
		if !slices.Equal(c.vrps, before) {
			t.Errorf("%s: byPrefix changed the list it read", c.name)
		}
	}
}
