package rov

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file is the validator every table serves from: per family, a radix
// root over the top 16 address bits (DIR-24-8, Gupta, Lin & McKeown,
// INFOCOM 1998; LC-tries, Nilsson & Karlsson, IEEE JSAC 1999) whose slots hold
// the PATRICIA tries (Morrison, JACM 1968) of their /16s, and a short-prefix
// trie for the VRPs shorter than /16. The tries are one slab of 20-byte nodes
// a family, with int32 child indices, whose per-node payload is the offset of
// a span in a parallel value slab of VRP entries, its last cell marked. A trie
// keeps only its root, the nodes with a span and the nodes with two children,
// and each node its key; no branch point above /16 is built, where a real
// table branches at nearly every bit. The root is four levels of 16-slot
// pages in a page slab a family, so a delta path-copies four 64-byte pages,
// not the root. Building an Index is O(nodes) slab appends, each insert
// starting on the previous one's path, and Validate reads four pages and a
// slot's short descent. An append may move a slab, so code that grows one
// holds indices across the append, never an address (README, invariant 2).

// entry is one VRP payload at a trie node: the node's prefix is implied by
// its position, so only maxLength and origin AS remain. last marks the final
// cell of its span; it fits in the padding before as, so an entry stays 8
// bytes.
type entry struct {
	maxLength uint8
	last      bool
	as        rpki.ASN
}

// cmpEntry is the order of a span's cells, marks aside: by AS, then
// maxLength — diffOrder within one prefix. A span holds each VRP once, in
// this order, so VisitVRPs streams a table in diffOrder whatever built it, and
// Diff and a delta merge spans instead of searching them.
func cmpEntry(a, b entry) int {
	return cmp.Or(cmp.Compare(a.as, b.as), cmp.Compare(a.maxLength, b.maxLength))
}

// span returns the entries of the span at off: entries[off] up to and
// including the first cell marked last — one to three cells for one exact
// prefix on today's table, and as many as a cache sends, since no count
// limits it. Offset 0 is the empty span: every build reserves entries[0].
func span(entries []entry, off int32) []entry {
	if off == 0 {
		return nil
	}
	end := off
	for !entries[end].last {
		end++
	}
	return entries[off : end+1]
}

// node is one vertex of a family's tries: its children's slab indices, the
// offset of its span (0 for none), and its key, plen bits: the first 32 in
// key, and all of them in the family's wide slab once a key runs past 32. A
// child's key strictly extends its parent's; the bit after the parent's length
// picks the child. Every node but the short-prefix trie's root has a span or
// two children. Node 0 is reserved — a build's root, a dead placeholder once a
// delta reroots the family — and is never a child or a slot's, so 0 means none.
type node struct {
	children [2]int32
	off      int32
	key      uint32
	plen     uint8
}

// radixBits is the radix root's stride: a slot per /16. A prefix at least
// that long lives in its slot's trie, a shorter one in the short-prefix trie.
const radixBits = 16

// page is one level of a radix root: 16 page indices one level down, or, at
// the fourth level, 16 slots' subtree roots; 0 is none. Page 0 of every page
// slab is empty and never written, so a lookup runs four loads, no tests.
type page [16]int32

// noPages is the page slab of a family no slot has used: the empty page,
// shared, and grown by copy the first time a slot is.
var noPages = make([]page, 1)

// famIndex is one address family's index: its node slab, the wide slab of its
// keys (nil while every key fits in 32 bits), its page slab, the root's top
// page (0: every slot empty), the short-prefix trie's root, the number of VRPs
// under them, and the slabs' lineage.
//
// lineage names the build the slabs grew from — its version, unique in the
// process; 0 shares with nothing. A delta copies it into its snapshot with the
// slabs, and a rebuild starts a new one. (The slab's base pointer cannot
// serve: an append may move it without changing an index.) Since a delta
// writes only nodes and pages it appended, before it publishes them, two
// snapshots of one lineage hold the same subtree at an equal node index, and
// the same slots under an equal page index: walkDiff skips both.
type famIndex struct {
	nodes   []node
	wide    [][2]uint64
	pages   []page
	top     int32
	root    int32
	size    int
	lineage uint64
}

// sameLineage reports whether f and o are snapshots of one slab's history.
func (f *famIndex) sameLineage(o *famIndex) bool {
	return f.lineage != 0 && f.lineage == o.lineage
}

// key returns node i's key, left-aligned.
func (f *famIndex) key(i int32) (hi, lo uint64) {
	if f.wide != nil {
		return f.wide[i][0], f.wide[i][1]
	}
	return uint64(f.nodes[i].key) << 32, 0
}

// prefix returns node i's key as a prefix of family fam.
func (f *famIndex) prefix(fam prefix.Family, i int32) prefix.Prefix {
	hi, lo := f.key(i)
	return keyPrefix(fam, hi, lo, f.nodes[i].plen)
}

// push appends a bare node of plen bits keyed (hi, lo), masked, in place (one
// copied from the stack stalls), and returns its index. The first key past 32
// bits starts the family's wide slab, copying the keys before; then both grow.
func (f *famIndex) push(plen uint8, hi, lo uint64) int32 {
	i := int32(len(f.nodes))
	f.nodes = append(f.nodes, node{})
	f.nodes[i].key, f.nodes[i].plen = uint32(hi>>32), plen
	if f.wide == nil && (uint32(hi) != 0 || lo != 0) {
		f.wide = make([][2]uint64, i, cap(f.nodes))
		for j := range f.wide {
			f.wide[j][0] = uint64(f.nodes[j].key) << 32
		}
	}
	if f.wide != nil {
		f.wide = append(f.wide, [2]uint64{hi, lo})
	}
	return i
}

// leaf returns the index of the fourth-level page that holds slot s (0: none).
func (f *famIndex) leaf(s uint32) int32 {
	pg := f.pages
	return pg[pg[pg[f.top][s>>12&15]][s>>8&15]][s>>4&15]
}

// ownSlot makes the pages on slot s's path the writer's own — the pages at or
// past mark, page 0 never — copying each that is not, and returns the slot's
// leaf page and the number of published pages it copied: garbage.
func (f *famIndex) ownSlot(s uint32, mark int32) (leaf int32, copied int) {
	at, up := f.top, int32(0)
	for k := 0; ; k++ { // k: the page's level, the top page's 0
		if at < mark || at == 0 {
			if at != 0 {
				copied++
			}
			f.pages = append(f.pages, f.pages[at])
			c := int32(len(f.pages) - 1)
			if k == 0 {
				f.top = c
			} else {
				f.pages[up][s>>(16-4*k)&15] = c
			}
			at = c
		}
		if k == 3 {
			return at, copied
		}
		up, at = at, f.pages[at][s>>(12-4*k)&15]
	}
}

// dropSlot takes out the pages on slot s's path that hold nothing, the slot
// emptied, as a build would not make them, and returns their number: garbage.
// The pages must be the writer's own.
func (f *famIndex) dropSlot(s uint32) int {
	var at [4]int32
	at[0] = f.top
	for k := 1; k < 4; k++ {
		at[k] = f.pages[at[k-1]][s>>(16-4*k)&15]
	}
	n := 0
	for k := 3; k >= 0 && f.pages[at[k]] == (page{}); k-- {
		if n++; k == 0 {
			f.top = 0
		} else {
			f.pages[at[k-1]][s>>(16-4*k)&15] = 0
		}
	}
	return n
}

// slots hands fn, in order, each slot of [from, to) that holds a subtree and
// the subtree's root, and reports whether fn let it finish.
func (f *famIndex) slots(from, to uint32, fn func(s uint32, root int32) bool) bool {
	var under func(pg int32, shift, base uint32) bool
	under = func(pg int32, shift, base uint32) bool {
		for i, c := range &f.pages[pg] {
			lo := base | uint32(i)<<shift
			switch {
			case c == 0 || lo+1<<shift <= from || lo >= to:
			case shift == 0:
				if !fn(lo, c) {
					return false
				}
			case !under(c, shift-4, lo):
				return false
			}
		}
		return true
	}
	return under(f.top, 12, 0)
}

// commonBits returns the number of leading bits two left-aligned 128-bit
// addresses share, 128 if they are equal.
func commonBits(ahi, alo, bhi, blo uint64) uint8 {
	if x := ahi ^ bhi; x != 0 {
		return uint8(bits.LeadingZeros64(x))
	}
	return 64 + uint8(bits.LeadingZeros64(alo^blo))
}

// addrBit returns bit i (0 = most significant) of a left-aligned 128-bit
// address. Unlike Prefix.Bit it does no family bounds check: callers on hot
// paths guarantee i < MaxLen themselves.
func addrBit(hi, lo uint64, i uint8) uint8 {
	if i < 64 {
		return uint8(hi >> (63 - i) & 1)
	}
	return uint8(lo >> (127 - i) & 1)
}

// keyMatch reports whether the query address (qhi, qlo) starts with the
// plen-bit node key (nhi, nlo): one xor-shift verifies every compressed bit
// at once. Shift counts >= the width yield 0 in Go, so plen 0 and the 64/128
// boundaries need no special cases.
func keyMatch(nhi, nlo, qhi, qlo uint64, plen uint8) bool {
	if plen <= 64 {
		return (nhi^qhi)>>(64-plen) == 0
	}
	return nhi == qhi && (nlo^qlo)>>(128-plen) == 0
}

// Index answers RFC 6811 queries in O(route prefix length). Build one with
// NewIndex; an Index is immutable and safe for concurrent readers. For a
// table that changes in place (RTR deltas), see Table and LiveIndex.
//
// Published indexes are never written through: lock-free readers hold them
// with no synchronization, so every update path-copies into fresh cells and
// republishes (see Table.Apply). TestDeltaCopiesEachPathOnce and FuzzDiff
// hold this: every snapshot they keep must still read as its model after
// later deltas and compactions.
type Index struct {
	fams    [2]famIndex // famSlot order: IPv4, IPv6
	entries []entry     // shared value slab, addressed by node spans

	// version names the VRP set held, uniquely in the process (see Diff); a
	// build's version is also its slabs' lineage.
	// parent is the version a path-copied delta started from, 0 after a build,
	// and announced and withdrawn are the delta's net effect in diffOrder.
	version, parent      uint64
	announced, withdrawn []rpki.VRP

	// handoff is the list Table.ResetTo kept for the first Diff from empty,
	// which swaps it out; nil after that, and on every other snapshot.
	handoff atomic.Pointer[[]rpki.VRP]
}

// versions hands out Index versions; 0 names no set.
var versions atomic.Uint64

// famSlot maps an address family to its fams index.
func famSlot(f prefix.Family) int {
	if f == prefix.IPv4 {
		return 0
	}
	return 1
}

// slotFamily is famSlot's inverse.
func slotFamily(slot int) prefix.Family {
	if slot == 0 {
		return prefix.IPv4
	}
	return prefix.IPv6
}

// NewIndex builds a validation index over the set's VRPs. The returned
// index is published: treat it as frozen from this point on.
func NewIndex(s *rpki.Set) *Index {
	return newIndexFromVRPs(s.VRPs(), nil)
}

// rootPrefix is the /0 of the slot's family: the prefix of a family's root.
func rootPrefix(slot int) prefix.Prefix { return keyPrefix(slotFamily(slot), 0, 0, 0) }

// finger is how this package walks a list of prefixes down one family's
// tries: from where a prefix parts ways with the previous one, prev, whose
// path — path[:n], the trie's head first, their lengths in lens — it keeps, so
// that in pre-order each node on the union of the paths is read once. The
// head is the short-prefix trie's root (slot -1) or, for a prefix of /16 or
// longer, the leaf page of its slot, at length radixBits-1: just above every
// node in the slot. A delta (Table.edit) owns path[:owned]: the nodes at or
// past mark and the pages at or past pmark, the slabs' ends when it began.
type finger struct {
	prev     prefix.Prefix
	slot     int32
	path     [129]int32
	lens     [129]uint8
	n, owned int
	mark     int32
	pmark    int32
}

// newFinger returns a finger at f's short-prefix root, owning the nodes from
// mark and the pages from pmark on (page 0 never).
func newFinger(slot int, f *famIndex, mark, pmark int32) finger {
	fg := finger{prev: rootPrefix(slot), slot: -1, n: 1, mark: mark, pmark: max(pmark, 1)}
	fg.path[0] = f.root
	return fg
}

// slotOf returns the radix slot of a prefix of plen bits at hi, or -1: a short
// prefix.
func slotOf(hi uint64, plen uint8) int32 {
	if plen < radixBits {
		return -1
	}
	return int32(hi >> (64 - radixBits))
}

// child returns the child of the finger's path[k] on the side of (hi, lo): the
// slot's subtree root if path[k] is a slot's head.
func (f *famIndex) child(fg *finger, k int, hi, lo uint64) int32 {
	if k == 0 && fg.slot >= 0 {
		return f.pages[fg.path[0]][fg.slot&15]
	}
	return f.nodes[fg.path[k]].children[addrBit(hi, lo, fg.lens[k])]
}

// setChild makes c that child. path[k] must be the writer's own.
func (f *famIndex) setChild(fg *finger, k int, hi, lo uint64, c int32) {
	if k == 0 && fg.slot >= 0 {
		f.pages[fg.path[0]][fg.slot&15] = c
		return
	}
	f.nodes[fg.path[k]].children[addrBit(hi, lo, fg.lens[k])] = c
}

// ownHead makes a slot's head the writer's own (ownSlot) and returns the
// published pages it copied; a short-prefix root is owned as a node is.
func (f *famIndex) ownHead(fg *finger) int {
	if fg.slot < 0 {
		return 0
	}
	leaf, copied := f.ownSlot(uint32(fg.slot), fg.pmark)
	fg.path[0] = leaf
	return copied
}

// seek moves the finger to p: it keeps the path's nodes no longer than the
// prefix p shares with prev, in p's trie, and descends from the deepest
// through every child p extends. It reports whether the path ends at p's node.
func (f *famIndex) seek(fg *finger, p prefix.Prefix) bool {
	hi, lo := p.Bits()
	n := fg.n
	if s := slotOf(hi, p.Len()); s != fg.slot {
		fg.slot, fg.owned, n = s, 0, 1
		fg.path[0], fg.lens[0] = f.root, 0
		if s >= 0 {
			fg.path[0], fg.lens[0] = f.leaf(uint32(s)), radixBits-1
		}
	} else {
		c := prefix.CommonPrefixLen(fg.prev, p)
		for n > 1 && fg.lens[n-1] > c {
			n--
		}
		fg.owned = min(fg.owned, n)
	}
	fg.prev = p
	for ; fg.lens[n-1] < p.Len(); n++ {
		idx := f.child(fg, n-1, hi, lo)
		if idx == 0 || f.nodes[idx].plen > p.Len() {
			break
		}
		if khi, klo := f.key(idx); !keyMatch(khi, klo, hi, lo, f.nodes[idx].plen) {
			break
		}
		fg.path[n], fg.lens[n] = idx, f.nodes[idx].plen
	}
	fg.n = n
	return fg.lens[n-1] == p.Len()
}

// graft hangs a node for p under the finger's last node, where seek stopped:
// its child on p's side, if any, moves under p's node or under a new branch
// point whose other child p's node is. The new nodes, a branch point first,
// join the path. The last node must be the writer's own, or a slot's head,
// which graft owns.
func (f *famIndex) graft(fg *finger, p prefix.Prefix) {
	hi, lo := p.Bits()
	if fg.n == 1 {
		f.ownHead(fg) // copies nothing published: a delta's edit owned it first
	}
	up := fg.n - 1
	c, cbit := f.child(fg, up, hi, lo), uint8(0) // p's node's child, if any, and its side
	if c != 0 {
		chi, clo := f.key(c)
		d := min(commonBits(chi, clo, hi, lo), p.Len())
		cbit = addrBit(chi, clo, d)
		if d < p.Len() {
			bhi, blo := keyPrefix(p.Family(), hi, lo, d).Bits()
			b := f.push(d, bhi, blo)
			f.nodes[b].children[cbit] = c
			f.setChild(fg, up, hi, lo, b)
			fg.path[fg.n], fg.lens[fg.n], fg.n = b, d, fg.n+1
			up, c = fg.n-1, 0
		}
	}
	k := f.push(p.Len(), hi, lo)
	f.nodes[k].children[cbit] = c
	f.setChild(fg, up, hi, lo, k)
	fg.path[fg.n], fg.lens[fg.n], fg.n = k, p.Len(), fg.n+1
}

// newIndexFromVRPs builds the index: a first pass over the list sizes the
// slabs, then each family is inserted on its own, in the trie's pre-order.
// The input need not be sorted, and is neither reordered nor retained. A VRP
// listed more than once is indexed once — an RTR Cache Response may repeat an
// announcement, and a table is a set.
//
// There is one builder, for the trie's pre-order (preorder, fillPreorder), in
// which the wire stream (VisitVRPs), Diff's output and a compaction's rebuild
// arrive, each family in order on its own. A list with a family out of it — a
// Set, which is AS-major — is sorted first: the first pass stops at the first
// prefix out of order, and passes over a copy in prefix order (byPrefix)
// instead. So every order of one set builds the same slabs, cell for cell:
// what a descent from the root per VRP, in pre-order, leaves. The first pass
// counts the pages and nodes the build makes, which sizes the page slab
// exactly and the node slab once, with headroom, as an exactly full one
// regrows by a quarter at the first path-copied delta. A prefix's VRPs come
// together, so each is appended to its span in place.
//
// floor, when not nil, is the table a compaction rebuilds: every slab is made
// at least as long as floor's, garbage included, and a 32nd more, so the
// deltas of the cycle the rebuild starts append in place up to the next
// compaction. At floor's length exactly, half of roa_change's cycles regrew a
// slab by a quarter, and peak RSS rose a fifth.
func newIndexFromVRPs(vrps []rpki.VRP, floor *Index) *Index {
	ix, _ := buildIndex(vrps, floor)
	return ix
}

// preorder meets one family's prefixes in the trie's pre-order and makes the
// nodes a build makes of them — p's node, and a branch point above it if p
// parts from an edge — keeping, for the short-prefix trie and for the slot in
// progress, the last prefix and the nodes on its path, their lengths in lens.
// With f nil it only counts them, and the VRPs and pages (the first pass's
// sizing); with f it appends them to f's slabs, through no descent: in
// pre-order a new prefix hangs on the 1 side of the deepest node on the last
// one's path no longer than what the two share, or of a branch point there
// whose 0 side is the rest of that path. The head of a slot's path sits at radixBits-1, as a finger's does.
// Slots come in order too, so the pages on the last slot's path, pages, are
// the new slot's down to the first level where the two part: the pages below
// are new, appended top first, as ownSlot would.
type preorder struct {
	f     *famIndex
	prev  [2]prefix.Prefix
	lens  [2][130]uint8
	path  [2][130]int32
	top   [2]int
	pages [4]int32 // when building: the last slot's pages, the top page first
	last  int32    // and that slot, -1 before the first

	size, nodes, npages int // counted: the VRPs met, the nodes and pages made
}

func newPreorder(slot int, f *famIndex) preorder {
	b := preorder{f: f, last: -1}
	b.prev[0], b.prev[1] = rootPrefix(slot), rootPrefix(slot)
	if f != nil {
		b.path[0][0] = f.root
	}
	return b
}

// add meets p and returns its node (building).
func (b *preorder) add(p prefix.Prefix) int32 {
	b.size++
	m := 0
	if p.Len() >= radixBits {
		m = 1
	}
	d, path, top := &b.lens[m], &b.path[m], b.top[m]
	hi, lo := p.Bits()
	c := prefix.CommonPrefixLen(b.prev[m], p)
	if m == 1 && c < radixBits { // the first of its slot: the path is the head
		top, d[0], c = 0, radixBits-1, radixBits-1
		b.slotPages(int32(hi >> (64 - radixBits)))
	}
	if c < p.Len() {
		for d[top] > c {
			top--
		}
		if d[top] < c {
			b.nodes++
			if b.f != nil {
				bhi, blo := keyPrefix(p.Family(), hi, lo, c).Bits()
				x := b.f.push(c, bhi, blo)
				b.f.nodes[x].children[0] = path[top+1]
				b.link(m, top, p, x)
				path[top+1] = x
			}
			top++
			d[top] = c
		}
		b.nodes++
		if b.f != nil {
			k := b.f.push(p.Len(), hi, lo)
			b.link(m, top, p, k)
			path[top+1] = k
		}
		top++
		d[top] = p.Len()
	}
	b.prev[m], b.top[m] = p, top
	return path[top]
}

// slotPages appends (or counts) the pages on slot s's path that the last
// slot's path does not share.
func (b *preorder) slotPages(s int32) {
	f := b.f
	for k := range b.pages {
		if b.last >= 0 && b.last>>(16-4*k) == s>>(16-4*k) {
			continue
		}
		if b.npages++; f == nil {
			continue
		}
		f.pages = append(f.pages, page{})
		c := int32(len(f.pages) - 1)
		if k == 0 {
			f.top = c
		} else {
			f.pages[b.pages[k-1]][s>>(16-4*k)&15] = c
		}
		b.pages[k] = c
	}
	b.last = s
}

// link hangs node x under path[top] on p's side: as the slot's subtree root,
// under a slot's head.
func (b *preorder) link(m, top int, p prefix.Prefix, x int32) {
	if m == 1 && top == 0 {
		b.f.pages[b.pages[3]][b.last&15] = x
		return
	}
	b.f.nodes[b.path[m][top]].children[p.Bit(b.lens[m][top])] = x
}

// buildIndex is newIndexFromVRPs, and reports what its first pass sees: that
// vrps is strictly in diffOrder, Diff's answer against an empty table.
func buildIndex(vrps []rpki.VRP, floor *Index) (ix *Index, ordered bool) {
	counts, inorder, ordered := census(vrps)
	if !inorder {
		vrps = byPrefix(vrps)
		counts, _, _ = census(vrps)
	}
	ix = &Index{version: versions.Add(1)}
	room := len(vrps) + 1
	if floor != nil {
		room = max(room, len(floor.entries)+len(floor.entries)/32)
	}
	ix.entries = make([]entry, 1, room) // entries[0] is reserved: offset 0 is no span
	for slot := range ix.fams {
		f, n, pages := &ix.fams[slot], counts[slot].nodes, counts[slot].npages
		f.size = counts[slot].size
		hint := n + n/64 + 64
		if f.size == 0 {
			hint = 0 // an absent family costs only its root node
		}
		phint := pages + pages/64 + 64
		if floor != nil {
			n := len(floor.fams[slot].nodes)
			hint = max(hint, n+n/32)
			n = len(floor.fams[slot].pages)
			phint = max(phint, n+n/32)
		}
		f.nodes = make([]node, 1, hint+1)
		f.pages = noPages
		if pages > 0 || floor != nil && len(floor.fams[slot].pages) > 1 {
			f.pages = make([]page, 1, phint+1)
		}
		f.lineage = ix.version
		if f.size > 0 {
			ix.fillPreorder(slot, vrps, ordered)
		}
	}
	return ix, ordered
}

// census is buildIndex's first pass: it meets each family's prefixes in a
// counting preorder, which sizes the family's slabs. It reports whether each
// family is in the trie's pre-order, stopping at the first prefix that is not,
// and whether the list is strictly in diffOrder.
func census(vrps []rpki.VRP) (counts [2]preorder, inorder, ordered bool) {
	counts = [2]preorder{newPreorder(0, nil), newPreorder(1, nil)}
	prev := [2]prefix.Prefix{rootPrefix(0), rootPrefix(1)}
	ordered = true
	for i, v := range vrps {
		slot, p := famSlot(v.Prefix.Family()), v.Prefix
		n := prefix.CommonPrefixLen(prev[slot], p)
		if n < prev[slot].Len() && (n == p.Len() || p.Bit(n) == 0) {
			return counts, false, false
		}
		if ordered && i > 0 {
			// p is prev or after; prev is the last VRP's if its family is p's.
			last := famSlot(vrps[i-1].Prefix.Family())
			ordered = last < slot || last == slot && (n < p.Len() || v.Compare(vrps[i-1]) > 0)
		}
		counts[slot].add(p)
		prev[slot] = p
	}
	return counts, true, ordered
}

// digitBits is the width of byPrefix's digits: 8, whose counts, 18 KiB for
// all 18 digits, stay on the stack. On 2 vCPUs, 16-bit digits sort today's
// 33,615 VRPs in the same 2.5–3.5 ms and a quarter-scale full deployment's
// 182,501 in 20–22 ms against 22–30, but the 2.6 MB of counts they zero cost a
// build of 10 VRPs 0.35–0.59 ms, against 1.3–1.7 µs.
const digitBits = 8

// prefixDigits is the number of digits in a prefix's radix key: its length,
// its 128 address bits and its family.
const prefixDigits = 2 + 128/digitBits

// prefixDigit returns the d-th digit of v's prefix key, least significant
// first: length, the address's low then high half, family. Keys compared from
// the last digit down order VRPs as prefix.Compare.
func prefixDigit(v *rpki.VRP, d int) uint {
	const perWord, mask = 64 / digitBits, 1<<digitBits - 1
	hi, lo := v.Prefix.Bits()
	switch {
	case d == 0:
		return uint(v.Prefix.Len())
	case d <= perWord:
		return uint(lo>>(digitBits*(d-1))) & mask
	case d <= 2*perWord:
		return uint(hi>>(digitBits*(d-1-perWord))) & mask
	}
	return uint(v.Prefix.Family())
}

// byPrefix returns a copy of vrps in prefix order, the trie's pre-order; vrps
// is not written. It is a stable LSD radix sort on the digits of the prefix
// key (McIlroy, Bostic & McIlroy, "Engineering Radix Sort", 1993), as
// bgp.NewTable sorts routes: one pass counts every digit, a digit that every
// VRP shares costs no pass, and the others move the VRPs between two slabs.
// The key holds no AS and no maxLength: one prefix's VRPs keep the list's
// order, which closeSpan puts right. vrps is a list out of pre-order, so it
// holds two VRPs or more.
func byPrefix(vrps []rpki.VRP) []rpki.VRP {
	rs := slices.Clone(vrps)
	buf := make([]rpki.VRP, len(rs))
	counts := new([prefixDigits][1 << digitBits]uint32)
	for i := range rs {
		for d := range prefixDigits {
			counts[d][prefixDigit(&rs[i], d)]++
		}
	}
	for d := range prefixDigits {
		c := &counts[d]
		if int(c[prefixDigit(&rs[0], d)]) == len(rs) {
			continue // every VRP has this digit
		}
		var sum uint32
		for k, n := range c {
			c[k] = sum
			sum += n
		}
		for i := range rs {
			k := prefixDigit(&rs[i], d)
			buf[c[k]] = rs[i]
			c[k]++
		}
		rs, buf = buf, rs
	}
	return rs
}

// fillPreorder inserts the family's VRPs, in the trie's pre-order, appending
// each entry to the slab: a prefix's VRPs are consecutive in that order, so
// its span is the slab's tail until the next prefix closes it. sorted says the
// list is strictly in diffOrder: its spans are in order already.
func (ix *Index) fillPreorder(slot int, vrps []rpki.VRP, sorted bool) {
	f := &ix.fams[slot]
	b := newPreorder(slot, f)
	from := int32(0) // where the open span, the slab's tail, starts
	for _, v := range vrps {
		if famSlot(v.Prefix.Family()) != slot {
			continue
		}
		k := b.add(v.Prefix)
		if nd := &f.nodes[k]; nd.off == 0 {
			ix.entries = ix.entries[:ix.closeSpan(f, from, int32(len(ix.entries)), sorted)]
			from = int32(len(ix.entries))
			nd.off = from
		}
		ix.entries = append(ix.entries, entry{maxLength: v.MaxLength, as: v.AS})
	}
	ix.entries = ix.entries[:ix.closeSpan(f, from, int32(len(ix.entries)), sorted)]
}

// closeSpan finishes the span filled into entries[from:to] (none if from is
// 0): unless sorted, it puts the cells in order and drops repeats, which f
// then no longer counts; it marks the last cell and returns the span's end.
func (ix *Index) closeSpan(f *famIndex, from, to int32, sorted bool) int32 {
	if from == 0 {
		return to
	}
	es := ix.entries[from:to]
	if !sorted && len(es) > 1 {
		slices.SortFunc(es, cmpEntry)
		n := len(es)
		es = slices.Compact(es)
		f.size -= n - len(es)
	}
	es[len(es)-1].last = true
	return from + int32(len(es))
}

// Len returns the number of indexed VRPs.
func (ix *Index) Len() int { return ix.fams[0].size + ix.fams[1].size }

// validateOn classifies (p, origin), from state, against one trie of a
// family's: it descends from idx by p's bits and checks a node's key where it
// reads its span, stopping at one p does not extend, so every entry met
// covers p; the state tightens to Invalid at the first non-empty span and to
// Valid at the first matching entry. Allocation-free: TestValidateAllocs runs
// every statement.
func validateOn(nodes []node, wide [][2]uint64, idx int32, entries []entry, hi, lo uint64, plen uint8, origin rpki.ASN, state State) State {
	for {
		nd := &nodes[idx]
		if nd.plen > plen {
			return state
		}
		if off := nd.off; off != 0 {
			khi, klo := uint64(nd.key)<<32, uint64(0)
			if wide != nil {
				khi, klo = wide[idx][0], wide[idx][1]
			}
			if !keyMatch(khi, klo, hi, lo, nd.plen) {
				return state
			}
			state = Invalid
			for ; ; off++ {
				e := entries[off]
				if e.as == origin && plen <= e.maxLength {
					return Valid
				}
				if e.last {
					break
				}
			}
		}
		if nd.plen == plen {
			return state
		}
		if idx = nd.children[addrBit(hi, lo, nd.plen)]; idx == 0 {
			return state
		}
	}
}

// slotRoot returns the root of p's slot's trie: 0 if the slot is empty or p
// is shorter than /16. The four page loads do not branch.
func (f *famIndex) slotRoot(p prefix.Prefix) int32 {
	if p.Len() < radixBits {
		return 0
	}
	hi, _ := p.Bits()
	s, pg := uint32(hi>>(64-radixBits)), f.pages
	return pg[pg[pg[pg[f.top][s>>12&15]][s>>8&15]][s>>4&15]][s&15]
}

// validate classifies (p, origin) against the family: the short-prefix trie
// (a root with nothing under it on today's table), then the trie of p's slot,
// whose root (slotRoot) the caller looked up.
func (f *famIndex) validate(entries []entry, p prefix.Prefix, origin rpki.ASN, slot int32) State {
	hi, lo := p.Bits()
	state := validateOn(f.nodes, f.wide, f.root, entries, hi, lo, p.Len(), origin, NotFound)
	if state == Valid || slot == 0 {
		return state
	}
	return validateOn(f.nodes, f.wide, slot, entries, hi, lo, p.Len(), origin, state)
}

// validate4 is validate for an IPv4 family, whose keys are the nodes' own 32
// bits: the same two descents (descend4), on 32-bit words. It is the loop a
// router's data plane runs for every IPv4 route.
func validate4(f *famIndex, entries []entry, p prefix.Prefix, origin rpki.ASN, slot int32) State {
	hi, _ := p.Bits()
	q, plen := uint32(hi>>32), p.Len()
	state := NotFound
	if r := &f.nodes[f.root]; r.off != 0 || r.children != [2]int32{} {
		if state = descend4(f.nodes, f.root, entries, q, plen, origin, NotFound); state == Valid {
			return Valid
		}
	}
	if slot == 0 {
		return state
	}
	return descend4(f.nodes, slot, entries, q, plen, origin, state)
}

// descend4 is validateOn for IPv4: q is the route's address, and a node's key
// is its 32 bits.
func descend4(nodes []node, idx int32, entries []entry, q uint32, plen uint8, origin rpki.ASN, state State) State {
	for {
		nd := &nodes[idx]
		if nd.plen > plen {
			return state
		}
		if off := nd.off; off != 0 {
			if (nd.key^q)>>(32-nd.plen) != 0 {
				return state
			}
			state = Invalid
			for ; ; off++ {
				e := entries[off]
				if e.as == origin && plen <= e.maxLength {
					return Valid
				}
				if e.last {
					break
				}
			}
		}
		if nd.plen == plen {
			return state
		}
		if idx = nd.children[q>>(31-nd.plen)&1]; idx == 0 {
			return state
		}
	}
}

// Validate classifies route (p, origin) per RFC 6811. Zero allocations
// (TestValidateAllocs).
func (ix *Index) Validate(p prefix.Prefix, origin rpki.ASN) State {
	switch p.Family() {
	case prefix.IPv4:
		f := &ix.fams[0]
		return validate4(f, ix.entries, p, origin, f.slotRoot(p))
	case prefix.IPv6:
		f := &ix.fams[1]
		return f.validate(ix.entries, p, origin, f.slotRoot(p))
	}
	return NotFound
}

// batchLanes is how many routes a batch looks up in the radix roots before
// it descends for any of them: their page loads do not depend on each other,
// so their cache misses overlap, where one route's branchy descent would end
// the overlap at each mispredicted bit.
const batchLanes = 16

// ValidateBatch classifies every route, writing states into dst (grown if
// needed) and returning it: batchLanes routes at a time, their slots' roots
// first, then their descents. The family lookups are hoisted out of the loop,
// so a batch amortizes what a Validate call pays per route. dst[i]
// corresponds to routes[i].
func (ix *Index) ValidateBatch(routes []Route, dst []State) []State {
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	f4, f6, entries := &ix.fams[0], &ix.fams[1], ix.entries
	var slots [batchLanes]int32
	for at := 0; at < len(routes); at += batchLanes {
		lane := routes[at:min(at+batchLanes, len(routes))]
		for i := range lane {
			switch p := lane[i].Prefix; p.Family() {
			case prefix.IPv4:
				slots[i] = f4.slotRoot(p)
			case prefix.IPv6:
				slots[i] = f6.slotRoot(p)
			}
		}
		for i, q := range lane {
			switch q.Prefix.Family() {
			case prefix.IPv4:
				dst[at+i] = validate4(f4, entries, q.Prefix, q.Origin, slots[i])
			case prefix.IPv6:
				dst[at+i] = f6.validate(entries, q.Prefix, q.Origin, slots[i])
			default:
				dst[at+i] = NotFound
			}
		}
	}
	return dst
}

// AppendVRPs appends the indexed VRP set to dst in per-family canonical
// prefix order and returns the extended slice, grown once to hold it: a
// compaction rebuilds from it; callers can use it to export or diff a
// snapshot's table without retaining the index.
func (ix *Index) AppendVRPs(dst []rpki.VRP) []rpki.VRP {
	dst = slices.Grow(dst, ix.Len())
	ix.VisitVRPs(func(v rpki.VRP) bool {
		dst = append(dst, v)
		return true
	})
	return dst
}

// VisitVRPs streams the indexed VRP set to fn in per-family canonical prefix
// order without materializing a slice — the RTR server's full-table responses
// encode each VRP as it is visited. fn returning false ends the visit: the
// rest of the tries is not walked and fn is not called again.
func (ix *Index) VisitVRPs(fn func(rpki.VRP) bool) {
	for slot := range ix.fams {
		f := &ix.fams[slot]
		fam := slotFamily(slot)
		if !f.walkAll(func(i int32) bool {
			off := f.nodes[i].off
			if off == 0 {
				return true // a branch point: nothing to stream
			}
			p := f.prefix(fam, i)
			for _, e := range span(ix.entries, off) {
				if !fn(rpki.VRP{Prefix: p, MaxLength: e.maxLength, AS: e.as}) {
					return false
				}
			}
			return true
		}) {
			return
		}
	}
}

// keyPrefix returns the plen-bit prefix (hi, lo) of family fam: a node's key
// as a prefix.
func keyPrefix(fam prefix.Family, hi, lo uint64, plen uint8) prefix.Prefix {
	p, err := prefix.Make(fam, hi, lo, plen)
	if err != nil {
		panic(err) // unreachable: a key is a prefix of fam
	}
	return p
}

// walk is the package's pre-order walk of one trie: from node idx it hands fn
// every node of the subtree, in canonical prefix order, and reports whether fn
// let it finish: fn returning false ends the walk. It steps into a first
// child in place and pushes only a second one.
func (f *famIndex) walk(idx int32, fn func(int32) bool) bool {
	var pending [129]int32 // a second child per node of the deepest path
	top := 0
	for {
		if !fn(idx) {
			return false
		}
		c := f.nodes[idx].children
		switch {
		case c[0] != 0:
			if c[1] != 0 {
				pending[top] = c[1]
				top++
			}
			idx = c[0]
		case c[1] != 0:
			idx = c[1]
		case top > 0:
			top--
			idx = pending[top]
		default:
			return true
		}
	}
}

// walkAll walks the whole family in canonical prefix order: the short-prefix
// trie, each slot's trie walked whole just before the first short node at or
// past the slot's address, and the slots after the last. A short prefix sits
// on a slot boundary, so nothing of a slot before it sorts after it.
func (f *famIndex) walkAll(fn func(int32) bool) bool {
	next := uint32(0) // the first slot not walked yet
	upTo := func(to uint32) bool {
		from := next
		next = to
		return f.slots(from, to, func(_ uint32, root int32) bool { return f.walk(root, fn) })
	}
	return f.walk(f.root, func(i int32) bool {
		hi, _ := f.key(i)
		return upTo(uint32(hi>>(64-radixBits))) && fn(i)
	}) && upTo(1<<radixBits)
}
