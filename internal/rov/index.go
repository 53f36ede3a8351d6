package rov

import (
	"cmp"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file is the serving-path validator: a PATRICIA trie (Morrison, JACM
// 1968) kept as one slab of 20-byte nodes a family, with int32 child indices,
// whose per-node payload is the offset of a span in a parallel value slab of
// VRP entries, its last cell marked. A family keeps only its root, the nodes
// with a span and the nodes with two children — a third of a bit trie's — and
// each node its key. Building an Index is O(nodes) slab appends, each insert
// starting on the previous one's path, and Validate walks two contiguous
// arrays. An append may move a slab, so code that grows one holds node
// indices across the append, never a node's address (README, invariant 2).

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

// node is one vertex of a family's trie: its children's slab indices, the
// offset of its span (0 for none), and its key, plen bits: the first 32 in
// key, and all of them in the family's wide slab once a key runs past 32. A
// child's key strictly extends its parent's; the bit after the parent's length
// picks the child. Every node but the root has a span or two children. Node 0
// is reserved — a build's root, a dead placeholder once a delta reroots the
// family — and is never anyone's child, so a 0 child means none.
type node struct {
	children [2]int32
	off      int32
	key      uint32
	plen     uint8
}

// famIndex is one address family's trie: its node slab, the wide slab of its
// keys (nil while every key fits in 32 bits), the root's slab index, the
// number of VRPs under it, and the slabs' lineage.
//
// lineage names the build the slabs grew from — its version, unique in the
// process; 0 shares with nothing. A delta copies it into its snapshot with the
// slabs, and a rebuild starts a new one. (The slab's base pointer cannot
// serve: an append may move it without changing a node index.) Since a delta
// writes only nodes it appended, before it publishes them, two snapshots of
// one lineage hold the same subtree at an equal node index: walkDiff skips it.
type famIndex struct {
	nodes   []node
	wide    [][2]uint64
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

// finger is how this package walks a list of prefixes down one family's trie:
// from where a prefix parts ways with the previous one, prev, whose path —
// path[:n], the root first, their lengths in lens — it keeps, so that in
// pre-order each node on the union of the paths is read once. A delta
// (Table.edit) owns path[:owned], the nodes at or past mark, the node slab's
// end when the delta began.
type finger struct {
	prev     prefix.Prefix
	path     [129]int32
	lens     [129]uint8
	n, owned int
	mark     int32
}

// seek moves the finger to p: it keeps the path's nodes no longer than the
// prefix p shares with prev, and descends from the deepest through every child
// p extends. It reports whether the path ends at p's node.
func (f *famIndex) seek(fg *finger, p prefix.Prefix) bool {
	n, c := fg.n, prefix.CommonPrefixLen(fg.prev, p)
	for n > 1 && fg.lens[n-1] > c {
		n--
	}
	fg.owned, fg.prev = min(fg.owned, n), p
	hi, lo := p.Bits()
	for idx, nodes := fg.path[n-1], f.nodes; fg.lens[n-1] < p.Len(); n++ {
		idx = nodes[idx].children[addrBit(hi, lo, fg.lens[n-1])]
		if idx == 0 || nodes[idx].plen > p.Len() {
			break
		}
		if khi, klo := f.key(idx); !keyMatch(khi, klo, hi, lo, nodes[idx].plen) {
			break
		}
		fg.path[n], fg.lens[n] = idx, nodes[idx].plen
	}
	fg.n = n
	return fg.lens[n-1] == p.Len()
}

// graft hangs a node for p under the finger's last node, where seek stopped:
// its child on p's side, if any, moves under p's node or under a new branch
// point whose other child p's node is. The new nodes, a branch point first,
// join the path. The last node must be the writer's own.
func (f *famIndex) graft(fg *finger, p prefix.Prefix) {
	hi, lo := p.Bits()
	up := fg.path[fg.n-1]
	bit := addrBit(hi, lo, fg.lens[fg.n-1])
	c, cbit := f.nodes[up].children[bit], uint8(0) // p's node's child, if any, and its side
	if c != 0 {
		chi, clo := f.key(c)
		d := min(commonBits(chi, clo, hi, lo), p.Len())
		cbit = addrBit(chi, clo, d)
		if d < p.Len() {
			bhi, blo := keyPrefix(p.Family(), hi, lo, d).Bits()
			b := f.push(d, bhi, blo)
			f.nodes[b].children[cbit] = c
			f.nodes[up].children[bit] = b
			fg.path[fg.n], fg.lens[fg.n], fg.n = b, d, fg.n+1
			up, bit, c = b, addrBit(hi, lo, d), 0
		}
	}
	k := f.push(p.Len(), hi, lo)
	f.nodes[k].children[cbit] = c
	f.nodes[up].children[bit] = k
	fg.path[fg.n], fg.lens[fg.n], fg.n = k, p.Len(), fg.n+1
}

// newIndexFromVRPs builds the two-slab index: a first pass over the list
// sizes the slabs and sees which families are in the trie's pre-order, then
// each family is inserted on its own. The input need not be sorted and is not
// retained. A VRP listed more than once is indexed once — an RTR Cache
// Response may repeat an announcement, and a table is a set.
//
// Inserts go through a finger a family, so the slab is node for node what a
// descent from the root per VRP leaves. In a family in the trie's pre-order —
// the wire stream (VisitVRPs), Diff's output, NewServer's prefix-ordered copy
// of its set; not a Set, which is AS-major — the first pass counts the nodes
// as fillPreorder makes them. The slab is sized once, with headroom, as an
// exactly full one regrows by a quarter at the first path-copied delta; a
// prefix's VRPs come together, so each is appended to its span in place. A
// family out of order is sized at the bound of two nodes a VRP, and places
// its spans by counting (fillCounted).
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

// buildIndex is newIndexFromVRPs, and reports what its first pass sees: that
// vrps is strictly in diffOrder, Diff's answer against an empty table.
func buildIndex(vrps []rpki.VRP, floor *Index) (ix *Index, ordered bool) {
	ix = &Index{version: versions.Add(1)}
	// Per family: the prefix before this one; the nodes a pre-order build makes,
	// or -1; the lengths of the nodes on prev's path, up to depths[tops].
	prev := [2]prefix.Prefix{rootPrefix(0), rootPrefix(1)}
	var nodes, tops [2]int
	var depths [2][130]uint8
	ordered = true
	for i, v := range vrps {
		slot, p := famSlot(v.Prefix.Family()), v.Prefix
		ix.fams[slot].size++
		if nodes[slot] < 0 {
			continue
		}
		c := prefix.CommonPrefixLen(prev[slot], p)
		if c < prev[slot].Len() && (c == p.Len() || p.Bit(c) == 0) {
			nodes[slot], ordered = -1, false
			continue
		}
		if ordered && i > 0 {
			// p is prev or after; prev is the last VRP's if its family is p's.
			last := famSlot(vrps[i-1].Prefix.Family())
			ordered = last < slot || last == slot && (c < p.Len() || v.Compare(vrps[i-1]) > 0)
		}
		if c < p.Len() { // a new prefix: its node, and a branch point above it if p parts from an edge
			d, top := &depths[slot], tops[slot]
			for d[top] > c {
				top--
			}
			if d[top] < c {
				top++
				d[top], nodes[slot] = c, nodes[slot]+1
			}
			top++
			d[top], nodes[slot], tops[slot] = p.Len(), nodes[slot]+1, top
		}
		prev[slot] = p
	}
	room := len(vrps) + 1
	if floor != nil {
		room = max(room, len(floor.entries)+len(floor.entries)/32)
	}
	ix.entries = make([]entry, 1, room) // entries[0] is reserved: offset 0 is no span
	for slot := range ix.fams {
		f := &ix.fams[slot]
		hint := 2 * f.size // an absent family costs only its root node
		if n := nodes[slot]; n > 0 {
			hint = n + n/64 + 64
		}
		if floor != nil {
			n := len(floor.fams[slot].nodes)
			hint = max(hint, n+n/32)
		}
		f.nodes = make([]node, 1, hint+1)
		f.lineage = ix.version
		switch {
		case f.size == 0:
		case nodes[slot] >= 0:
			ix.fillPreorder(slot, vrps, ordered)
		default:
			ix.fillCounted(slot, vrps)
		}
	}
	return ix, ordered
}

// fillPreorder inserts the family's VRPs, in the trie's pre-order, appending
// each entry to the slab: a prefix's VRPs are consecutive in that order, so
// its span is the slab's tail until the next prefix closes it. sorted says the
// list is strictly in diffOrder: its spans are in order already.
// Seek and graft make the same nodes, but cold_sync read 11 % slower on them.
func (ix *Index) fillPreorder(slot int, vrps []rpki.VRP, sorted bool) {
	f, prev := &ix.fams[slot], rootPrefix(slot)
	var path [129]int32 // the nodes on prev's path, the root (node 0) first,
	var lens [129]uint8 // and their lengths
	n := 1
	from := int32(0) // where the open span, the slab's tail, starts
	for _, v := range vrps {
		if famSlot(v.Prefix.Family()) != slot {
			continue
		}
		// A new p hangs on the 1 side of the deepest node on prev's path no
		// longer than c, or of a branch point at c splitting the edge below it.
		p := v.Prefix
		if c := prefix.CommonPrefixLen(prev, p); c < p.Len() {
			for lens[n-1] > c {
				n--
			}
			up := path[n-1]
			hi, lo := p.Bits()
			if lens[n-1] < c {
				bhi, blo := keyPrefix(p.Family(), hi, lo, c).Bits()
				b := f.push(c, bhi, blo)
				f.nodes[b].children[0] = path[n]
				f.nodes[up].children[p.Bit(lens[n-1])] = b
				path[n], lens[n], n, up = b, c, n+1, b
			}
			k := f.push(p.Len(), hi, lo)
			f.nodes[up].children[p.Bit(lens[n-1])] = k
			path[n], lens[n], n = k, p.Len(), n+1
		}
		prev = p
		if nd := &f.nodes[path[n-1]]; nd.off == 0 {
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

// fillCounted inserts the family's VRPs, in any order: one pass descends and
// counts each terminal's entries in its off, a prefix sum reserves each span's
// cells and leaves off at the span's end, a second pass over the list drops
// each entry in from the end, and then, in node order — the spans' order —
// each span is sorted and marked. A repeated VRP leaves a cell unused after
// its span's last.
func (ix *Index) fillCounted(slot int, vrps []rpki.VRP) {
	f, fg := &ix.fams[slot], finger{prev: rootPrefix(slot), n: 1}
	terms := make([]int32, 0, f.size) // each VRP's node, in list order
	for _, v := range vrps {
		if famSlot(v.Prefix.Family()) == slot {
			if !f.seek(&fg, v.Prefix) {
				f.graft(&fg, v.Prefix)
			}
			idx := fg.path[fg.n-1]
			f.nodes[idx].off++
			terms = append(terms, idx)
		}
	}
	end := int32(len(ix.entries))
	for j := range f.nodes {
		if n := f.nodes[j].off; n > 0 {
			end += n
			f.nodes[j].off = end
		}
	}
	ix.entries = ix.entries[:end]
	k := 0
	for _, v := range vrps {
		if famSlot(v.Prefix.Family()) == slot {
			nd := &f.nodes[terms[k]]
			nd.off--
			ix.entries[nd.off] = entry{maxLength: v.MaxLength, as: v.AS}
			k++
		}
	}
	// Each span now starts at its off and ends where the next one starts.
	from := int32(0)
	for j := range f.nodes {
		if off := f.nodes[j].off; off != 0 {
			ix.closeSpan(f, from, off, false)
			from = off
		}
	}
	ix.closeSpan(f, from, end, false)
}

// Len returns the number of indexed VRPs.
func (ix *Index) Len() int { return ix.fams[0].size + ix.fams[1].size }

// validateOn classifies (p, origin) against one family's slabs: it descends
// by p's bits and checks a node's key where it reads its span, stopping at one
// p does not extend, so every entry met covers p; the state tightens from
// NotFound to Invalid at the first non-empty span and to Valid at the first
// matching entry. Allocation-free: TestValidateAllocs runs every statement.
func validateOn(nodes []node, wide [][2]uint64, root int32, entries []entry, p prefix.Prefix, origin rpki.ASN) State {
	state := NotFound
	hi, lo := p.Bits()
	for idx := root; ; {
		nd := &nodes[idx]
		if nd.plen > p.Len() {
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
				if e.as == origin && p.Len() <= e.maxLength {
					return Valid
				}
				if e.last {
					break
				}
			}
		}
		if nd.plen == p.Len() {
			return state
		}
		if idx = nd.children[addrBit(hi, lo, nd.plen)]; idx == 0 {
			return state
		}
	}
}

// Validate classifies route (p, origin) per RFC 6811. Zero allocations
// (TestValidateAllocs).
func (ix *Index) Validate(p prefix.Prefix, origin rpki.ASN) State {
	if !p.IsValid() {
		return NotFound
	}
	f := &ix.fams[famSlot(p.Family())]
	return validateOn(f.nodes, f.wide, f.root, ix.entries, p, origin)
}

// ValidateBatch classifies every route in one pass, writing states into dst
// (grown if needed) and returning it. The family lookups are hoisted out of
// the loop, so a batch amortizes what a Validate call pays per route. dst[i]
// corresponds to routes[i].
func (ix *Index) ValidateBatch(routes []Route, dst []State) []State {
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	f4, f6, entries := &ix.fams[0], &ix.fams[1], ix.entries
	for i, q := range routes {
		switch q.Prefix.Family() {
		case prefix.IPv4:
			dst[i] = validateOn(f4.nodes, f4.wide, f4.root, entries, q.Prefix, q.Origin)
		case prefix.IPv6:
			dst[i] = validateOn(f6.nodes, f6.wide, f6.root, entries, q.Prefix, q.Origin)
		default:
			dst[i] = NotFound
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
// rest of the trie is not walked and fn is not called again.
func (ix *Index) VisitVRPs(fn func(rpki.VRP) bool) {
	for slot := range ix.fams {
		f := &ix.fams[slot]
		if len(f.nodes) == 0 {
			continue
		}
		fam := slotFamily(slot)
		if !f.walk(f.root, func(i int32) bool {
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

// walk is the package's pre-order walk of one family's trie: from node idx it
// hands fn every node of the subtree, in canonical prefix order, and reports
// whether fn let it finish: fn returning false ends the walk. It steps into a
// first child in place and pushes only a second one.
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
