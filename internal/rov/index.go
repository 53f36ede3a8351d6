package rov

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file is the serving-path validator: a bit trie kept as one slab of
// 12-byte nodes a family, with int32 child indices, whose per-node payload is
// the offset of a span in a parallel value slab of VRP entries. A span's
// length is not stored: its last cell is marked, so a node costs two children
// and an offset, and the five nodes in six that carry no entries pay 4 bytes
// for it, not 8. Building an Index is O(nodes) slab appends — a sizing pass
// over the VRP list, then a pass a family (two for one out of order), each
// insert starting on the previous one's path, into slabs sized once when the
// list is in order — and
// Validate walks two contiguous arrays (the node slab down the ancestor path,
// the entry slab across each span, to its last cell), so a router serving
// millions of origin-validation queries reads cache-adjacent memory. An
// append may move a slab, so code that grows one holds node indices across
// the append, never a node's address (README, invariant 2).

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

// node is one vertex of a family's bit trie: its children's slab indices and
// the offset of its span, 0 for none. Node 0 is reserved — a build's root, a
// dead placeholder once a delta reroots the family — and is never anyone's
// child, so a 0 child means none; with entries[0] reserved too, a node
// appended zero is born with no children and no entries.
type node struct {
	children [2]int32
	off      int32
}

// famIndex is one address family's trie: its node slab, the root's slab
// index, the number of VRPs under it, and the slab's lineage. Freshly built
// indexes root at node 0; Table snapshots root at whatever node the last
// path-copied update produced.
//
// lineage names the build the slab grew from — its version, unique in the
// process; 0 shares with nothing. A delta copies it into its snapshot with the
// slab, and a rebuild starts a new one. (The slab's base pointer cannot serve:
// an append may move it without changing a node index.) Since a delta writes
// only nodes it appended, before it publishes them, two snapshots of one
// lineage hold the same subtree at an equal node index: walkDiff skips it.
type famIndex struct {
	nodes   []node
	root    int32
	size    int
	lineage uint64
}

// sameLineage reports whether f and o are snapshots of one slab's history.
func (f *famIndex) sameLineage(o *famIndex) bool {
	return f.lineage != 0 && f.lineage == o.lineage
}

// ensure returns the bit-child of node idx, appending an empty one if there
// is none.
func (f *famIndex) ensure(idx int32, bit uint8) int32 {
	c := f.nodes[idx].children[bit]
	if c == 0 {
		c = int32(len(f.nodes))
		f.nodes = append(f.nodes, node{})
		f.nodes[idx].children[bit] = c
	}
	return c
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
// an operation descends not from the root but from where its prefix parts ways
// with the previous one, prev (CommonPrefixLen), whose path the finger keeps —
// path[d] is the node at depth d, for d <= valid. In any order that is what a
// descent from the root finds; in the trie's pre-order (diffOrder within a
// family) the operations read each node on the union of their paths once. A
// build (newIndexFromVRPs) creates every node it passes, so it keeps only prev
// and path. A delta (Table.edit) may stop short of its terminal, which bounds
// the next descent at valid, and clones before it writes: the delta owns
// path[:owned], the nodes at or past mark — the end of the family's node slab
// when the delta began; everything under it is published.
type finger struct {
	prev         prefix.Prefix
	path         [129]int32
	valid, owned uint8
	mark         int32
}

// newIndexFromVRPs builds the two-slab index: a first pass over the list
// sizes the slabs and sees which families are in the trie's pre-order, then
// each family is inserted on its own. The input need not be sorted and is not
// retained. A VRP listed more than once is indexed once — an RTR Cache
// Response may repeat an announcement, and a table is a set.
//
// Inserts go through a finger a family, so the slab is node for node what a
// descent from the root per VRP leaves. A family in the trie's pre-order — the
// wire stream (VisitVRPs), Diff's output, NewServer's prefix-ordered copy of
// its set; not a Set, which is AS-major — then costs one Ensure per node, and
// Σ(len − cpl) is its node count: the slab is sized once, with headroom, as an
// exactly full one regrows by a quarter at the first path-copied delta. There
// a prefix's VRPs come together, so its span is the entry slab's tail while
// they do, and each is appended in place (fillPreorder). The same cpl shows
// disorder (p sorts before prev), where the sum is several times too much:
// that family is hinted at a node per VRP, grows by append, and places its
// spans by counting (fillCounted).
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
	roots := [2]prefix.Prefix{rootPrefix(0), rootPrefix(1)}
	prev := roots    // per family, the prefix before this one in the pass
	var nodes [2]int // Σ(len − cpl) while the family is in pre-order, then -1
	ordered = true
	for i, v := range vrps {
		slot, p := famSlot(v.Prefix.Family()), v.Prefix
		ix.fams[slot].size++
		if nodes[slot] >= 0 {
			c := prefix.CommonPrefixLen(prev[slot], p)
			if nodes[slot] += int(p.Len() - c); c < prev[slot].Len() && (c == p.Len() || p.Bit(c) == 0) {
				nodes[slot], ordered = -1, false
			} else if ordered && i > 0 {
				// p is prev or after; prev is the last VRP's if its family is p's.
				last := famSlot(vrps[i-1].Prefix.Family())
				ordered = last < slot || last == slot && (c < p.Len() || v.Compare(vrps[i-1]) > 0)
			}
			prev[slot] = p
		}
	}
	room := len(vrps) + 1
	if floor != nil {
		room = max(room, len(floor.entries)+len(floor.entries)/32)
	}
	ix.entries = make([]entry, 1, room) // entries[0] is reserved: offset 0 is no span
	for slot := range ix.fams {
		f := &ix.fams[slot]
		hint := f.size // an absent family costs only its root node
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

// insert descends from a build's finger (prev, path) to p's node, creating
// what is absent, and returns it, the finger moved to p.
func (f *famIndex) insert(prev *prefix.Prefix, path *[129]int32, p prefix.Prefix) int32 {
	depth := prefix.CommonPrefixLen(*prev, p)
	idx := path[depth] // path[0] is the root: node 0
	for ; depth < p.Len(); depth++ {
		idx = f.ensure(idx, p.Bit(depth))
		path[depth+1] = idx
	}
	*prev = p
	return idx
}

// fillPreorder inserts the family's VRPs, in the trie's pre-order, appending
// each entry to the slab: a prefix's VRPs are consecutive in that order, so
// its span is the slab's tail until the next prefix closes it. sorted says the
// list is strictly in diffOrder: its spans are in order already.
func (ix *Index) fillPreorder(slot int, vrps []rpki.VRP, sorted bool) {
	f, prev := &ix.fams[slot], rootPrefix(slot)
	var path [129]int32
	from := int32(0) // where the open span, the slab's tail, starts
	for _, v := range vrps {
		if famSlot(v.Prefix.Family()) != slot {
			continue
		}
		idx := f.insert(&prev, &path, v.Prefix) // before f.nodes is read: it may grow
		if nd := &f.nodes[idx]; nd.off == 0 {
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
	f, prev := &ix.fams[slot], rootPrefix(slot)
	var path [129]int32
	terms := make([]int32, 0, f.size) // each VRP's node, in list order
	for _, v := range vrps {
		if famSlot(v.Prefix.Family()) == slot {
			idx := f.insert(&prev, &path, v.Prefix)
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

// validateOn classifies (p, origin) against one family's slabs. Every entry
// on the ancestor path covers p by construction, so the state tightens from
// NotFound to Invalid at the first non-empty span and to Valid at the first
// matching entry. Allocation-free: TestValidateAllocs runs every statement.
func validateOn(nodes []node, root int32, entries []entry, p prefix.Prefix, origin rpki.ASN) State {
	state := NotFound
	idx := root
	for depth := uint8(0); ; depth++ {
		if off := nodes[idx].off; off != 0 {
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
		if depth >= p.Len() {
			return state
		}
		if idx = nodes[idx].children[p.Bit(depth)]; idx == 0 {
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
	return validateOn(f.nodes, f.root, ix.entries, p, origin)
}

// ValidateBatch classifies every route in one pass, writing states into dst
// (grown if needed) and returning it. The per-family slab headers are
// hoisted out of the loop, so a batch amortizes the root and bounds lookups
// that a Validate call pays per route. dst[i] corresponds to routes[i].
func (ix *Index) ValidateBatch(routes []Route, dst []State) []State {
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	n4, r4 := ix.fams[0].nodes, ix.fams[0].root
	n6, r6 := ix.fams[1].nodes, ix.fams[1].root
	entries := ix.entries
	for i, q := range routes {
		switch q.Prefix.Family() {
		case prefix.IPv4:
			dst[i] = validateOn(n4, r4, entries, q.Prefix, q.Origin)
		case prefix.IPv6:
			dst[i] = validateOn(n6, r6, entries, q.Prefix, q.Origin)
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
		if !f.walk(f.root, 0, 0, 0, func(hi, lo uint64, plen uint8, off int32) bool {
			if off == 0 {
				return true // a branch point: nothing to stream
			}
			p := keyPrefix(fam, hi, lo, plen)
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

// keyPrefix returns the plen-bit prefix (hi, lo) of family fam: the prefix of
// the node a walk reached by that path.
func keyPrefix(fam prefix.Family, hi, lo uint64, plen uint8) prefix.Prefix {
	p, err := prefix.Make(fam, hi, lo, plen)
	if err != nil {
		panic(err) // unreachable: the path walked is a prefix of fam
	}
	return p
}

// oneChildKey returns the key of the 1-child of the node keyed by the plen-bit
// prefix (hi, lo): the same bits with bit plen set.
func oneChildKey(hi, lo uint64, plen uint8) (uint64, uint64) {
	if plen < 64 {
		return hi | 1<<(63-plen), lo
	}
	return hi, lo | 1<<(127-plen)
}

// walk is the package's pre-order walk of one family's trie: from node idx,
// keyed by the plen-bit prefix (hi, lo), it hands fn, in canonical prefix
// order, the key and span offset of every node of the subtree that a compact
// trie keeps — one with a span (off != 0) or with two children — and reports
// whether fn let it finish: fn returning false ends the walk. It steps into a
// first child in place and pushes only a second one, so the one-child runs
// that make up most of a bit trie cost no frame and no call. VisitVRPs and
// Diff's one-sided subtrees skip the branch points; CompactFromIndex keeps all.
func (f *famIndex) walk(idx int32, hi, lo uint64, plen uint8, fn func(hi, lo uint64, plen uint8, off int32) bool) bool {
	type frame struct {
		idx    int32
		plen   uint8
		hi, lo uint64
	}
	var pending [129]frame // a second child per level of the deepest path
	top := 0
	for at := (frame{idx: idx, plen: plen, hi: hi, lo: lo}); at.idx >= 0; {
		nd := &f.nodes[at.idx]
		c0, c1 := nd.children[0], nd.children[1]
		if (nd.off != 0 || c0 != 0 && c1 != 0) && !fn(at.hi, at.lo, at.plen, nd.off) {
			return false
		}
		if c1 != 0 {
			one := frame{idx: c1, plen: at.plen + 1}
			one.hi, one.lo = oneChildKey(at.hi, at.lo, at.plen)
			if c0 == 0 {
				at = one
				continue
			}
			pending[top] = one
			top++
		}
		switch {
		case c0 != 0:
			at.idx, at.plen = c0, at.plen+1
		case top > 0:
			top--
			at = pending[top]
		default:
			at.idx = -1 // nothing pending: done
		}
	}
	return true
}
