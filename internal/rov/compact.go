package rov

import (
	"slices"
	"sync"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file is the compact serving index: the same RFC 6811 answers as
// Index, at a fraction of the memory traffic. Two ideas compose:
//
//  1. Path compression, as in the Index (index.go), each cnode with its full
//     key, so one xor-shift compare verifies an entire compressed edge.
//
//  2. A per-family stride table + aggregated spans: the top of a real VRP
//     table is maximally branchy (at 50k random prefixes essentially every
//     node above /14 has two children), so even a compressed walk pays one
//     dependent cache miss per level there. The stride table replaces those
//     levels with a single indexed load: slot s holds the subtree entry
//     point for addresses whose top `stride` bits equal s. And each node's
//     span holds not its own entries but the *aggregate* — every entry on
//     its root path, ancestors first, its own entries (recognizable as the
//     tail with plen == node.PLen) last — so the walk never collects along
//     the way: wherever it stops, one contiguous scan of the stop node's
//     span is the full RFC 6811 candidate set. Entries carry their
//     originating prefix length, and the scan skips those longer than the
//     query — exactly the non-covering ancestors-of-the-slot case that
//     arises for queries shorter than the stride.
//
// A CompactIndex is derived from an Index, any snapshot of which has exactly
// the nodes it needs: famIndex.walk hands them over in pre-order, the
// derivation copies them node for node, and a second pass, over the copies,
// aggregates their spans and fills the stride table (CompactFromIndex). The
// result is immutable, its slab in pre-order. LiveIndex keeps the Index for
// O(delta) updates and derives a CompactIndex from it again once enough
// prefixes have been touched.

// centry is one VRP payload in the aggregated entry slab. plen is the
// originating prefix's length: aggregated spans mix entries from the whole
// root path, and a query shorter than the slot stride must skip entries
// whose prefix is longer than (i.e. does not cover) the query.
type centry struct {
	plen      uint8
	maxLength uint8
	as        rpki.ASN
}

// cspan locates a node's aggregated entries: CompactIndex.entries[off :
// off+n]. The zero cspan is empty.
type cspan struct {
	off int32
	n   int32
}

// cnode is one vertex of a compact trie: the node's full key (left-aligned
// 128-bit address plus bit length, a prefix.Prefix worth of bits), two child
// slab indices, and its aggregated span. Children are strictly deeper than
// their parent; the bits between the two lengths are the compressed edge,
// recovered from the child's key.
type cnode struct {
	hi, lo   uint64
	children [2]int32
	span     cspan
	plen     uint8
}

// key returns the node's key as a Prefix.
func (n *cnode) key(fam prefix.Family) prefix.Prefix { return keyPrefix(fam, n.hi, n.lo, n.plen) }

// cslot is one stride-table slot: the aggregated span of the deepest trie
// prefix of length <= stride covering the slot (serves queries shorter than
// the stride, and slots with no deeper subtree), and the slab index of the
// slot's subtree entry point — the shallowest node of length >= stride whose
// top stride bits equal the slot — or 0 when none exists.
type cslot struct {
	span cspan
	root int32
}

// famCompact is one address family's compact structure: its node slab, in
// pre-order, and its stride table. shift is 64 - stride, precomputed for the
// hot path. A family with no VRPs stays zero (slots == nil) and answers
// NotFound.
type famCompact struct {
	nodes  []cnode
	slots  []cslot
	shift  uint8
	stride uint8
}

// strideCutoff selects the stride: families at paper scale (>= 4096 VRPs)
// take a 16-bit table (65536 slots, ~0.8MB — one load replaces the 14+
// branchy top levels), small tables an 8-bit one (256 slots).
const strideCutoff = 4096

// CompactIndex answers RFC 6811 queries in O(branch points below the stride
// table). Build one with NewCompactIndex or CompactFromIndex; a CompactIndex
// is immutable and safe for concurrent readers. It has no update path at
// all — LiveIndex pairs it with the Index, which answers the routes
// a delta has touched until the next rebuild.
type CompactIndex struct {
	fams    [2]famCompact // famSlot order: IPv4, IPv6
	entries []centry      // shared aggregated value slab
	size    int
}

// NewCompactIndex builds a compact validation index over the set's VRPs.
// The returned index is published: treat it as frozen from this point on.
func NewCompactIndex(s *rpki.Set) *CompactIndex {
	return CompactFromIndex(NewIndex(s))
}

// CompactFromIndex derives the compact equivalent of ix from its trie. ix may
// be any snapshot, a path-copied one included: a delta leaves its trie in the
// shape a build makes.
func CompactFromIndex(ix *Index) *CompactIndex {
	cx := &CompactIndex{size: ix.Len()}
	for slot := range cx.fams {
		buildFamCompact(&cx.fams[slot], &ix.fams[slot], ix.entries, &cx.entries)
	}
	return cx
}

// buildFamCompact derives one family's compact trie, aggregated spans and
// stride table from the family's trie, appending entries to the shared slab.
// Two pre-order passes: over the trie by famIndex.walk, copying each node;
// over the copies, materializing each one's span as parent aggregate + own
// entries and entering it in the stride table.
func buildFamCompact(f *famCompact, src *famIndex, srcEntries []entry, entries *[]centry) {
	if src.size == 0 {
		return
	}

	// Pass 1: a node-for-node copy in walk's pre-order, each node's own span
	// measured once; path holds the last node's root path and aggregate
	// lengths, whose sum, total, pass 2 reserves so that it appends in place.
	type kept struct{ idx, agg int32 }
	var path [129]kept // path[0] is the root
	top, total := 0, 0
	f.nodes = make([]cnode, 0, 2*src.size+1)
	src.walk(src.root, func(i int32) bool {
		nd := &src.nodes[i]
		hi, lo := src.key(i)
		sp := cspan{off: nd.off, n: int32(len(span(srcEntries, nd.off)))}
		k := int32(len(f.nodes))
		f.nodes = append(f.nodes, cnode{hi: hi, lo: lo, plen: nd.plen, span: sp})
		agg := sp.n
		if k > 0 {
			up := &f.nodes[path[top].idx]
			for !keyMatch(up.hi, up.lo, hi, lo, up.plen) {
				top--
				up = &f.nodes[path[top].idx]
			}
			up.children[addrBit(hi, lo, up.plen)] = k
			agg += path[top].agg
			top++
		}
		path[top] = kept{idx: k, agg: agg}
		total += int(agg)
		return true
	})
	*entries = slices.Grow(*entries, total)

	// Pass 2: pre-order DFS over the kept nodes. Each node's final span is
	// its parent's aggregate followed by its own entries, so ancestors come
	// first and the node's own entries are the tail with plen == node.plen.
	// Parent aggregates are already materialized in the shared slab when the
	// children are visited (self-append reads the pre-relocation backing).
	// The stride table fills as the spans do: a node above the stride paints
	// its slot range with its aggregate (descendants, met later, overwrite
	// their subranges, leaving each slot with its deepest covering
	// aggregate); the first node at or below the stride in a slot — the
	// shallowest, since by the patricia LCA argument it is the ancestor of
	// every other one there — becomes the slot's subtree entry point.
	f.stride = 8
	if src.size >= strideCutoff {
		f.stride = 16
	}
	f.shift = 64 - f.stride
	f.slots = make([]cslot, 1<<f.stride)
	type aggFrame struct {
		idx    int32
		parent cspan
	}
	stack := make([]aggFrame, 1, 130)
	stack[0] = aggFrame{idx: 0}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &f.nodes[fr.idx]
		agg := cspan{off: int32(len(*entries)), n: fr.parent.n + nd.span.n}
		*entries = append(*entries, (*entries)[fr.parent.off:fr.parent.off+fr.parent.n]...)
		for _, e := range srcEntries[nd.span.off : nd.span.off+nd.span.n] {
			*entries = append(*entries, centry{plen: nd.plen, maxLength: e.maxLength, as: e.as})
		}
		nd.span = agg
		s := nd.hi >> f.shift
		switch {
		case nd.plen < f.stride:
			// Only an ancestor has painted this node's slots, all alike, and on
			// one root path an aggregate as long as the node's is the same
			// entries: most levels above the stride say "nothing here" again.
			if f.slots[s].span.n != agg.n {
				for end := s + 1<<(f.stride-nd.plen); s < end; s++ {
					f.slots[s].span = agg
				}
			}
		case nd.plen == f.stride:
			f.slots[s] = cslot{span: agg, root: fr.idx}
		case f.slots[s].root == 0:
			f.slots[s].root = fr.idx
		}
		for bit := 1; bit >= 0; bit-- {
			if c := nd.children[bit]; c != 0 {
				stack = append(stack, aggFrame{idx: c, parent: agg})
			}
		}
	}
}

// Len returns the number of indexed VRPs.
func (cx *CompactIndex) Len() int { return cx.size }

// validateCompact classifies (p, origin) against one family's compact
// structure: one stride-table load, a compressed-edge descent of the slot's
// subtree, and one contiguous scan of the stop node's aggregated span.
// Allocation-free: TestValidateAllocs runs every statement.
func (f *famCompact) validateCompact(entries []centry, p prefix.Prefix, origin rpki.ASN) State {
	if f.slots == nil {
		return NotFound
	}
	qhi, qlo := p.Bits()
	qlen := p.Len()
	sl := &f.slots[qhi>>f.shift]
	sp := sl.span
	if idx := sl.root; idx != 0 {
		nodes := f.nodes
		n := &nodes[idx]
		for n.plen <= qlen && keyMatch(n.hi, n.lo, qhi, qlo, n.plen) {
			sp = n.span
			c := n.children[addrBit(qhi, qlo, n.plen)]
			if c == 0 {
				break
			}
			n = &nodes[c]
		}
	}
	es := entries[sp.off : sp.off+sp.n]
	if qlen >= f.stride {
		// Every aggregated entry covers the query: slot spans hold only
		// entries with plen <= stride, and descent spans only entries with
		// plen <= node.plen <= qlen. The scan needs no per-entry filter.
		for _, e := range es {
			if e.as == origin && qlen <= e.maxLength {
				return Valid
			}
		}
		if len(es) > 0 {
			return Invalid
		}
		return NotFound
	}
	state := NotFound
	for _, e := range es {
		if e.plen > qlen {
			continue // longer than the query: does not cover it
		}
		if e.as == origin && qlen <= e.maxLength {
			return Valid
		}
		state = Invalid
	}
	return state
}

// keyMatch reports whether the query address (qhi, qlo) starts with the
// plen-bit node key (nhi, nlo) — the skip-edge predicate: one xor-shift
// verifies every compressed bit at once. Shift counts >= the width yield 0
// in Go, so plen 0 and the 64/128 boundaries need no special cases.
func keyMatch(nhi, nlo, qhi, qlo uint64, plen uint8) bool {
	if plen <= 64 {
		return (nhi^qhi)>>(64-plen) == 0
	}
	return nhi == qhi && (nlo^qlo)>>(128-plen) == 0
}

// Validate classifies route (p, origin) per RFC 6811. Zero allocations
// (TestValidateAllocs).
func (cx *CompactIndex) Validate(p prefix.Prefix, origin rpki.ASN) State {
	if !p.IsValid() {
		return NotFound
	}
	return cx.fams[famSlot(p.Family())].validateCompact(cx.entries, p, origin)
}

// ValidateBatch classifies every route in one pass, writing states into dst
// (grown if needed) and returning it. dst[i] corresponds to routes[i].
func (cx *CompactIndex) ValidateBatch(routes []Route, dst []State) []State {
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	f4, f6 := &cx.fams[0], &cx.fams[1]
	entries := cx.entries
	for i, q := range routes {
		switch q.Prefix.Family() {
		case prefix.IPv4:
			dst[i] = f4.validateCompact(entries, q.Prefix, q.Origin)
		case prefix.IPv6:
			dst[i] = f6.validateCompact(entries, q.Prefix, q.Origin)
		default:
			dst[i] = NotFound
		}
	}
	return dst
}

// sortBits is the radix width of ValidateBatchSorted's bucket pass: routes
// are grouped by family and top address bits so the batch walks the stride
// table and node slab region by region instead of hopping randomly. 11 bits
// keeps the counter array at 16KB — resident in L1 while counting.
const sortBits = 11

// sortedBatchMin is the batch size below which the bucket pass costs more
// than the locality it buys; smaller batches take the plain loop.
const sortedBatchMin = 256

// ValidateBatchSorted is ValidateBatch with a sort-by-prefix pass: a two-pass
// counting sort on (family, top address bits) produces a permutation, and
// validation runs in permuted order while results land at their original
// positions. Batches over a table larger than the cache hierarchy touch each
// slab region once instead of per route. The output is identical to
// ValidateBatch; the permutation is the one extra allocation
// (TestValidateAllocs pins it at exactly one).
func (cx *CompactIndex) ValidateBatchSorted(routes []Route, dst []State) []State {
	if len(routes) < sortedBatchMin {
		return cx.ValidateBatch(routes, dst)
	}
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	key := func(q Route) int32 {
		hi, _ := q.Prefix.Bits()
		k := int32(hi >> (64 - sortBits))
		if famSlot(q.Prefix.Family()) == 1 {
			k |= 1 << sortBits
		}
		return k
	}
	var starts [2 << sortBits]int32
	for _, q := range routes {
		starts[key(q)]++
	}
	sum := int32(0)
	for i := range starts {
		c := starts[i]
		starts[i] = sum
		sum += c
	}
	perm := make([]int32, len(routes))
	for i, q := range routes {
		k := key(q)
		perm[starts[k]] = int32(i)
		starts[k]++
	}
	f4, f6 := &cx.fams[0], &cx.fams[1]
	entries := cx.entries
	for _, ri := range perm {
		q := routes[ri]
		switch q.Prefix.Family() {
		case prefix.IPv4:
			dst[ri] = f4.validateCompact(entries, q.Prefix, q.Origin)
		case prefix.IPv6:
			dst[ri] = f6.validateCompact(entries, q.Prefix, q.Origin)
		default:
			dst[ri] = NotFound
		}
	}
	return dst
}

// batchBlock is the parallel batch work-unit size: big enough that channel
// handoff cost vanishes, small enough to level skew between workers.
const batchBlock = 512

// ValidateBatchParallel is ValidateBatch fanned out over a fixed pool of
// min(workers, blocks) goroutines draining route blocks from a channel — the
// Compress worker-pool pattern. Workers write disjoint dst ranges, so the
// result is identical to the serial batch. Values < 2 (or batches of one
// block) run serially.
func (cx *CompactIndex) ValidateBatchParallel(routes []Route, dst []State, workers int) []State {
	if cap(dst) < len(routes) {
		dst = make([]State, len(routes))
	} else {
		dst = dst[:len(routes)]
	}
	blocks := (len(routes) + batchBlock - 1) / batchBlock
	if workers > blocks {
		workers = blocks
	}
	if workers < 2 {
		return cx.ValidateBatch(routes, dst)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lo := range jobs {
				hi := min(lo+batchBlock, len(routes))
				cx.ValidateBatch(routes[lo:hi], dst[lo:hi])
			}
		}()
	}
	for lo := 0; lo < len(routes); lo += batchBlock {
		jobs <- lo
	}
	close(jobs)
	wg.Wait()
	return dst
}

// AppendVRPs appends the indexed VRP set to dst in per-family canonical
// prefix order and returns the extended slice — the same stream, in the same
// order, as Index.AppendVRPs over the same table. Each family's slab is in
// pre-order, so it is read in index order. Own entries are the aggregate tail
// whose plen equals the node's key length (inherited entries are strictly
// shorter).
func (cx *CompactIndex) AppendVRPs(dst []rpki.VRP) []rpki.VRP {
	for slot := range cx.fams {
		fam := slotFamily(slot)
		for i := range cx.fams[slot].nodes {
			nd := &cx.fams[slot].nodes[i]
			es := cx.entries[nd.span.off : nd.span.off+nd.span.n]
			start := len(es)
			for start > 0 && es[start-1].plen == nd.plen {
				start--
			}
			if start == len(es) {
				continue
			}
			p := nd.key(fam)
			for _, e := range es[start:] {
				dst = append(dst, rpki.VRP{Prefix: p, MaxLength: e.maxLength, AS: e.as})
			}
		}
	}
	return dst
}
