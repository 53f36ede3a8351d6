package rov

import (
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file is the snapshot diff: the delta between two published Index
// snapshots. A snapshot's version names the VRP set it holds — a compaction's
// rebuild, the same set in new slabs, keeps the version it replaces — and a
// path-copied snapshot carries its parent's version and the net delta from
// it: the pair an RTR cache answers for a router one serial behind, and a
// follower delivers after a sync, costs a copy of that delta, compaction or
// not. Any other pair is walked in lockstep, skipping every subtree the two
// provably share: snapshots between two rebuilds of a Table share their slab
// lineage, so that walk is O(changed · kept nodes on a path). Across a build —
// a compaction, ResetTo, a first full sync — they share nothing provable, as
// two different caches' tables do, and pay a linear dual walk of what both
// hold, but for one build whose parent is known, empty (Table.ResetTo); a
// subtree one side lacks costs the other side's pre-order walk, the one
// VisitVRPs takes. Either way the result is exact, which lets
// an RTR cache synthesize the update between any two retained serials, and a
// failover reconcile a carried table against a new cache by delta instead of
// a rebuild.

// Diff returns the delta that transforms old's table into nw's: announced
// holds the VRPs present only in nw, withdrawn the VRPs present only in old.
// Both snapshots' tables stay untouched; the returned slices are the caller's
// and never alias either index. Snapshots of one version return nil, nil, a
// snapshot against its parent copies of the delta it carries, and any other
// pair is walked into fresh slices, but for one hand-off: the first Diff from
// an empty table of a ResetTo build returns the list it kept (Table.ResetTo).
//
// The output order is deterministic for a given pair of tables regardless of
// how either index was built or answered: canonical prefix order (IPv4 before
// IPv6, shorter prefixes first), and within one prefix by (AS, MaxLength) —
// the same total order a sorted-set difference over the two tables produces.
func Diff(old, nw *Index) (announced, withdrawn []rpki.VRP) {
	switch {
	case old.version == nw.version:
		return nil, nil
	case nw.parent == old.version:
		// Copies, nil when empty, as the walk returns them.
		return append([]rpki.VRP(nil), nw.announced...), append([]rpki.VRP(nil), nw.withdrawn...)
	case old.Len() == 0:
		if vrps := nw.handoff.Swap(nil); vrps != nil {
			return *vrps, nil // a full sync's list, handed out once (Table.ResetTo)
		}
	}
	return walkDiff(old, nw)
}

// diffOrder is Diff's output order: prefix.Compare, then, within one prefix,
// rpki.VRP.Compare, which is by (AS, MaxLength) there.
func diffOrder(a, b rpki.VRP) int {
	if c := a.Prefix.Compare(b.Prefix); c != 0 {
		return c
	}
	return a.Compare(b)
}

// walkDiff is Diff by the lockstep walk, whatever the two versions: it pairs
// the two sides' short-prefix tries, and their slots, and pairs nodes by key
// down both tries in pre-order. A key only one side holds is that side's
// alone, and so is a subtree whose key the other side lacks (-1), which goes
// to that side's walk whole. In one lineage a pair of equal indices is one
// subtree, skipped, and a pair of equal pages the same slots; so is a pair of
// spans at one offset: the same cells. The slots are walked in the short
// tries' pre-order, each just before the first short node past it, as
// walkAll does, so the output is in canonical order.
func walkDiff(old, nw *Index) (announced, withdrawn []rpki.VRP) {
	// The sizes bound one side's result from below: a capacity hint, exact
	// against an empty table; equal sizes allocate nothing until they differ.
	if grew := nw.Len() - old.Len(); grew > 0 {
		announced = make([]rpki.VRP, 0, grew)
	} else if grew < 0 {
		withdrawn = make([]rpki.VRP, 0, -grew)
	}
	var fam prefix.Family // the family being walked
	var fo, fn *famIndex
	var shared bool
	var next uint32 // the first slot not walked yet
	var pairs func(at pair)
	// upTo walks the slots before slot to that either side holds, each pair
	// of subtrees whole: a no-op for a node of a slot walked already.
	upTo := func(to uint32) {
		if from := next; to > from {
			next = to
			pairSlots(fo, fn, shared, fo.top, fn.top, 12, 0, from, to, func(_ uint32, a, b int32) {
				pairs(pair{side(a), side(b)})
			})
		}
	}
	emit := func(i int32, f *famIndex) prefix.Prefix {
		hi, _ := f.key(i)
		upTo(uint32(hi >> (64 - radixBits)))
		return f.prefix(fam, i)
	}
	onlyOld := func(i int32) bool {
		if off := fo.nodes[i].off; off != 0 {
			withdrawn = appendEntryDiff(withdrawn, emit(i, fo), span(old.entries, off), nil)
		}
		return true
	}
	onlyNew := func(i int32) bool {
		if off := fn.nodes[i].off; off != 0 {
			announced = appendEntryDiff(announced, emit(i, fn), span(nw.entries, off), nil)
		}
		return true
	}
	pairs = func(at pair) {
		var pending [130]pair // a later subtree per bit of the deepest pair's keys, and its two
		pending[0] = at
		for top := 1; top > 0; {
			top--
			at := pending[top]
			switch {
			case at.b < 0:
				fo.walk(at.a, onlyOld)
				continue
			case at.a < 0:
				fn.walk(at.b, onlyNew)
				continue
			case shared && at.a == at.b:
				continue // one subtree
			}
			na, nb := &fo.nodes[at.a], &fn.nodes[at.b]
			ahi, alo := fo.key(at.a)
			bhi, blo := fn.key(at.b)
			d := min(commonBits(ahi, alo, bhi, blo), na.plen, nb.plen)
			var sub [2]pair // by the bit at d: the subtrees to visit next, 0 first
			switch {
			case d == na.plen && d == nb.plen:
				if oo, on := na.off, nb.off; (oo != 0 || on != 0) && !(shared && oo == on) {
					p := emit(at.a, fo)
					eo, en := span(old.entries, oo), span(nw.entries, on)
					announced = appendEntryDiff(announced, p, en, eo)
					withdrawn = appendEntryDiff(withdrawn, p, eo, en)
				}
				for bit := range sub {
					sub[bit] = pair{side(na.children[bit]), side(nb.children[bit])}
				}
			case d == na.plen: // old's key is a prefix of nw's
				onlyOld(at.a)
				bit := addrBit(bhi, blo, d)
				sub[bit], sub[1-bit] = pair{side(na.children[bit]), at.b}, pair{side(na.children[1-bit]), -1}
			case d == nb.plen: // nw's key is a prefix of old's
				onlyNew(at.b)
				bit := addrBit(ahi, alo, d)
				sub[bit], sub[1-bit] = pair{at.a, side(nb.children[bit])}, pair{-1, side(nb.children[1-bit])}
			default: // the keys part at bit d
				bit := addrBit(ahi, alo, d)
				sub[bit], sub[1-bit] = pair{at.a, -1}, pair{-1, at.b}
			}
			for bit := 1; bit >= 0; bit-- { // the 0 side on top: it is next
				if sub[bit].a >= 0 || sub[bit].b >= 0 {
					pending[top] = sub[bit]
					top++
				}
			}
		}
	}
	for slot := range old.fams {
		fo, fn, fam = &old.fams[slot], &nw.fams[slot], slotFamily(slot)
		shared, next = fo.sameLineage(fn), 0
		pairs(pair{fo.root, fn.root})
		upTo(1 << radixBits)
	}
	return announced, withdrawn
}

// pair is a node of each side's trie, in old's and nw's node slab; -1 where
// absent.
type pair struct{ a, b int32 }

// side is a child's or slot's index as a side of a pair: -1 for none.
func side(c int32) int32 {
	if c == 0 {
		return -1
	}
	return c
}

// pairSlots hands fn, in order, each slot of [from, to) under the pages pa of
// fa and pb of fb, at shift, whose subtree roots differ: a, b, either 0 for
// none. In one lineage, equal pages hold the same slots and are skipped; page
// 0 is empty on every side.
func pairSlots(fa, fb *famIndex, shared bool, pa, pb int32, shift, base, from, to uint32, fn func(s uint32, a, b int32)) {
	if pa == pb && (shared || pa == 0) {
		return
	}
	for i := range uint32(16) {
		lo := base | i<<shift
		if lo+1<<shift <= from || lo >= to {
			continue
		}
		ca, cb := fa.pages[pa][i], fb.pages[pb][i]
		switch {
		case shift > 0:
			pairSlots(fa, fb, shared, ca, cb, shift-4, lo, from, to, fn)
		case ca != cb || !shared && ca != 0:
			fn(lo, ca, cb)
		}
	}
}

// appendEntryDiff appends, as VRPs at p, every entry of have that is absent
// from other. Both are spans, sorted by (AS, MaxLength) and without repeats
// (cmpEntry), so one merge finds them, and the appended group is in that
// order: Diff's output depends only on the two tables, not on either index's
// insertion history.
func appendEntryDiff(dst []rpki.VRP, p prefix.Prefix, have, other []entry) []rpki.VRP {
	i := 0
	for _, e := range have {
		for i < len(other) && cmpEntry(other[i], e) < 0 {
			i++
		}
		if i == len(other) || cmpEntry(other[i], e) != 0 {
			dst = append(dst, rpki.VRP{Prefix: p, MaxLength: e.maxLength, AS: e.as})
		}
	}
	return dst
}
