package rov

import (
	"slices"

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
// lineage, so that walk is O(changed · prefix bits). Across a build — a
// compaction, ResetTo, a first full sync — they share nothing provable, as two
// different caches' tables do, and pay a linear dual walk of what both hold
// (≈ 4 ms at 33,615 VRPs); a subtree one side lacks costs the other side's
// pre-order walk, the one VisitVRPs takes. Either way the result is exact,
// which lets an RTR cache synthesize the update between any two retained
// serials, and a failover reconcile a carried table against a new cache by
// delta instead of a rebuild.

// Diff returns the delta that transforms old's table into nw's: announced
// holds the VRPs present only in nw, withdrawn the VRPs present only in old.
// Both snapshots stay untouched; the returned slices are freshly allocated
// and never alias either index. Snapshots of one version return nil, nil, a
// snapshot against its parent copies of the delta it carries, and any other
// pair is walked.
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

// walkDiff is Diff by the lockstep walk, whatever the two versions. It
// carries a node pair and their key down both tries at once, in pre-order;
// -1 marks the side a subtree is absent from, and that subtree, the other
// side's alone, goes to that side's walk whole. In one lineage a child pair of
// equal indices is one subtree, and it is skipped without descending; so is a
// node pair whose spans are the same cells of the shared entry slab — a node
// cloned for a descendant's update, its own entries untouched.
func walkDiff(old, nw *Index) (announced, withdrawn []rpki.VRP) {
	// The sizes bound one side's result from below: a capacity hint, exact
	// against an empty table; equal sizes allocate nothing until they differ.
	if grew := nw.Len() - old.Len(); grew > 0 {
		announced = make([]rpki.VRP, 0, grew)
	} else if grew < 0 {
		withdrawn = make([]rpki.VRP, 0, -grew)
	}
	var fam prefix.Family // the family being walked
	onlyOld := func(hi, lo uint64, plen uint8, sp span) bool {
		if sp.n > 0 {
			withdrawn = appendEntryDiff(withdrawn, keyPrefix(fam, hi, lo, plen), old.entries[sp.off:sp.off+sp.n], nil)
		}
		return true
	}
	onlyNew := func(hi, lo uint64, plen uint8, sp span) bool {
		if sp.n > 0 {
			announced = appendEntryDiff(announced, keyPrefix(fam, hi, lo, plen), nw.entries[sp.off:sp.off+sp.n], nil)
		}
		return true
	}
	type pair struct {
		a, b   int32 // in old's and nw's node slab; -1 where absent
		plen   uint8
		hi, lo uint64
	}
	for slot := range old.fams {
		fo, fn := &old.fams[slot], &nw.fams[slot]
		fam = slotFamily(slot)
		shared := fo.sameLineage(fn)
		if shared && fo.root == fn.root {
			continue
		}
		var pending [129]pair // the 1-children waiting above the deepest node, and its two
		pending[0] = pair{a: fo.root, b: fn.root}
		for top := 1; top > 0; {
			top--
			at := pending[top]
			switch {
			case at.b < 0:
				fo.walk(at.a, at.hi, at.lo, at.plen, onlyOld)
				continue
			case at.a < 0:
				fn.walk(at.b, at.hi, at.lo, at.plen, onlyNew)
				continue
			}
			na, nb := &fo.nodes[at.a], &fn.nodes[at.b]
			if spo, spn := na.val, nb.val; (spo.n > 0 || spn.n > 0) && !(shared && spo == spn) {
				p := keyPrefix(fam, at.hi, at.lo, at.plen)
				eo, en := old.entries[spo.off:spo.off+spo.n], nw.entries[spn.off:spn.off+spn.n]
				announced = appendEntryDiff(announced, p, en, eo)
				withdrawn = appendEntryDiff(withdrawn, p, eo, en)
			}
			for bit := 1; bit >= 0; bit-- { // the 0-child on top: it is next
				ca, cb := na.children[bit], nb.children[bit]
				if ca == cb && (ca == 0 || shared) {
					continue // absent on both sides, or one subtree
				}
				next := pair{a: ca, b: cb, plen: at.plen + 1, hi: at.hi, lo: at.lo}
				if ca == 0 {
					next.a = -1
				}
				if cb == 0 {
					next.b = -1
				}
				if bit == 1 {
					next.hi, next.lo = oneChildKey(at.hi, at.lo, at.plen)
				}
				pending[top] = next
				top++
			}
		}
	}
	return announced, withdrawn
}

// appendEntryDiff appends, as VRPs at p, every entry of have that is absent
// from other, keeping the appended group sorted by (AS, MaxLength) so Diff's
// output depends only on the two tables, not on either index's insertion
// history. Spans are tiny (entries of one exact prefix), so the membership
// scan is linear and the sort is a handful of swaps.
func appendEntryDiff(dst []rpki.VRP, p prefix.Prefix, have, other []entry) []rpki.VRP {
	start := len(dst)
	for _, e := range have {
		found := false
		for _, o := range other {
			if o == e {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, rpki.VRP{Prefix: p, MaxLength: e.maxLength, AS: e.as})
		}
	}
	if seg := dst[start:]; len(seg) > 1 {
		slices.SortFunc(seg, rpki.VRP.Compare) // one prefix: by (AS, MaxLength)
	}
	return dst
}
