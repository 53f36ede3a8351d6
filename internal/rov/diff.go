package rov

import (
	"slices"

	"repro/internal/core"
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
// provably share: snapshots between two rebuilds of a Table share their arena
// lineage, so that walk is O(changed · prefix bits). Across a rebuild — a
// compaction, ResetTo, a bulk Apply — they share nothing provable, as two
// different caches' tables do, and pay a linear dual walk of what both hold
// (≈ 4 ms at 33,615 VRPs); a subtree one side lacks costs a walk of the other.
// Either way the result is exact, which lets an RTR cache synthesize the update
// between any two retained serials, and a failover reconcile a carried table
// against a new cache by delta instead of a rebuild.

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

// walkDiff is Diff by the lockstep walk, whatever the two versions.
func walkDiff(old, nw *Index) (announced, withdrawn []rpki.VRP) {
	// The sizes bound one side's result from below: a capacity hint, exact
	// against an empty table; equal sizes allocate nothing until they differ.
	if grew := nw.Len() - old.Len(); grew > 0 {
		announced = make([]rpki.VRP, 0, grew)
	} else if grew < 0 {
		withdrawn = make([]rpki.VRP, 0, -grew)
	}
	for slot := range old.fams {
		fo, fn := &old.fams[slot], &nw.fams[slot]
		shared := fo.eng.SharedArena(&fn.eng)
		core.DiffWalk(&fo.eng, &fn.eng, fo.root, fn.root, rootPrefix(slot), func(ai, bi int32, p prefix.Prefix) {
			var spo, spn span
			if ai >= 0 {
				spo = fo.eng.Nodes[ai].Val
			}
			if bi >= 0 {
				spn = fn.eng.Nodes[bi].Val
			}
			if spo.n == 0 && spn.n == 0 || shared && spo == spn {
				// Nothing here on either side (most nodes of a full walk), or
				// the same span cells in the shared entry slab: this node was
				// cloned for a descendant's update, its payload is untouched.
				return
			}
			eo := old.entries[spo.off : spo.off+spo.n]
			en := nw.entries[spn.off : spn.off+spn.n]
			announced = appendEntryDiff(announced, p, en, eo)
			withdrawn = appendEntryDiff(withdrawn, p, eo, en)
		})
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
