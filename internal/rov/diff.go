package rov

import (
	"slices"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file is the structural snapshot diff: the delta between two published
// Index snapshots, computed by walking both tries in lockstep and skipping
// every subtree the two provably share. Snapshots a Table published between
// two of its rebuilds share their arena lineage (path copying clones only
// the touched paths), so the walk visits O(changed · prefix bits) nodes no
// matter how large the table is. A rebuild — a compaction, ResetTo, a bulk
// Apply — starts a new lineage: a snapshot from before it and one from after
// share nothing provable, exactly as two unrelated builds (two different
// caches) do, and pay one correct-but-linear dual walk instead, of what both
// hold (≈ 4 ms at 33,615 VRPs): a subtree only one of them has — the whole
// table, when the other is a follower's empty one — costs a single walk of
// that side. Either way the result is exact, which is what lets an RTR cache
// synthesize the update between any two retained serials on demand, and a
// multi-cache failover reconcile a carried table against a new cache by
// delta instead of a rebuild.

// Diff returns the delta that transforms old's table into nw's: announced
// holds the VRPs present only in nw, withdrawn the VRPs present only in old.
// Both snapshots stay untouched; the returned slices are freshly allocated
// and never alias either index. A subtree one side lacks is walked, not
// paired, and its entries go through the same per-prefix sort as any other.
//
// The output order is deterministic for a given pair of tables regardless of
// how either index was built: canonical prefix order (IPv4 before IPv6,
// shorter prefixes first), and within one prefix by (AS, MaxLength) — the
// same total order a sorted-set difference over the two tables produces.
//
//repro:immutable
func Diff(old, nw *Index) (announced, withdrawn []rpki.VRP) {
	if old == nw {
		return nil, nil
	}
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
