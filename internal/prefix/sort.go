package prefix

import "sort"

// SearchContaining returns the indexes in the canonically sorted slice ps of
// all prefixes that contain q, shortest first. ps must be sorted with Sort.
func SearchContaining(ps []Prefix, q Prefix) []int {
	var out []int
	// Every ancestor of q sorts at or before q; walk candidate ancestors by
	// truncating q to each possible length and binary-searching.
	for l := uint8(0); l <= q.Len(); l++ {
		hi, lo := maskBits(q.hi, q.lo, l)
		cand := Prefix{hi: hi, lo: lo, len: l, fam: q.fam}
		i := sort.Search(len(ps), func(i int) bool { return ps[i].Compare(cand) >= 0 })
		if i < len(ps) && ps[i] == cand {
			out = append(out, i)
		}
	}
	return out
}
