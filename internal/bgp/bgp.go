// Package bgp models the BGP routing data the paper measures against: the
// set of (IP prefix, origin AS) pairs observed at RouteViews collectors
// (§6), plus AS-path announcements and the text and MRT formats they arrive
// in.
//
// The paper's quantities — which ROAs are minimal, how many PDUs a minimal
// RPKI needs, how much maxLength can compress — are all functions of this
// table, so the package exposes exactly the queries those computations need:
// membership, per-origin subtree scans and de-aggregation statistics.
package bgp

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// Route is one (prefix, origin AS) pair from a BGP table. It is comparable
// and usable as a map key.
type Route struct {
	Prefix prefix.Prefix
	Origin rpki.ASN
}

// Announcement is a BGP update with a full AS path; the origin is the last
// element of the path (the AS closest to the destination).
type Announcement struct {
	Prefix prefix.Prefix
	Path   []rpki.ASN
}

// Origin returns the final AS of the path, or 0 for an empty path.
func (a Announcement) Origin() rpki.ASN {
	if len(a.Path) == 0 {
		return 0
	}
	return a.Path[len(a.Path)-1]
}

// Route projects the announcement to its (prefix, origin) pair.
func (a Announcement) Route() Route { return Route{Prefix: a.Prefix, Origin: a.Origin()} }

// Table is a normalized BGP table: the deduplicated set of (prefix, origin)
// pairs, indexed two ways — by prefix (for coverage and LPM queries) and by
// (origin, prefix) (for per-AS subtree scans). Build one with NewTable; a
// Table is immutable afterwards and safe for concurrent readers.
type Table struct {
	byPrefix []Route // sorted by (prefix, origin)
	byOrigin []Route // sorted by (origin, prefix)
}

// NewTable builds a Table from routes. The input slice is not retained.
//
// Both orders are sorted by key, not by comparison (McIlroy, Bostic &
// McIlroy, "Engineering Radix Sort", 1993). byPrefix is a stable LSD radix
// sort on the 16-bit digits of (family, address, length, origin): one pass
// counts every digit, a digit all routes share costs no pass, and the others
// move the routes between the Table's two slabs. Once the origin digits are
// sorted, each origin is replaced by its rank among the distinct origins, so
// byOrigin is one stable counting sort of the deduplicated byPrefix on rank,
// which keeps each origin's routes in prefix order and puts the origins back.
// The Table holds two route slabs: byPrefix's, the input's length, and
// byOrigin's, the deduplicated length (a fresh one when duplicates were
// dropped). The build's scratch is the digit counts (3 MiB) and two uint32s
// per distinct origin.
func NewTable(routes []Route) *Table {
	if len(routes) == 0 {
		return &Table{}
	}
	bp, bo := append([]Route(nil), routes...), make([]Route, len(routes))
	counts := new([keyDigits][1 << 16]uint32)
	for i := range bp {
		for d := range keyDigits {
			counts[d][digit(&bp[i], d)]++
		}
	}
	bp, bo = radixPasses(bp, bo, counts, 0, 2)
	origins := rankOrigins(bp)
	bp, bo = radixPasses(bp, bo, counts, 2, keyDigits)
	if bp = slices.Compact(bp); len(bp) < len(routes) {
		bo = make([]Route, len(bp)) // keep no spare slab the length of the input
	}
	sortByRank(bo, bp, origins)
	return &Table{byPrefix: bp, byOrigin: bo}
}

// keyDigits is the number of 16-bit digits in a route's radix key.
const keyDigits = 12

// digit returns the d-th 16-bit digit of r's radix key, least significant
// first: origin, length, the address's low then high half, family. Keys
// compared from the last digit down order routes as prefix.Compare, then
// origin.
func digit(r *Route, d int) uint16 {
	hi, lo := r.Prefix.Bits()
	switch {
	case d < 2:
		return uint16(r.Origin >> (16 * d))
	case d == 2:
		return uint16(r.Prefix.Len())
	case d < 7:
		return uint16(lo >> (16 * (d - 3)))
	case d < 11:
		return uint16(hi >> (16 * (d - 7)))
	}
	return uint16(r.Prefix.Family())
}

// radixPasses stably sorts rs by digits [from, to), given every digit's
// counts over rs, using buf, as long as rs, for the other side of each pass.
// It returns the sorted slab and the spare one.
func radixPasses(rs, buf []Route, counts *[keyDigits][1 << 16]uint32, from, to int) (sorted, spare []Route) {
	for d := from; d < to; d++ {
		c := &counts[d]
		if int(c[digit(&rs[0], d)]) == len(rs) {
			continue // every route has this digit
		}
		toOffsets(c[:])
		for i := range rs {
			v := digit(&rs[i], d)
			buf[c[v]] = rs[i]
			c[v]++
		}
		rs, buf = buf, rs
	}
	return rs, buf
}

// rankOrigins replaces the origin of each route of rs, which is in origin
// order, by its rank among the distinct origins, and returns the origins by
// rank.
func rankOrigins(rs []Route) []rpki.ASN {
	n := 1
	for i := 1; i < len(rs); i++ {
		if rs[i].Origin != rs[i-1].Origin {
			n++
		}
	}
	origins := make([]rpki.ASN, 0, n)
	for i := range rs {
		if o := rs[i].Origin; len(origins) == 0 || o != origins[len(origins)-1] {
			origins = append(origins, o)
		}
		rs[i].Origin = rpki.ASN(len(origins) - 1)
	}
	return origins
}

// sortByRank fills dst, as long as src, with src's routes stably sorted by
// origin rank, and puts each route's origin back in both.
func sortByRank(dst, src []Route, origins []rpki.ASN) {
	next := make([]uint32, len(origins))
	for i := range src {
		next[src[i].Origin]++
	}
	toOffsets(next)
	for i := range src {
		r := &src[i]
		k := r.Origin
		r.Origin = origins[k]
		dst[next[k]] = *r
		next[k]++
	}
}

// toOffsets turns counts by key into the first slot of each key in the sorted
// output.
func toOffsets(counts []uint32) {
	var sum uint32
	for k, c := range counts {
		counts[k] = sum
		sum += c
	}
}

// TableFromAnnouncements projects announcements to routes and builds a Table.
func TableFromAnnouncements(anns []Announcement) *Table {
	routes := make([]Route, 0, len(anns))
	for _, a := range anns {
		if len(a.Path) == 0 {
			continue
		}
		routes = append(routes, a.Route())
	}
	return NewTable(routes)
}

// Len returns the number of distinct (prefix, origin) pairs — the paper's
// "777K advertised (IP prefix, AS) pairs" quantity.
func (t *Table) Len() int { return len(t.byPrefix) }

// Routes returns all pairs in (prefix, origin) order. Callers must not
// modify the returned slice.
func (t *Table) Routes() []Route { return t.byPrefix }

// ByOrigin returns all pairs in (origin, prefix) order — a VRP set's
// canonical order, which a full deployment's minimal ROAs are read off
// without a sort. Callers must not modify the returned slice.
func (t *Table) ByOrigin() []Route { return t.byOrigin }

// Contains reports whether the exact (prefix, origin) pair is announced.
func (t *Table) Contains(p prefix.Prefix, origin rpki.ASN) bool {
	_, ok := slices.BinarySearchFunc(t.byPrefix, Route{Prefix: p, Origin: origin}, func(r, q Route) int {
		if c := r.Prefix.Compare(q.Prefix); c != 0 {
			return c
		}
		return cmp.Compare(r.Origin, q.Origin)
	})
	return ok
}

// ContainsPrefix reports whether any origin announces p.
func (t *Table) ContainsPrefix(p prefix.Prefix) bool {
	_, ok := slices.BinarySearchFunc(t.byPrefix, p, comparePrefix)
	return ok
}

// comparePrefix orders a route against a prefix by the route's prefix alone.
func comparePrefix(r Route, p prefix.Prefix) int { return r.Prefix.Compare(p) }

// originRange returns the half-open index range of byOrigin holding routes
// of the given origin.
func (t *Table) originRange(origin rpki.ASN) (int, int) {
	lo := sort.Search(len(t.byOrigin), func(i int) bool { return t.byOrigin[i].Origin >= origin })
	hi := sort.Search(len(t.byOrigin), func(i int) bool { return t.byOrigin[i].Origin > origin })
	return lo, hi
}

// PrefixesOf returns the prefixes announced by origin, in canonical order.
// The returned slice is freshly allocated.
func (t *Table) PrefixesOf(origin rpki.ASN) []prefix.Prefix {
	lo, hi := t.originRange(origin)
	out := make([]prefix.Prefix, 0, hi-lo)
	for _, r := range t.byOrigin[lo:hi] {
		out = append(out, r.Prefix)
	}
	return out
}

// WalkAnnouncedUnder calls fn for every prefix q announced by origin with
// p.Contains(q) and q.Len() <= maxLen, in canonical order. It returns the
// number of prefixes visited. fn may be nil when only the count is needed.
//
// This is the query behind both the minimality test of §4 ("is every
// subprefix of p up to length m announced?") and the minimal-ROA conversion
// of §6 ("identify the IP prefixes made valid by the ROA that are announced").
func (t *Table) WalkAnnouncedUnder(origin rpki.ASN, p prefix.Prefix, maxLen uint8, fn func(prefix.Prefix)) int {
	lo, hi := t.originRange(origin)
	rows := t.byOrigin[lo:hi]
	// Find the first route at or after (p, p.Len()). Canonical prefix order
	// places every descendant of p contiguously from there (ancestors of p
	// share its address but sort earlier by length).
	start, _ := slices.BinarySearchFunc(rows, p, comparePrefix)
	n := 0
	for _, r := range rows[start:] {
		if !p.Contains(r.Prefix) {
			break
		}
		if r.Prefix.Len() <= maxLen {
			n++
			if fn != nil {
				fn(r.Prefix)
			}
		}
	}
	return n
}

// AnyAnnouncedUnder reports whether some route's prefix is contained in q
// (any origin). Canonical order places all descendants of q contiguously at
// the lower bound for q, so a single probe decides.
func (t *Table) AnyAnnouncedUnder(q prefix.Prefix) bool {
	i, _ := slices.BinarySearchFunc(t.byPrefix, q, comparePrefix)
	return i < len(t.byPrefix) && q.Contains(t.byPrefix[i].Prefix)
}

// DeaggStats summarizes de-aggregation structure: how often announced
// prefixes sit under a same-origin announced parent, and how often full
// sibling pairs occur. FullSiblingParents bounds what trie compression can
// merge (§7), and SubprefixPairs/Len bounds maxLength's usefulness (§6:
// "most ASes do not send BGP announcements for subprefixes of their
// prefixes").
type DeaggStats struct {
	Routes             int // total (prefix, origin) pairs
	SubprefixRoutes    int // routes strictly contained in a same-origin announced ancestor
	FullSiblingParents int // announced (p, AS) where both children of p are announced by AS
}

// ComputeDeaggStats scans the table once per origin.
func (t *Table) ComputeDeaggStats() DeaggStats {
	st := DeaggStats{Routes: len(t.byPrefix)}
	for lo := 0; lo < len(t.byOrigin); {
		origin := t.byOrigin[lo].Origin
		hi := lo
		for hi < len(t.byOrigin) && t.byOrigin[hi].Origin == origin {
			hi++
		}
		rows := t.byOrigin[lo:hi]
		// Membership set for this origin.
		member := make(map[prefix.Prefix]struct{}, len(rows))
		for _, r := range rows {
			member[r.Prefix] = struct{}{}
		}
		for _, r := range rows {
			p := r.Prefix
			// Subprefix of an announced same-origin ancestor?
			for q := p; q.Len() > 0; {
				q = q.Parent()
				if _, ok := member[q]; ok {
					st.SubprefixRoutes++
					break
				}
			}
			if p.Len() < p.MaxLen() {
				if _, ok := member[p.Child(0)]; ok {
					if _, ok := member[p.Child(1)]; ok {
						st.FullSiblingParents++
					}
				}
			}
		}
		lo = hi
	}
	return st
}

// Origins returns the distinct origin ASes in ascending order.
func (t *Table) Origins() []rpki.ASN {
	var out []rpki.ASN
	for i, r := range t.byOrigin {
		if i == 0 || r.Origin != t.byOrigin[i-1].Origin {
			out = append(out, r.Origin)
		}
	}
	return out
}
