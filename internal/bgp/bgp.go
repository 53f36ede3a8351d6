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
func NewTable(routes []Route) *Table {
	bp := append([]Route(nil), routes...)
	sort.Slice(bp, func(i, j int) bool {
		if c := bp[i].Prefix.Compare(bp[j].Prefix); c != 0 {
			return c < 0
		}
		return bp[i].Origin < bp[j].Origin
	})
	// Dedup.
	out := bp[:0]
	for i, r := range bp {
		if i == 0 || r != bp[i-1] {
			out = append(out, r)
		}
	}
	bp = out
	bo := append([]Route(nil), bp...)
	sort.Slice(bo, func(i, j int) bool {
		if bo[i].Origin != bo[j].Origin {
			return bo[i].Origin < bo[j].Origin
		}
		return bo[i].Prefix.Compare(bo[j].Prefix) < 0
	})
	return &Table{byPrefix: bp, byOrigin: bo}
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

// Contains reports whether the exact (prefix, origin) pair is announced.
func (t *Table) Contains(p prefix.Prefix, origin rpki.ASN) bool {
	i := sort.Search(len(t.byPrefix), func(i int) bool {
		if c := t.byPrefix[i].Prefix.Compare(p); c != 0 {
			return c > 0
		}
		return t.byPrefix[i].Origin >= origin
	})
	return i < len(t.byPrefix) && t.byPrefix[i] == (Route{Prefix: p, Origin: origin})
}

// ContainsPrefix reports whether any origin announces p.
func (t *Table) ContainsPrefix(p prefix.Prefix) bool {
	i := sort.Search(len(t.byPrefix), func(i int) bool {
		return t.byPrefix[i].Prefix.Compare(p) >= 0
	})
	return i < len(t.byPrefix) && t.byPrefix[i].Prefix == p
}

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
	start := sort.Search(len(rows), func(i int) bool { return rows[i].Prefix.Compare(p) >= 0 })
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
	i := sort.Search(len(t.byPrefix), func(i int) bool {
		return t.byPrefix[i].Prefix.Compare(q) >= 0
	})
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
