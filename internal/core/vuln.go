package core

import (
	"repro/internal/bgp"
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file implements the forged-origin subprefix hijack analysis of §4 and
// the measurement of §6: "any prefix p in a ROA with maxLength m longer than
// p is vulnerable, unless every subprefix of p of length up to m is
// legitimately announced in BGP." A hijacker forges the authorized origin in
// its AS path and announces an authorized-but-unannounced subprefix; the
// route is RPKI-valid and, being the only route to that subprefix, attracts
// 100% of its traffic.

// Vulnerability describes one vulnerable VRP tuple.
type Vulnerability struct {
	VRP rpki.VRP
	// Witness is an authorized-but-unannounced route a hijacker could
	// announce (with a forged origin) to intercept traffic.
	Witness rpki.VRP
	// UnannouncedRoutes counts authorized (prefix, origin) routes under this
	// tuple that are not announced — the tuple's attack surface.
	UnannouncedRoutes uint64
	// Effective reports whether some witness route would actually win
	// longest-prefix-match traffic (see EffectivelyVulnerable); a tuple can
	// be nominally vulnerable yet attract no traffic when longer announced
	// prefixes fully tile it.
	Effective bool
}

// Report aggregates a vulnerability scan, mirroring §6's headline numbers.
type Report struct {
	Tuples          int // total tuples scanned
	UsingMaxLength  int // tuples with maxLength > prefix length ("12% of prefixes")
	Vulnerable      int // of those, tuples with unannounced authorized subprefixes ("84%")
	Effective       int // vulnerable tuples where a hijack would attract traffic
	Vulnerabilities []Vulnerability
}

// VulnerableShare returns Vulnerable/UsingMaxLength, the paper's "almost
// all" fraction.
func (r Report) VulnerableShare() float64 {
	if r.UsingMaxLength == 0 {
		return 0
	}
	return float64(r.Vulnerable) / float64(r.UsingMaxLength)
}

// MaxLengthShare returns UsingMaxLength/Tuples (§6: "about 12%").
func (r Report) MaxLengthShare() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return float64(r.UsingMaxLength) / float64(r.Tuples)
}

// AnalyzeVulnerabilities scans every maxLength-using tuple of the set
// against the BGP table. When collect is false the per-tuple Vulnerabilities
// slice is left empty (the counters are always filled); large scans should
// pass collect=false.
func AnalyzeVulnerabilities(s *rpki.Set, table *bgp.Table, collect bool) Report {
	rep := Report{Tuples: s.Len()}
	for _, v := range s.VRPs() {
		if !v.UsesMaxLength() {
			continue
		}
		rep.UsingMaxLength++
		want := v.AuthorizedCount()
		got := uint64(table.WalkAnnouncedUnder(v.AS, v.Prefix, v.MaxLength, nil))
		if got >= want {
			continue // minimal: every authorized subprefix announced
		}
		rep.Vulnerable++
		vu := Vulnerability{VRP: v, UnannouncedRoutes: want - got}
		if w, ok := findUnannounced(v, table); ok {
			vu.Witness = w
			vu.Effective = hijackEffective(w.Prefix, table)
		}
		if vu.Effective {
			rep.Effective++
		}
		if collect {
			rep.Vulnerabilities = append(rep.Vulnerabilities, vu)
		}
	}
	return rep
}

// findUnannounced locates an authorized-but-unannounced route under v by
// descending toward a deficit: at each level at least one child subtree has
// fewer announcements than authorized prefixes, so the search is
// O(maxLength) probes. It reports false when v's expansion is fully announced.
func findUnannounced(v rpki.VRP, table *bgp.Table) (rpki.VRP, bool) {
	q := v.Prefix
	for {
		if !table.Contains(q, v.AS) {
			return rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: v.AS}, true
		}
		if q.Len() >= v.MaxLength {
			return rpki.VRP{}, false
		}
		descended := false
		for bit := uint8(0); bit < 2; bit++ {
			c := q.Child(bit)
			if uint64(table.WalkAnnouncedUnder(v.AS, c, v.MaxLength, nil)) < c.NumSubprefixesUpTo(v.MaxLength) {
				q = c
				descended = true
				break
			}
		}
		if !descended {
			return rpki.VRP{}, false
		}
	}
}

// hijackEffective reports whether announcing q would attract traffic for at
// least one address in q: some address in q must have no announced covering
// prefix of length >= q.Len() (longest-prefix match would then prefer the
// hijacker's q). Announced prefixes of any origin count — they keep carrying
// the traffic regardless of who announces them.
func hijackEffective(q prefix.Prefix, table *bgp.Table) bool {
	return !fullyTiled(q, table)
}

// fullyTiled reports whether announced prefixes of length >= q.Len() cover
// every address of q. The recursion descends only into untiled holes and is
// bounded by the number of announced prefixes under q plus the prefix depth.
func fullyTiled(q prefix.Prefix, table *bgp.Table) bool {
	if table.ContainsPrefix(q) {
		return true
	}
	if q.Len() >= q.MaxLen() {
		return false
	}
	// If no announced prefix lies strictly under q, q has an uncovered hole.
	if !table.AnyAnnouncedUnder(q) {
		return false
	}
	return fullyTiled(q.Child(0), table) && fullyTiled(q.Child(1), table)
}

// VulnerableAddressSpace returns the total number of addresses (IPv4) or
// /64s (IPv6) inside authorized-but-unannounced routes of the set — an
// exposure metric for operators, aggregated per origin AS. Results saturate
// at the uint64 maximum.
func VulnerableAddressSpace(s *rpki.Set, table *bgp.Table) map[rpki.ASN]uint64 {
	out := make(map[rpki.ASN]uint64)
	for _, v := range s.VRPs() {
		if !v.UsesMaxLength() {
			continue
		}
		unit := uint8(32) // IPv4: count addresses
		if v.Prefix.Family() == prefix.IPv6 {
			unit = 64 // IPv6: count /64s
		}
		if v.MaxLength > unit {
			continue
		}
		// Addresses covered by unannounced authorized subprefixes at the
		// deepest authorized level (maxLength): conservative lower bound on
		// exposed space — any unannounced maxLength-level subprefix can be
		// hijacked wholesale.
		total := v.Prefix.NumSubprefixes(v.MaxLength)
		announced := uint64(0)
		table.WalkAnnouncedUnder(v.AS, v.Prefix, v.MaxLength, func(q prefix.Prefix) {
			if q.Len() == v.MaxLength {
				announced++
			}
		})
		if announced >= total {
			continue
		}
		per := uint64(1) << (unit - v.MaxLength)
		exposure := (total - announced) * per
		if (total-announced) != 0 && exposure/(total-announced) != per {
			exposure = ^uint64(0) // overflow
		}
		out[v.AS] = satAdd(out[v.AS], exposure)
	}
	return out
}
