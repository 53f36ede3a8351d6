package core

import (
	"repro/internal/bgp"
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file implements the minimal-ROA machinery of §3 and §6–§7: a ROA (or
// VRP set) is *minimal* when it authorizes exactly the routes its origin
// announces in BGP (RFC 6907 §3.2). The paper's hardening proposal replaces
// every ROA with its minimal, maxLength-free equivalent; Compress then wins
// back most of the PDU inflation that causes.

// Minimalize converts the VRP set into the minimal, maxLength-free set with
// respect to the BGP table: for every tuple, the (prefix, origin) routes it
// authorizes that are actually announced, each emitted with maxLength equal
// to its prefix length. Tuples authorizing nothing that is announced vanish
// (their ROA would become empty). This is the conversion behind Table 1's
// "minimal ROAs, no maxLength" rows.
//
// The routes come out tuple by tuple in s's order, which is canonical only
// when no two tuples of one AS overlap; rpki.SortedSet's check decides
// whether they need sorting.
func Minimalize(s *rpki.Set, table *bgp.Table) *rpki.Set {
	var out []rpki.VRP
	for _, v := range s.VRPs() {
		as := v.AS
		table.WalkAnnouncedUnder(as, v.Prefix, v.MaxLength, func(q prefix.Prefix) {
			out = append(out, rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: as})
		})
	}
	return rpki.SortedSet(out)
}

// FullDeploymentMinimal returns the minimal, maxLength-free VRP set of a
// fully deployed RPKI: one tuple per announced (prefix, origin) pair ("we
// assume every IP prefix announced in our BGP dataset is validated by a
// minimal ROA that does not use maxLength", §7.2). The length of its
// MaxPermissive variant is §6's lower bound on PDUs under full deployment;
// only that count is meaningful, the variant being non-minimal and vulnerable.
//
// The table's (origin, prefix) order is the set's canonical order, and each
// pair is distinct, so the tuples are written in that order and become the
// Set without a sort: rpki.SortedSet's check costs one comparison a tuple.
func FullDeploymentMinimal(table *bgp.Table) *rpki.Set {
	routes := table.ByOrigin()
	out := make([]rpki.VRP, len(routes))
	for i, r := range routes {
		out[i] = rpki.VRP{Prefix: r.Prefix, MaxLength: r.Prefix.Len(), AS: r.Origin}
	}
	return rpki.SortedSet(out)
}

// IsMinimal reports whether the set is minimal w.r.t. the table: every
// authorized route is announced (the converse — every announced route
// authorized — is deployment coverage, not minimality). It returns a
// witness route that is authorized but unannounced when not minimal.
func IsMinimal(s *rpki.Set, table *bgp.Table) (bool, *rpki.VRP) {
	for _, v := range s.VRPs() {
		// Compare the announced count under the tuple with the full
		// expansion size; equality means every authorized subprefix is
		// announced.
		want := v.Prefix.NumSubprefixesUpTo(v.MaxLength)
		if uint64(table.WalkAnnouncedUnder(v.AS, v.Prefix, v.MaxLength, nil)) >= want {
			continue
		}
		if w, ok := findUnannounced(v, table); ok {
			return false, &w
		}
	}
	return true, nil
}
