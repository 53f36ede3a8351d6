package core

import (
	"cmp"
	"fmt"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file implements an exact decision procedure for semantic equality of
// two VRP sets: do they authorize exactly the same (prefix, origin AS)
// routes? The authorized set can be astronomically large (a single /8-32
// tuple authorizes 2^25-ish routes), so enumeration is hopeless. Within one
// (AS, family) group a side authorizes q iff len(q) <= g(q), the largest
// maxLength of its tuples at q and above, and g changes only at tuple
// prefixes, which a set lists in its trie's pre-order. So equality is decided
// on the tuples, in one pass and without a trie, and on inequality with a
// concrete counterexample route, which compressroas -verify surfaces.

// Counterexample describes one route authorized by exactly one of two sets.
type Counterexample struct {
	Route       rpki.VRP // MaxLength == Prefix.Len(): a single route
	AuthorizedA bool     // true: A authorizes it and B does not; false: vice versa
}

// String renders e.g. "168.122.0.0/24 => AS111 authorized only by A".
func (c Counterexample) String() string {
	side := "B"
	if c.AuthorizedA {
		side = "A"
	}
	return fmt.Sprintf("%s authorized only by %s", c.Route, side)
}

// SemanticEqual reports whether a and b authorize exactly the same routes.
// On inequality it returns a counterexample: the first route, in canonical
// order, that exactly one of them authorizes.
//
// The lists are compared in lockstep, so tuples both sides hold in the same
// place are read once. At a mismatch the walk backs up to the start of that
// (AS, family) group on each side and decides the pair, or the group one side
// lacks, with diffGroup. It allocates nothing but the counterexample.
func SemanticEqual(a, b *rpki.Set) (bool, *Counterexample) {
	va, vb := a.VRPs(), b.VRPs()
	i, j := 0, 0
	for {
		run := 0 // tuples matched since a group boundary both sides share
		for x, y := va[i:], vb[j:]; run < len(x) && run < len(y) && sameTuple(x[run], y[run]); {
			run++
		}
		i, j = i+run, j+run
		if i == len(va) && j == len(vb) {
			return true, nil
		}
		// Back up, within the run, to the start of the group that differs.
		for ; run > 0 && (i < len(va) && sameGroup(va[i-1], va[i]) || j < len(vb) && sameGroup(vb[j-1], vb[j])); run-- {
			i--
			j--
		}
		// The next group in canonical order: on one side only, or on both.
		var sideA, sideB rpki.OriginGroup
		c := groupOrder(va[i:], vb[j:])
		if c <= 0 {
			sideA, _ = rpki.NextGroup(va[i:])
		}
		if c >= 0 {
			sideB, _ = rpki.NextGroup(vb[j:])
		}
		g := sideA
		if c > 0 {
			g = sideB
		}
		if ce := diffGroup(g.AS, ancestor(g.VRPs[0].Prefix, 0), sideA.VRPs, sideB.VRPs); ce != nil {
			return false, ce
		}
		i, j = i+len(sideA.VRPs), j+len(sideB.VRPs)
	}
}

// sameTuple is x == y field by field, which inlines; == on a VRP is a call.
func sameTuple(x, y rpki.VRP) bool {
	return x.Prefix == y.Prefix && x.MaxLength == y.MaxLength && x.AS == y.AS
}

// sameGroup reports whether two tuples belong to one (AS, family) group.
func sameGroup(x, y rpki.VRP) bool {
	return x.AS == y.AS && x.Prefix.Family() == y.Prefix.Family()
}

// groupOrder compares the groups heading two lists in canonical Set order;
// an exhausted list sorts after everything.
func groupOrder(a, b []rpki.VRP) int {
	switch {
	case len(b) == 0:
		return -1
	case len(a) == 0:
		return 1
	}
	return cmp.Or(cmp.Compare(a[0].AS, b[0].AS), cmp.Compare(a[0].Prefix.Family(), b[0].Prefix.Family()))
}

// bound is a node depth on the walk's path and each side's running maximum
// maxLength there, over its tuples at or above that node (-1: none).
type bound struct {
	depth  uint8
	gA, gB int16
}

// diffGroup returns the first route, in canonical order, that exactly one of
// a and b authorizes, or nil. a and b are the tuples of each side in one (AS,
// family) group, under root, in canonical order; either may be empty.
//
// It is the pre-order scan of the two sides' merged trie, without the trie.
// The distinct prefixes of both sides arrive in pre-order. Between one, prev,
// and the next, pfx, the scan leaves prev's subtree up to their longest
// common prefix, of depth c, and descends a chain of tuple-free nodes to pfx.
// Along it the bounds are those of pfx's deepest tuple-bearing ancestor, so
// where they agree nothing on it can differ, and where they differ each node
// is judged by its depth d alone, in the scan's order:
//   - its own prefix differs iff min(gA, gB) < d <= max(gA, gB);
//   - an absent child roots a tuple-free subtree, which differs iff gA != gB
//     and max(gA, gB) > d. An absent 0-child is reported before the walk
//     descends into the 1-child. An absent 1-child is pending until the walk
//     leaves the 0-subtree, and is reported then, deepest first, unless the
//     next prefix branches there.
func diffGroup(as rpki.ASN, root prefix.Prefix, a, b []rpki.VRP) *Counterexample {
	var anc [maxDepth + 1]bound // the root's, then those of the walk's tuple-bearing ancestors
	var pend [maxDepth]bound    // the path's pending absent 1-children, deepest on top
	anc[0] = bound{gA: -1, gB: -1}
	na, np, prev := 1, 0, root
	for len(a) > 0 || len(b) > 0 {
		// The next prefix in merged order, and each side's largest maxLength
		// at it: the last of its tuples there.
		next := a
		if len(a) == 0 || len(b) > 0 && b[0].Prefix.Compare(a[0].Prefix) < 0 {
			next = b
		}
		pfx, mA, mB := next[0].Prefix, int16(-1), int16(-1)
		for ; len(a) > 0 && a[0].Prefix == pfx; a = a[1:] {
			mA = int16(a[0].MaxLength)
		}
		for ; len(b) > 0 && b[0].Prefix == pfx; b = b[1:] {
			mB = int16(b[0].MaxLength)
		}

		c := prefix.CommonPrefixLen(prev, pfx)
		leaf := c < prev.Len() // pfx is not below prev, so nothing is
		if leaf {
			if ce := leave(prev, anc[na-1], pend[:np], int(c), as); ce != nil {
				return ce
			}
			for anc[na-1].depth > c {
				na--
			}
			if np > 0 && pend[np-1].depth == c {
				np-- // pfx takes the 1-child there
			}
		}
		g := anc[na-1]
		if g.gA != g.gB {
			lo, hi := min(g.gA, g.gB), max(g.gA, g.gB)
			d := int16(c)
			if leaf {
				d++ // at c, prev's subtree is the 0-child and pfx's the 1-child
			}
			for ; d < int16(pfx.Len()) && d <= hi; d++ {
				if d > int16(c) && d > lo {
					return route(ancestor(pfx, uint8(d)), d <= g.gA, as)
				}
				if d == hi {
					break
				}
				if pfx.Bit(uint8(d)) == 1 {
					return absentChild(ancestor(pfx, uint8(d)), 0, g, as)
				}
				pend[np] = bound{depth: uint8(d), gA: g.gA, gB: g.gB}
				np++
			}
		}
		g = bound{depth: pfx.Len(), gA: max(g.gA, mA), gB: max(g.gB, mB)}
		anc[na] = g
		na++
		if l := int16(pfx.Len()); (l <= g.gA) != (l <= g.gB) {
			return route(pfx, l <= g.gA, as)
		}
		prev = pfx
	}
	return leave(prev, anc[na-1], pend[:np], -1, as)
}

// leave reports what the scan meets on leaving prev, a leaf with bounds g,
// up to depth c: prev's absent children, then the pending absent 1-children
// deeper than c, deepest first. It returns the first that differs, or nil.
func leave(prev prefix.Prefix, g bound, pend []bound, c int, as rpki.ASN) *Counterexample {
	if ce := absentChild(prev, 0, g, as); ce != nil {
		return ce
	}
	if n := len(pend); n > 0 && int(pend[n-1].depth) > c {
		return absentChild(ancestor(prev, pend[n-1].depth), 1, pend[n-1], as)
	}
	return nil
}

// absentChild returns the first route, in canonical order, of the tuple-free
// subtree under parent's absent child bit that exactly one side authorizes,
// under bounds g, or nil. Depths in (max(min(gA, gB), len), max(gA, gB)] are
// authorized by one side only; the shallowest, all zeros below the child,
// comes first.
func absentChild(parent prefix.Prefix, bit uint8, g bound, as rpki.ASN) *Counterexample {
	if g.gA == g.gB || max(g.gA, g.gB) <= int16(parent.Len()) {
		return nil
	}
	q := parent.Child(bit)
	for int16(q.Len()) <= min(g.gA, g.gB) {
		q = q.Child(0)
	}
	return route(q, g.gA > g.gB, as)
}

// route returns the counterexample of the single route (q, as).
func route(q prefix.Prefix, authorizedA bool, as rpki.ASN) *Counterexample {
	return &Counterexample{Route: rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: as}, AuthorizedA: authorizedA}
}

// ancestor returns p's ancestor of length l <= p.Len().
func ancestor(p prefix.Prefix, l uint8) prefix.Prefix {
	hi, lo := p.Bits()
	q, _ := prefix.Make(p.Family(), hi, lo, l) // p's own family and bits: no error
	return q
}

// VerifyCompression asserts that compressed preserves original's semantics;
// it returns nil on success and a descriptive error otherwise. cmd/compressroas
// runs this under -verify.
func VerifyCompression(original, compressed *rpki.Set) error {
	if ok, ce := SemanticEqual(original, compressed); !ok {
		return fmt.Errorf("core: compression changed authorized routes: %s", ce)
	}
	return nil
}
