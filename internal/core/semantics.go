package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// This file implements an exact decision procedure for semantic equality of
// two VRP sets: do they authorize exactly the same (prefix, origin AS)
// routes? The authorized set can be astronomically large (a single /8-32
// tuple authorizes 2^25-ish routes), so enumeration is hopeless; instead we
// walk the merged tuple trie carrying, for each side, the running maximum
// maxLength over present ancestors (g). A prefix q is authorized iff
// len(q) <= g(q), and g only changes at tuple nodes, so equality can be
// decided by comparing g at tuple nodes and at the roots of tuple-free
// subtrees, where it bounds every depth below. Sets are compared one (AS,
// family) group at a time, read off each canonical list in one pass, and a
// group both sides hold tuple for tuple needs no trie. A group that differs
// is inserted from both sides in merged canonical order through a finger, so
// the procedure costs one tuple comparison per shared tuple plus the trie
// nodes of the groups that differ. On inequality it returns a concrete
// counterexample route, which the tests and the compressroas -verify flag
// surface directly.

// mval is the merged trie's per-node payload: one maxLength bound per side,
// -1 when the side holds no tuple at the node.
type mval struct {
	valA int16
	valB int16
}

// mtrie is the engine arena holding one merged (AS, family) trie.
type mtrie struct {
	eng  Engine[mval]
	root prefix.Prefix // the /0 of the group's family
}

// mAbsent is the payload of a node neither side holds a tuple at.
var mAbsent = mval{valA: -1, valB: -1}

// build empties the trie, keeping its slab, and inserts one group's tuples of
// both sides, a and b, each in canonical order. The two lists are merged, so
// the tuples arrive in pre-order of the merged trie and each is inserted
// through a finger: path holds the nodes of the previous tuple's prefix, and
// the next prefix descends from its longest common prefix with that one, not
// from the root — Σ(len − cpl) node steps in all instead of Σ len.
func (m *mtrie) build(fam prefix.Family, a, b []rpki.VRP) {
	root, err := prefix.Make(fam, 0, 0, 0)
	if err != nil {
		panic(err) // fam is a tuple's family; unreachable
	}
	m.root = root
	m.eng.Nodes = append(m.eng.Nodes[:0], Node[mval]{Val: mAbsent})
	var path [maxDepth]int32 // path[d]: the node of prev's ancestor of length d; path[0] is the root
	prev := root
	for len(a) > 0 || len(b) > 0 {
		var v rpki.VRP
		sideB := len(a) == 0 || len(b) > 0 && b[0].Prefix.Compare(a[0].Prefix) < 0
		if sideB {
			v, b = b[0], b[1:]
		} else {
			v, a = a[0], a[1:]
		}
		depth := prefix.CommonPrefixLen(prev, v.Prefix)
		idx := path[depth]
		for ; depth < v.Prefix.Len(); depth++ {
			idx = m.eng.Ensure(idx, v.Prefix.Bit(depth), mAbsent)
			path[depth+1] = idx
		}
		prev = v.Prefix
		n, ml := &m.eng.Nodes[idx].Val, int16(v.MaxLength)
		if sideB {
			n.valB = max(n.valB, ml)
		} else {
			n.valA = max(n.valA, ml)
		}
	}
}

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
// On inequality it returns a counterexample: the first, in canonical order,
// of the first (AS, family) group in which the sets disagree.
//
// The two tuple lists are read once, their groups in lockstep (NextGroup). A
// group both sides hold with identical tuple lists authorizes identical
// routes and is passed over; for every other group either side holds, the
// merged trie is built and walked, into one slab reused from group to group,
// so one group's trie is alive at a time. The slab is sized at the first
// group that differs, to the sum of its two sides' exact node counts, and a
// later group that needs more grows it: equal sets allocate nothing.
func SemanticEqual(a, b *rpki.Set) (bool, *Counterexample) {
	var m mtrie
	restA, restB := a.VRPs(), b.VRPs()
	for len(restA) > 0 || len(restB) > 0 {
		// The next group in canonical order: on one side only, or on both.
		var sideA, sideB rpki.OriginGroup
		c := groupOrder(restA, restB)
		if c <= 0 {
			sideA, restA = rpki.NextGroup(restA)
		}
		if c >= 0 {
			sideB, restB = rpki.NextGroup(restB)
		}
		if slices.Equal(sideA.VRPs, sideB.VRPs) {
			continue // the same tuples authorize the same routes
		}
		g := sideA
		if c > 0 {
			g = sideB
		}
		if m.eng.Nodes == nil {
			m.eng.Init(groupNodeHint(sideA)+groupNodeHint(sideB), mAbsent)
		}
		m.build(g.Family, sideA.VRPs, sideB.VRPs)
		if ce := diffTrie(&m, g.AS); ce != nil {
			return false, ce
		}
	}
	return true, nil
}

// groupNodeHint returns the exact number of trie nodes (root included) the
// group's VRPs expand to. The group's prefixes arrive in canonical Set order,
// which for the underlying bit strings is lexicographic order, so each
// prefix's longest common prefix with *any* earlier prefix is its LCP with
// its immediate predecessor; the prefix then contributes exactly its bits
// beyond that LCP as new nodes. (Σ prefix bits ignores path sharing and
// overestimates sibling-heavy groups by >2x: TestGroupNodeHintExact.)
func groupNodeHint(g rpki.OriginGroup) int {
	hint := 1 // the root
	var prev prefix.Prefix
	for i, v := range g.VRPs {
		if i == 0 {
			hint += int(v.Prefix.Len())
		} else {
			hint += int(v.Prefix.Len()) - int(prefix.CommonPrefixLen(prev, v.Prefix))
		}
		prev = v.Prefix
	}
	return hint
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

// diffFrame is one pending work item of the diff traversal. With absentBit
// < 0 it is a real node: idx, its prefix, and the per-side ancestor maxima
// excluding the node itself. With absentBit 0 or 1 it is a deferred
// divergence report for the tuple-free subtree under that absent child of
// pfx (only pushed when the bounds already prove a divergence), kept on the
// stack so it surfaces at its correct pre-order position.
type diffFrame struct {
	idx       int32
	gA, gB    int16
	absentBit int8
	pfx       prefix.Prefix
}

// diffTrie returns the first counterexample of a pre-order scan of the
// merged trie, or nil if the sides agree everywhere.
func diffTrie(m *mtrie, as rpki.ASN) *Counterexample {
	stack := make([]diffFrame, 1, 2*maxDepth)
	stack[0] = diffFrame{idx: 0, gA: -1, gB: -1, absentBit: -1, pfx: m.root}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.absentBit >= 0 {
			return tupleFreeCounterexample(f.pfx, uint8(f.absentBit), f.gA, f.gB, as)
		}
		n := &m.eng.Nodes[f.idx]
		gA, gB := f.gA, f.gB
		if n.Val.valA > gA {
			gA = n.Val.valA
		}
		if n.Val.valB > gB {
			gB = n.Val.valB
		}
		l := int16(f.pfx.Len())
		// Authorization of the node's own prefix.
		if (l <= gA) != (l <= gB) {
			return &Counterexample{
				Route:       rpki.VRP{Prefix: f.pfx, MaxLength: f.pfx.Len(), AS: as},
				AuthorizedA: l <= gA,
			}
		}
		// Push children 1-before-0 so the stack pops them in bit order. An
		// absent child roots a tuple-free subtree whose authorized depths are
		// (l, gX]: the sides agree iff the effective bounds match or both
		// bound-authorized ranges are empty; otherwise a deferred divergence
		// frame keeps the report at its pre-order position.
		for bit := int8(1); bit >= 0; bit-- {
			if c := n.Children[bit]; c != NoChild {
				stack = append(stack, diffFrame{idx: c, gA: gA, gB: gB, absentBit: -1, pfx: f.pfx.Child(uint8(bit))})
			} else if gA != gB && (gA > l || gB > l) {
				stack = append(stack, diffFrame{gA: gA, gB: gB, absentBit: bit, pfx: f.pfx})
			}
		}
	}
	return nil
}

// tupleFreeCounterexample builds a route at the first depth where exactly
// one side authorizes within the absent-child subtree.
func tupleFreeCounterexample(parent prefix.Prefix, bit uint8, gA, gB int16, as rpki.ASN) *Counterexample {
	authA := gA > gB
	hi := gA // the smaller of the two bounds
	if authA {
		hi = gB
	}
	// Depths in (max(hi, parent.Len()), max(gA, gB)] are authorized by one
	// side only; pick the shallowest.
	depth := hi + 1
	if depth < int16(parent.Len())+1 {
		depth = int16(parent.Len()) + 1
	}
	q := parent.Child(bit)
	for int16(q.Len()) < depth {
		q = q.Child(0)
	}
	return &Counterexample{
		Route:       rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: as},
		AuthorizedA: authA,
	}
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
