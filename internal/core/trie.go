// Package core implements the paper's primary contribution: the binary
// prefix trie of Figure 2 and the compress_roas algorithm (Algorithm 1) that
// rewrites a set of VRP tuples into a smaller, semantically identical set
// that uses the maxLength attribute — without ever authorizing a route the
// input did not authorize. (Compress itself walks each group's sorted tuples,
// which are the trie's pre-order, and so do the analyses; nothing outside
// tests builds the trie. It is the reference Algorithm 1 is tested against:
// FuzzCompressVsTrie.) The package also implements the analyses the
// paper builds on that algorithm: minimal-ROA conversion (§6, §7.2),
// forged-origin subprefix hijack vulnerability detection (§4, §6), and an
// exact semantic-equivalence verifier used to prove compression safe.
//
// Figure 2's Trie is the package's one trie: a contiguous slab of nodes with
// int32 child indices. The verifier builds none (see semantics.go); the
// merged trie it replaced lives on in its tests as their oracle.
package core

import (
	"fmt"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// tnode is one vertex of a Trie: its children's slab indices, 0 where there
// is none (node 0 is the root, nobody's child), and its payload. Structural
// nodes exist only to connect present nodes; a present node corresponds to a
// (prefix, maxLength) tuple ("Each trie node corresponds to some (AS, prefix,
// maxLength)-tuple", §7.1). A node does not store its prefix — the prefix is
// the path from the root, and traversals that need it rebuild it
// incrementally with Prefix.Child.
type tnode struct {
	children [2]int32
	value    uint8 // maxLength; meaningful only when present
	present  bool
}

// Trie is the per-(origin AS, address family) prefix tree of §7.1. The trie
// key of a node is the bit string of its prefix; node values are maxLengths.
//
// All nodes live in a single contiguous slab (node 0 is the root), so
// building a trie costs O(log nodes) slab growths rather than one heap
// allocation per prefix bit, and the whole structure is freed as one object.
// Child slab indices are always greater than their parent's, which makes the
// structure trivially acyclic.
type Trie struct {
	nodes []tnode
	fam   prefix.Family
	as    rpki.ASN
	size  int // number of present nodes
}

// NewTrie returns an empty trie for one origin AS and family.
func NewTrie(as rpki.ASN, fam prefix.Family) *Trie {
	return newTrieCap(as, fam, 0)
}

// newTrieCap returns an empty trie whose slab holds at least hint nodes
// without growing.
func newTrieCap(as rpki.ASN, fam prefix.Family, hint int) *Trie {
	if fam != prefix.IPv4 && fam != prefix.IPv6 {
		panic(fmt.Sprintf("core: invalid family %d", fam))
	}
	return &Trie{nodes: make([]tnode, 1, hint+1), fam: fam, as: as}
}

// Release drops the trie's node slab, so a pass over a full snapshot's tries
// can let each go as it finishes with it. The trie must not be used
// afterwards.
func (t *Trie) Release() {
	t.nodes = nil
	t.size = 0
}

// AS returns the origin AS the trie belongs to.
func (t *Trie) AS() rpki.ASN { return t.as }

// Family returns the trie's address family.
func (t *Trie) Family() prefix.Family { return t.fam }

// Size returns the number of tuples (present nodes) in the trie.
func (t *Trie) Size() int { return t.size }

// rootPrefix returns the /0 prefix of the trie's family.
func (t *Trie) rootPrefix() prefix.Prefix {
	p, err := prefix.Make(t.fam, 0, 0, 0)
	if err != nil {
		panic(err) // fam is validated at construction; unreachable
	}
	return p
}

// Insert adds the tuple (p, maxLength). Inserting a prefix twice keeps the
// larger maxLength, since the union of the two tuples' authorizations equals
// the more permissive one. Insert panics on family mismatch or an invalid
// maxLength, which indicate a bug in the caller (Set inputs are validated).
func (t *Trie) Insert(p prefix.Prefix, maxLength uint8) {
	if p.Family() != t.fam {
		panic(fmt.Sprintf("core: inserting %s into %s trie", p, t.fam))
	}
	if maxLength < p.Len() || maxLength > p.MaxLen() {
		panic(fmt.Sprintf("core: maxLength %d invalid for %s", maxLength, p))
	}
	idx := int32(0)
	for depth := uint8(0); depth < p.Len(); depth++ {
		c := t.nodes[idx].children[p.Bit(depth)]
		if c == 0 {
			c = int32(len(t.nodes))
			t.nodes = append(t.nodes, tnode{})
			t.nodes[idx].children[p.Bit(depth)] = c
		}
		idx = c
	}
	n := &t.nodes[idx]
	if !n.present {
		n.present = true
		n.value = maxLength
		t.size++
		return
	}
	if maxLength > n.value {
		n.value = maxLength
	}
}

// InsertVRP adds a VRP tuple; the VRP's AS must match the trie's.
func (t *Trie) InsertVRP(v rpki.VRP) {
	if v.AS != t.as {
		panic(fmt.Sprintf("core: inserting %s into trie for %s", v, t.as))
	}
	t.Insert(v.Prefix, v.MaxLength)
}

// maxDepth bounds the trie height: one level per prefix bit plus the root.
const maxDepth = 129

// Tuples appends the trie's present tuples to dst in canonical prefix order
// and returns the extended slice.
func (t *Trie) Tuples(dst []rpki.VRP) []rpki.VRP {
	t.Walk(func(p prefix.Prefix, maxLength uint8) {
		dst = append(dst, rpki.VRP{Prefix: p, MaxLength: maxLength, AS: t.as})
	})
	return dst
}

// Walk visits every present tuple in canonical order: a pre-order walk that
// pushes the 1-child under the 0-child, so the 0-child's subtree comes first.
func (t *Trie) Walk(fn func(p prefix.Prefix, maxLength uint8)) {
	type frame struct {
		idx int32
		pfx prefix.Prefix
	}
	stack := append(make([]frame, 0, maxDepth+1), frame{idx: 0, pfx: t.rootPrefix()})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[f.idx]
		if n.present {
			fn(f.pfx, n.value)
		}
		for bit := 1; bit >= 0; bit-- {
			if c := n.children[bit]; c != 0 {
				stack = append(stack, frame{idx: c, pfx: f.pfx.Child(uint8(bit))})
			}
		}
	}
}

// Lookup returns the maxLength stored at exactly p, if present.
func (t *Trie) Lookup(p prefix.Prefix) (uint8, bool) {
	if p.Family() != t.fam {
		return 0, false
	}
	idx := int32(0)
	for depth := uint8(0); depth < p.Len(); depth++ {
		if idx = t.nodes[idx].children[p.Bit(depth)]; idx == 0 {
			return 0, false
		}
	}
	if n := &t.nodes[idx]; n.present {
		return n.value, true
	}
	return 0, false
}

// Authorizes reports whether the trie's tuples authorize the route (q, AS):
// some present ancestor-or-self of q has maxLength >= q.Len().
func (t *Trie) Authorizes(q prefix.Prefix) bool {
	if q.Family() != t.fam {
		return false
	}
	idx := int32(0)
	for depth := uint8(0); ; depth++ {
		n := &t.nodes[idx]
		if n.present && n.value >= q.Len() {
			return true
		}
		if depth >= q.Len() {
			return false
		}
		if idx = n.children[q.Bit(depth)]; idx == 0 {
			return false
		}
	}
}

// countFrame is one pending subtree of the CountAuthorized traversal: the
// node's slab index, its depth (= prefix length), and the maximum maxLength
// over its present strict ancestors (-1 when none).
type countFrame struct {
	idx   int32
	g     int16
	depth uint8
}

// CountAuthorized returns the number of distinct prefixes the trie
// authorizes (counting each authorized prefix once even when several tuples
// cover it), saturating at the uint64 maximum. This measures the authorized
// route space that vulnerability analysis (§4) compares against BGP.
//
// The traversal propagates g — the maximum maxLength over present ancestors:
// a prefix q is authorized iff len(q) <= g(q), and g changes only at tuple
// nodes. Absent
// subtrees under an authorizing ancestor are complete binary trees and are
// counted in closed form.
func (t *Trie) CountAuthorized() uint64 {
	var total uint64
	stack := make([]countFrame, 1, maxDepth+1)
	stack[0] = countFrame{idx: 0, g: -1, depth: 0}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[f.idx]
		g := f.g
		if n.present && int16(n.value) > g {
			g = int16(n.value)
		}
		l := int16(f.depth)
		if l <= g {
			total = satAdd(total, 1)
		}
		for bit := 0; bit < 2; bit++ {
			if c := n.children[bit]; c != 0 {
				stack = append(stack, countFrame{idx: c, g: g, depth: f.depth + 1})
			} else if g > l {
				// Tuple-free subtree fully authorized down to depth g:
				// 2^(g-l) - 1 prefixes (complete binary tree below this node).
				d := uint64(g - l)
				sub := ^uint64(0)
				if d < 64 {
					sub = (uint64(1) << d) - 1
				}
				total = satAdd(total, sub)
			}
		}
	}
	return total
}

func satAdd(a, b uint64) uint64 {
	if a+b < a {
		return ^uint64(0)
	}
	return a + b
}

// checkInvariants verifies structural soundness; used by tests.
func (t *Trie) checkInvariants() error {
	if len(t.nodes) == 0 {
		return fmt.Errorf("core: trie has no root (released?)")
	}
	count := 0
	type frame struct {
		idx int32
		pfx prefix.Prefix
	}
	visited := 1
	stack := []frame{{idx: 0, pfx: t.rootPrefix()}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[f.idx]
		if (n.children[0] != 0 || n.children[1] != 0) && f.pfx.Len() >= f.pfx.MaxLen() {
			return fmt.Errorf("core: node %d at %s exceeds family depth", f.idx, f.pfx)
		}
		if n.present {
			count++
			if n.value < f.pfx.Len() || n.value > f.pfx.MaxLen() {
				return fmt.Errorf("core: node %s has bad value %d", f.pfx, n.value)
			}
		}
		for bit := uint8(0); bit < 2; bit++ {
			c := n.children[bit]
			if c == 0 {
				continue
			}
			if c <= f.idx || int(c) >= len(t.nodes) {
				return fmt.Errorf("core: child index %d of node %d out of order", c, f.idx)
			}
			visited++
			stack = append(stack, frame{idx: c, pfx: f.pfx.Child(bit)})
		}
	}
	if count != t.size {
		return fmt.Errorf("core: size %d but %d present nodes", t.size, count)
	}
	if visited != len(t.nodes) {
		return fmt.Errorf("core: %d nodes in slab but %d reachable", len(t.nodes), visited)
	}
	return nil
}

// BuildTries partitions a VRP set into per-(AS, family) tries, the structure
// §7.1 compresses ("For each AS number in the list, we generate a trie for
// IPv4 and a trie for IPv6"). Each trie's slab is pre-sized to the group's
// exact node count (see groupNodeHint), so a build performs O(tries) slab
// allocations rather than one per prefix bit.
func BuildTries(s *rpki.Set) []*Trie {
	var out []*Trie
	for rest := s.VRPs(); len(rest) > 0; {
		var g rpki.OriginGroup
		g, rest = rpki.NextGroup(rest)
		out = append(out, buildGroupTrie(g))
	}
	return out
}

// buildGroupTrie builds the trie for one (AS, family) group, pre-sizing the
// slab to the group's exact node count.
func buildGroupTrie(g rpki.OriginGroup) *Trie {
	t := newTrieCap(g.AS, g.Family, groupNodeHint(g))
	for _, v := range g.VRPs {
		t.InsertVRP(v)
	}
	return t
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

// ReleaseTries releases every trie in the slice; see (*Trie).Release.
func ReleaseTries(tries []*Trie) {
	for _, t := range tries {
		t.Release()
	}
}
