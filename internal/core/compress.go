package core

import (
	"slices"

	"repro/internal/rpki"
)

// Mode selects the compression variant.
type Mode int

const (
	// Strict is the default, provably semantics-preserving variant of
	// Algorithm 1: a parent absorbs its children only when both *depth+1*
	// children are present. Every depth level between the parent's length
	// and its new maxLength is then fully covered by the children's own
	// authorizations, so the output authorizes exactly the input's routes.
	Strict Mode = iota

	// Literal is Algorithm 1 exactly as printed in §7.1: a node's "direct
	// children" are the *nearest* present descendants under each branch,
	// however deep. When a direct child sits more than one bit down, raising
	// the parent's maxLength authorizes intermediate-length prefixes that
	// were not in the input: {p/19, p0/21, p1/20} becomes p/19-20, which
	// authorizes the p0/20 nobody announced (TestLiteralDivergesOnGappedInput).
	// Literal exists for ablation comparison.
	Literal
)

// Options configures Compress.
type Options struct {
	Mode Mode

	// Subsumption additionally deletes any tuple whose authorizations are
	// entirely covered by a present ancestor tuple (child.maxLength <=
	// ancestor.maxLength). Algorithm 1 only performs this deletion for
	// sibling pairs during merging; the standalone pass is strictly
	// semantics-preserving and yields extra compression on inputs with
	// redundant tuples. Off by default to match the paper.
	Subsumption bool
}

// Result reports what a compression run did.
type Result struct {
	In, Out  int // tuple counts before and after
	Merged   int // child tuples deleted by parent maxLength absorption
	Subsumed int // tuples deleted by the optional subsumption pass
	Raised   int // parents whose maxLength was raised
	Groups   int // number of (AS, family) groups processed
}

// SavedFraction returns the compression rate (1 - Out/In), the paper's
// headline metric (15.90% for the 6/1/2017 status quo).
func (r Result) SavedFraction() float64 {
	if r.In == 0 {
		return 0
	}
	return 1 - float64(r.Out)/float64(r.In)
}

// Compress is the package's main entry point — the compress_roas utility of
// §7. It rewrites the VRP set into an equivalent set that uses maxLength,
// returning the new set and run statistics. The input set is not modified.
//
// With Options.Mode == Strict (default) the output authorizes exactly the
// same routes as the input: in particular, compressing a minimal ROA set
// yields a minimal ROA set ("This 'compressed' ROA is still minimal", §7).
//
// No trie is built and the input is read once: a Set's canonical order is
// the pre-order of each (AS, family) group's trie, so Algorithm 1 runs on
// each group's slice directly as rpki.NextGroup reads it off the list (see
// compressGroup), and the groups' outputs, appended in group order, are the
// output Set's canonical order — which the Set takes without a copy.
func Compress(s *rpki.Set, opts Options) (*rpki.Set, Result) {
	out, res := compressList(s.VRPs(), opts)
	cs := rpki.SortedSet(out)
	res.Out = cs.Len()
	return cs, res
}

// compressList runs Algorithm 1 over a list in canonical order, one (AS,
// family) group at a time, and returns what remains of it in a new slice.
// That slice is strictly ascending — each group keeps one tuple a prefix, in
// its prefixes' order, and the groups keep theirs — so Compress's Set takes
// it as it is (rpki.SortedSet) instead of sorting a copy.
func compressList(vrps []rpki.VRP, opts Options) ([]rpki.VRP, Result) {
	res := Result{In: len(vrps)}
	out := make([]rpki.VRP, 0, len(vrps))
	var stack []int32
	for rest := vrps; len(rest) > 0; res.Groups++ {
		var g rpki.OriginGroup
		g, rest = rpki.NextGroup(rest)
		out, stack = compressGroup(out, stack, g.VRPs, opts, &res)
	}
	return out, res
}

// absorbed marks, in place of a maxLength (none is above 128), a tuple its
// parent now covers; compressGroup drops marked tuples before it returns.
const absorbed = 0xFF

// compressGroup runs Algorithm 1 over one (AS, family) group, given in
// canonical order, and appends what remains of it to out, in canonical
// order. stack is scratch, returned for reuse; res accumulates the counters.
//
// "we iterate through the trie using a depth-first search (DFS). As the DFS
// backtracks through the trie we run the compression function." Canonical
// order lists a trie node before its descendants and a left subtree before
// the right one, so walking the slice backwards reaches a tuple after its
// whole subtree: the backtrack. The stack holds the roots of the finished
// subtrees still waiting for a parent, leftmost on top; those a tuple's
// prefix contains are its nearest tuples below, and the shortest under each
// branch are the paper's "direct children". A tuple absorbed by its parent is
// never looked at again: nothing above the parent can reach past it.
func compressGroup(out []rpki.VRP, stack []int32, g []rpki.VRP, opts Options, res *Result) ([]rpki.VRP, []int32) {
	start := len(out)
	// The group as its trie would hold it: of tuples for one prefix the
	// largest maxLength (the last); with Subsumption, no tuple whose
	// maxLength a kept ancestor's reaches. Kept ancestors' maxLengths grow
	// down the chain, so the nearest, on top of the stack, has the largest.
	stack = stack[:0]
	for i, v := range g {
		if i+1 < len(g) && g[i+1].Prefix == v.Prefix {
			continue
		}
		if opts.Subsumption {
			for len(stack) > 0 && !out[stack[len(stack)-1]].Prefix.Contains(v.Prefix) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && v.MaxLength <= out[stack[len(stack)-1]].MaxLength {
				res.Subsumed++
				continue
			}
			stack = append(stack, int32(len(out)))
		}
		out = append(out, v)
	}

	w := out[start:]
	stack = stack[:0]
	merged := res.Merged
	for i := len(w) - 1; i >= 0; i-- {
		n := &w[i]
		depth := n.Prefix.Len()
		var child [2]*rpki.VRP // the shortest tuple under each branch, leftmost on ties
		top := len(stack)
		for top > 0 && n.Prefix.Contains(w[stack[top-1]].Prefix) {
			top--
			c := &w[stack[top]]
			if b := c.Prefix.Bit(depth); child[b] == nil || c.Prefix.Len() < child[b].Prefix.Len() {
				child[b] = c
			}
		}
		stack = append(stack[:top], int32(i))
		l, r := child[0], child[1]
		if l == nil || r == nil {
			continue // "if node has both direct children" fails
		}
		if opts.Mode == Strict && (l.Prefix.Len() != depth+1 || r.Prefix.Len() != depth+1) {
			continue
		}
		if m := min(l.MaxLength, r.MaxLength); m > n.MaxLength {
			// "Adjust parent's maxLength to cover children."
			n.MaxLength = m
			res.Raised++
		}
		if l.MaxLength <= n.MaxLength {
			l.MaxLength = absorbed // "left child now covered by father"
			res.Merged++
		}
		if r.MaxLength <= n.MaxLength {
			r.MaxLength = absorbed
			res.Merged++
		}
	}
	if res.Merged > merged {
		kept := slices.DeleteFunc(w, func(v rpki.VRP) bool { return v.MaxLength == absorbed })
		out = out[:start+len(kept)]
	}
	return out, stack
}
