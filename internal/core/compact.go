package core

import "repro/internal/prefix"

// This file is the path-compressed sibling of the bit-at-a-time Engine: the
// same contiguous-slab, int32-index discipline, but a node exists only where
// the key space actually branches or carries a payload. Each CNode stores its
// full masked key (not just the skip count), so following a compressed edge
// verifies all skipped bits with one xor-shift compare instead of a per-bit
// walk — a lookup visits O(branch points on the path) nodes, typically a
// handful, instead of O(prefix bits).
//
// Construction is different from Engine on purpose: a compact trie is the
// bit-at-a-time trie with its one-child, payload-free nodes left out, so it is
// read off one in a single pre-order walk (rov.CompactFromIndex: Alloc, then
// link under the nearest kept ancestor) and then frozen. There is no
// path-copied update — rov.LiveIndex keeps the bit-at-a-time engine for
// O(delta) updates and derives a compact structure from it again.

// CNode is one vertex of a CompactEngine: the node's full key (left-aligned
// 128-bit address plus bit length, exactly a prefix.Prefix worth of bits),
// two child slab indices, and a payload. Children are strictly deeper
// (longer PLen) than their parent; the bits between a parent's PLen and a
// child's PLen are the compressed edge, recovered from the child's key.
type CNode[V any] struct {
	Hi, Lo   uint64
	Children [2]int32
	Val      V
	PLen     uint8
}

// Key returns the node's key as a Prefix.
func (n *CNode[V]) Key(fam prefix.Family) prefix.Prefix {
	p, err := prefix.Make(fam, n.Hi, n.Lo, n.PLen)
	if err != nil {
		panic(err) // unreachable: node keys are built from valid prefixes
	}
	return p
}

// CompactEngine is a contiguous-slab path-compressed prefix tree over payload
// type V. The zero CompactEngine is empty and unusable; call Init first.
// As with Engine, slab index 0 is the root (always the /0 key) and doubles as
// the NoChild sentinel — node 0 is never anyone's child.
type CompactEngine[V any] struct {
	// Nodes is the slab. Callers index it directly on hot paths; they must
	// not reslice or reassign it.
	Nodes []CNode[V]
}

// Init readies the engine with capacity for at least hint nodes and installs
// the reserved root node 0 (key /0) carrying payload root.
func (e *CompactEngine[V]) Init(hint int, root V) {
	nodes := make([]CNode[V], 0, hint+1)
	e.Nodes = append(nodes, CNode[V]{Val: root})
}

// Alloc appends a fresh node with payload v and no children, keyed by the
// plen-bit prefix whose left-aligned address is (hi, lo) — Prefix.Bits' form,
// zero past plen.
func (e *CompactEngine[V]) Alloc(hi, lo uint64, plen uint8, v V) int32 {
	idx := int32(len(e.Nodes))
	e.Nodes = append(e.Nodes, CNode[V]{Hi: hi, Lo: lo, PLen: plen, Val: v})
	return idx
}

// Walk visits every node reachable from root in pre-order of the key space —
// canonical prefix order — calling fn with each node's slab index. The
// traversal is iterative and its stack never exceeds the tree height.
func (e *CompactEngine[V]) Walk(root int32, fn func(idx int32)) {
	stack := make([]int32, 1, maxDepth+1)
	stack[0] = root
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fn(idx)
		n := &e.Nodes[idx]
		if c := n.Children[1]; c != NoChild {
			stack = append(stack, c)
		}
		if c := n.Children[0]; c != NoChild {
			stack = append(stack, c)
		}
	}
}

// AddrBit returns bit i (0 = most significant) of a left-aligned 128-bit
// address. Unlike Prefix.Bit it does no family bounds check: callers on the
// compact hot path guarantee i < MaxLen themselves.
func AddrBit(hi, lo uint64, i uint8) uint8 {
	if i < 64 {
		return uint8(hi >> (63 - i) & 1)
	}
	return uint8(lo >> (127 - i) & 1)
}
