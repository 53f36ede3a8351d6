package core

import (
	"sync/atomic"

	"repro/internal/prefix"
)

// This file is the value-parameterized arena behind every bit trie in the
// repository. An Engine[V] stores a binary prefix tree as one contiguous
// slab of Node[V]: children are int32 slab indices rather than pointers, so
// building a tree costs O(log nodes) slab growths instead of one heap
// allocation per prefix bit, traversals walk cache-adjacent memory, and the
// whole structure is freed as a single object. The payload type V is chosen
// by the instantiating structure:
//
//   - Trie (this package, the tests' reference) stores {maxLength, present},
//   - rov.Index stores a {off, n} span into a parallel value slab of VRP
//     entries (per-node variable-length payloads without per-node slices).
//
// Slab index 0 is reserved: structures rooted at the slab base use it as
// their root, and structures with movable roots (rov.Table path-copies new
// roots per update) leave it as a dead placeholder. Either way node 0 is
// never anyone's child, so 0 doubles as the NoChild sentinel and freshly
// zeroed nodes are born with both children absent.

// NoChild is the nil child sentinel of an Engine slab.
const NoChild int32 = 0

// Node is one vertex of an Engine: two child slab indices and a payload.
type Node[V any] struct {
	Children [2]int32
	Val      V
}

// Engine is a contiguous-slab binary prefix tree over payload type V. The
// zero Engine is empty and unusable; call Init first.
type Engine[V any] struct {
	// Nodes is the slab. Callers index it directly on hot paths; they must
	// not reslice or reassign it.
	Nodes []Node[V]
	// lineage identifies the Init call this slab grew from (see SharedArena).
	// It travels with the engine value when a snapshot copies the struct, so
	// every snapshot of one append-only history carries the same token. The
	// slab base pointer cannot serve this purpose: append may relocate the
	// backing array between snapshots without invalidating node indices.
	lineage uint64
}

// lineageCounter hands every Init a process-unique arena lineage token.
// Token 0 is reserved for the zero Engine, which shares with nothing.
var lineageCounter atomic.Uint64

// SharedArena reports whether e and o grew from the same Init call — one
// append-only slab history. Combined with the path-copying discipline
// (updates clone onto the slab tail; a node is written only before its
// first publication, never after), it yields the subtree-identity predicate
// a structural diff needs: for two published snapshots of a shared arena,
// equal node indices refer to byte-identical subtrees, so a walker can skip
// them without descending.
func (e *Engine[V]) SharedArena(o *Engine[V]) bool {
	return e.lineage != 0 && e.lineage == o.lineage
}

// Init readies the engine with a fresh slab holding at least hint nodes
// without growing and installs the reserved node 0 carrying payload root.
func (e *Engine[V]) Init(hint int, root V) {
	e.Nodes = append(make([]Node[V], 0, hint+1), Node[V]{Val: root})
	e.lineage = lineageCounter.Add(1)
}

// Len returns the number of slab nodes, including reserved node 0.
func (e *Engine[V]) Len() int { return len(e.Nodes) }

// Alloc appends a fresh node with payload v and no children.
func (e *Engine[V]) Alloc(v V) int32 {
	idx := int32(len(e.Nodes))
	e.Nodes = append(e.Nodes, Node[V]{Val: v})
	return idx
}

// Clone appends a copy of node idx — children included — and returns the
// copy's index. rov.Table builds persistent-update paths with it, cloning a
// published node once per delta and writing the copy in place for the rest
// of that delta: the original stays valid for snapshots that still reference
// it.
func (e *Engine[V]) Clone(idx int32) int32 {
	c := int32(len(e.Nodes))
	e.Nodes = append(e.Nodes, e.Nodes[idx])
	return c
}

// Ensure returns the bit-child of idx, creating it with payload def if absent.
func (e *Engine[V]) Ensure(idx int32, bit uint8, def V) int32 {
	c := e.Nodes[idx].Children[bit]
	if c == NoChild {
		c = e.Alloc(def)
		e.Nodes[idx].Children[bit] = c
	}
	return c
}

// PathInsert walks p's bits from root, creating missing nodes with payload
// def, and returns the terminal node's index.
func (e *Engine[V]) PathInsert(root int32, p prefix.Prefix, def V) int32 {
	idx := root
	for depth := uint8(0); depth < p.Len(); depth++ {
		idx = e.Ensure(idx, p.Bit(depth), def)
	}
	return idx
}

// PathFind walks p's bits from root and returns the terminal node's index,
// or -1 when the path is absent. (NoChild cannot signal absence here: a /0
// query resolves to the root, which may itself be index 0.)
func (e *Engine[V]) PathFind(root int32, p prefix.Prefix) int32 {
	idx := root
	for depth := uint8(0); depth < p.Len(); depth++ {
		idx = e.Nodes[idx].Children[p.Bit(depth)]
		if idx == NoChild {
			return -1
		}
	}
	return idx
}

// AddrBit returns bit i (0 = most significant) of a left-aligned 128-bit
// address. Unlike Prefix.Bit it does no family bounds check: callers on hot
// paths guarantee i < MaxLen themselves.
func AddrBit(hi, lo uint64, i uint8) uint8 {
	if i < 64 {
		return uint8(hi >> (63 - i) & 1)
	}
	return uint8(lo >> (127 - i) & 1)
}

// engineFrame is one pending subtree of an iterative pre-order traversal.
type engineFrame struct {
	idx int32
	pfx prefix.Prefix
}

// Walk visits every node reachable from root in pre-order of the key space
// (canonical prefix order), calling fn with the node's slab index and its
// prefix. at is the prefix of root itself. The traversal is iterative and
// follows chains in place: it steps into a first child without touching the
// stack and pushes only a second one, so the one-child runs that make up most
// of a bit trie cost no frame, and the stack never exceeds the tree height.
func (e *Engine[V]) Walk(root int32, at prefix.Prefix, fn func(idx int32, p prefix.Prefix)) {
	stack := make([]engineFrame, 0, maxDepth+1)
	for idx, pfx := root, at; idx >= 0; {
		fn(idx, pfx)
		c0, c1 := e.Nodes[idx].Children[0], e.Nodes[idx].Children[1]
		switch {
		case c0 != NoChild:
			if c1 != NoChild {
				stack = append(stack, engineFrame{idx: c1, pfx: pfx.Child(1)})
			}
			idx, pfx = c0, pfx.Child(0)
		case c1 != NoChild:
			idx, pfx = c1, pfx.Child(1)
		case len(stack) > 0:
			idx, pfx = stack[len(stack)-1].idx, stack[len(stack)-1].pfx
			stack = stack[:len(stack)-1]
		default:
			idx = -1 // nothing pending: done
		}
	}
}

// dualFrame is one pending subtree pair of a DiffWalk traversal. An index of
// -1 marks a side on which the subtree is absent.
type dualFrame struct {
	a, b int32
	pfx  prefix.Prefix
}

// DiffWalk traverses two trees in lockstep, calling fn for every prefix whose
// node exists in either — except subtree pairs proven identical, which are
// skipped without descending. aIdx (in ea) and bIdx (in eb) are the two
// slab indices at that prefix; -1 marks the side where the node is absent.
// at is the prefix of both roots; visits arrive in canonical prefix order.
//
// The skip rule is SharedArena: when both engines carry the same lineage and
// both snapshots are published, equal indices mean byte-identical subtrees
// (path copying writes a node only before its first publication), so the
// walk touches only paths cloned between the two snapshots — O(changed ·
// prefix bits), independent of table size. Engines
// from unrelated arenas share nothing provable and get the correct-but-linear
// full dual walk — of what both hold: a subtree only one side has (a table
// against an empty one, a block one cache lacks, a newly path-copied chain)
// has nothing to be paired with and costs that side's Walk, no frame a node.
func DiffWalk[V any](ea, eb *Engine[V], rootA, rootB int32, at prefix.Prefix, fn func(aIdx, bIdx int32, p prefix.Prefix)) {
	if rootA < 0 && rootB < 0 {
		return
	}
	shared := ea.SharedArena(eb)
	if shared && rootA == rootB {
		return
	}
	onlyA := func(idx int32, p prefix.Prefix) { fn(idx, -1, p) }
	onlyB := func(idx int32, p prefix.Prefix) { fn(-1, idx, p) }
	stack := make([]dualFrame, 1, maxDepth+1)
	stack[0] = dualFrame{a: rootA, b: rootB, pfx: at}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.b < 0 {
			ea.Walk(f.a, f.pfx, onlyA)
			continue
		}
		if f.a < 0 {
			eb.Walk(f.b, f.pfx, onlyB)
			continue
		}
		fn(f.a, f.b, f.pfx)
		for bit := 1; bit >= 0; bit-- {
			ca, cb := int32(-1), int32(-1)
			if c := ea.Nodes[f.a].Children[bit]; c != NoChild {
				ca = c
			}
			if c := eb.Nodes[f.b].Children[bit]; c != NoChild {
				cb = c
			}
			if ca < 0 && cb < 0 {
				continue
			}
			if shared && ca == cb {
				continue // identical subtree on both sides
			}
			stack = append(stack, dualFrame{a: ca, b: cb, pfx: f.pfx.Child(uint8(bit))})
		}
	}
}
