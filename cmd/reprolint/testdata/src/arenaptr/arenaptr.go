// Package arenaptr is reprolint testdata: true positives and true negatives
// for the arenaptr check.
package arenaptr

import (
	"repro/internal/core"
	"repro/internal/prefix"
)

type holder struct {
	ptr *core.Node[int]
}

var sink *core.Node[int]

// True positives: slab pointers that escape or span a growth call.

func escapeReturn(e *core.Engine[int]) *core.Node[int] {
	return &e.Nodes[0] // want "escapes via return"
}

func escapeField(e *core.Engine[int], h *holder) {
	h.ptr = &e.Nodes[0] // want "escapes into field ptr"
}

func escapePackageVar(e *core.Engine[int]) {
	sink = &e.Nodes[0] // want "escapes into package-level variable sink"
}

func escapeCallArg(e *core.Engine[int]) {
	consume(&e.Nodes[0]) // want "passed to a call"
}

func escapeComposite(e *core.Engine[int]) holder {
	return holder{ptr: &e.Nodes[0]} // want "stored in a composite literal"
}

func escapeChannel(e *core.Engine[int], ch chan *core.Node[int]) {
	ch <- &e.Nodes[0] // want "sent on a channel"
}

func heldAcrossGrowth(e *core.Engine[int]) int {
	n := &e.Nodes[0] // want "held across a slab-growing call"
	e.Alloc(7)
	return n.Val
}

func capturedByClosure(e *core.Engine[int]) func() int {
	n := &e.Nodes[0]
	return func() int {
		return n.Val // want "captured by a closure"
	}
}

func heldAcrossLoopGrowth(e *core.Engine[int], vals []int) {
	n := &e.Nodes[0] // want "held across a slab-growing call"
	for _, v := range vals {
		n.Val += v
		e.Alloc(v)
	}
}

// True negatives: the sanctioned idioms.

// growThenAddress is the canonical pattern: grow first, address the result,
// use it before anything else can grow.
func growThenAddress(e *core.Engine[int]) {
	n := &e.Nodes[e.Alloc(3)]
	n.Val = 9
}

func shortLived(e *core.Engine[int]) int {
	n := &e.Nodes[0]
	n.Val++
	return n.Val
}

// indexSurvivesGrowth holds the int32 index — not a pointer — across growth.
func indexSurvivesGrowth(e *core.Engine[int]) int {
	i := e.Alloc(1)
	e.Alloc(2)
	return e.Nodes[i].Val
}

// growthBeforeBinding: the growth precedes the pointer's creation entirely.
func growthBeforeBinding(e *core.Engine[int]) int {
	e.Alloc(5)
	n := &e.Nodes[0]
	return n.Val
}

func consume(n *core.Node[int]) { _ = n }

// The compact engine shares the slab discipline: CNode pointers go stale on
// CompactEngine growth (Alloc, Init) exactly like Node pointers on Engine
// growth — and Init is growth on both: it appends node 0 to a new slab.

var csink *core.CNode[int]

func compactEscapeReturn(e *core.CompactEngine[int]) *core.CNode[int] {
	return &e.Nodes[0] // want "escapes via return"
}

func compactEscapePackageVar(e *core.CompactEngine[int]) {
	csink = &e.Nodes[0] // want "escapes into package-level variable csink"
}

func compactHeldAcrossGrowth(e *core.CompactEngine[int], p prefix.Prefix) int {
	n := &e.Nodes[0] // want "held across a slab-growing call"
	e.Alloc(0, 0, 0, 7)
	return n.Val
}

func compactHeldAcrossInit(e *core.CompactEngine[int]) int {
	n := &e.Nodes[0] // want "held across a slab-growing call"
	e.Init(8, 0)
	return n.Val
}

func heldAcrossInit(e *core.Engine[int]) int {
	n := &e.Nodes[0] // want "held across a slab-growing call"
	e.Init(8, 0)
	return n.Val
}

// Sanctioned: grow first, address the result, use before the next growth.
func compactGrowThenAddress(e *core.CompactEngine[int], p prefix.Prefix) {
	n := &e.Nodes[e.Alloc(0, 0, 0, 3)]
	n.Val = 9
}

// Sanctioned: the int32 index survives growth; re-index afterwards.
func compactIndexSurvivesGrowth(e *core.CompactEngine[int], p, q prefix.Prefix) int {
	i := e.Alloc(0, 0, 0, 1)
	e.Alloc(0, 0, 0, 2)
	return e.Nodes[i].Val
}

// Aliases carry the pointer: the window spans every alias, and an alias
// escapes like the pointer it was bound from.

func aliasHeldAcrossGrowth(e *core.Engine[int]) int {
	p := &e.Nodes[0] // want "held across a slab-growing call"
	q := p
	e.Alloc(7)
	return q.Val
}

func fieldAddrHeldAcrossGrowth(e *core.Engine[int]) int {
	v := &e.Nodes[0].Val // want "held across a slab-growing call"
	e.Alloc(7)
	return *v
}

func aliasEscapesViaReturn(e *core.Engine[int]) *core.Node[int] {
	p := &e.Nodes[0]
	q := p
	return q // want "escapes via return"
}

// Growth is whatever reaches an append to a node slab: a helper in this
// file, a method reached through an interface, and a method of a local
// wrapper the linter has never heard of.

func grow(e *core.Engine[int]) { e.Alloc(1) }

type grower interface {
	growBy(e *core.Engine[int], n int)
}

type allocGrower struct{}

func (allocGrower) growBy(e *core.Engine[int], n int) { e.Alloc(n) }

type wrapper struct{ nodes []core.Node[int] }

func (w *wrapper) push(v int) { w.nodes = append(w.nodes, core.Node[int]{Val: v}) }

func heldAcrossHelperGrowth(e *core.Engine[int]) int {
	n := &e.Nodes[0] // want "call to arenaptr.grow at"
	grow(e)
	return n.Val
}

func heldAcrossInterfaceGrowth(e *core.Engine[int], g grower) int {
	n := &e.Nodes[0] // want "via (arenaptr.allocGrower).growBy → (*core.Engine[V]).Alloc"
	g.growBy(e, 1)
	return n.Val
}

func heldAcrossWrapperGrowth(w *wrapper) int {
	n := &w.nodes[0] // want "call to (*arenaptr.wrapper).push"
	w.push(1)
	return n.Val
}

// True negatives: a value copied out of the node is a copy; a helper that only
// reads grows nothing; growth inside a helper that then binds its own pointer
// is the grow-then-address idiom one call down.

func valueCopySurvivesGrowth(e *core.Engine[int]) int {
	n := &e.Nodes[0]
	v := n.Val
	e.Alloc(1)
	return v
}

func peek(e *core.Engine[int]) int { return e.Nodes[0].Val }

func heldAcrossReadOnlyHelper(e *core.Engine[int]) int {
	n := &e.Nodes[0]
	peek(e)
	return n.Val
}

func growThenBind(e *core.Engine[int]) int {
	grow(e)
	n := &e.Nodes[0]
	return n.Val
}

func helperGrowsBeforeBinding(e *core.Engine[int]) int {
	return growThenBind(e) + growThenBind(e)
}
