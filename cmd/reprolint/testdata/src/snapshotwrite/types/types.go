// Package types is reprolint testdata: it defines an annotated snapshot
// type and exercises the snapshotwrite rules that apply inside the defining
// package (construction is sanctioned; Load() results are frozen even here).
package types

import "sync/atomic"

// Table is a published snapshot.
//
//repro:immutable
type Table struct {
	Vals []int
	N    int
	S    Sub
}

// Sub is a struct held by value inside a Table: its address and its slices
// alias the snapshot, a copy of it does not.
type Sub struct {
	N  int
	Es []Elem
}

type Elem struct{ A int }

// Holder publishes tables to lock-free readers.
type Holder struct {
	Cur atomic.Pointer[Table]
}

// New returns a published table.
//
//repro:immutable
func New(n int) *Table {
	t := &Table{N: n}
	fill(t, n)
	return t
}

// fill is a sanctioned construction path: t arrives as a parameter inside
// the defining package, so writes through it are allowed.
func fill(t *Table, v int) {
	t.Vals = append(t.Vals, v)
	t.N = v
}

// badCompact shows that Load() results are frozen even in the defining
// package: a compactor must path-copy, not patch.
func badCompact(h *Holder) {
	t := h.Cur.Load()
	t.N++ // want "write through a published snapshot"
}

// goodCompact path-copies and republishes.
func goodCompact(h *Holder) {
	old := h.Cur.Load()
	nw := &Table{N: old.N + 1, Vals: append([]int(nil), old.Vals...)}
	h.Cur.Store(nw)
}

// Reader composes a Holder the way rov.LiveIndex composes rov.Table: the
// write side is a field, and a Load() reached through it is as frozen as a
// direct one.
type Reader struct {
	tab Holder
}

func badThroughComposed(r *Reader) {
	t := r.tab.Cur.Load()
	t.Vals[0] = 1 // want "write through a published snapshot"
}

// goodThroughComposed republishes through the composed holder.
func goodThroughComposed(r *Reader) {
	old := r.tab.Cur.Load()
	r.tab.Cur.Store(&Table{N: old.N, Vals: append([]int(nil), old.Vals...)})
}

var _ = badCompact
var _ = goodCompact
var _ = badThroughComposed
var _ = goodThroughComposed
