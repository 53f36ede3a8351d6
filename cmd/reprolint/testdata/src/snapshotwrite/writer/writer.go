// Package writer is reprolint testdata: true positives and true negatives
// for the snapshotwrite check from outside the annotated type's package.
package writer

import "repro/cmd/reprolint/testdata/src/snapshotwrite/types"

// True positives: writes through published snapshots.

func writeThroughLoad(h *types.Holder) {
	t := h.Cur.Load()
	t.N = 9 // want "write through a published snapshot"
}

func writeThroughElem(h *types.Holder) {
	t := h.Cur.Load()
	t.Vals[0] = 1 // want "write through a published snapshot"
}

func writeThroughParam(t *types.Table) {
	t.N = 9 // want "write through a published snapshot"
}

func writeThroughAnnotatedFunc() {
	t := types.New(1)
	t.N++ // want "write through a published snapshot"
}

func writeThroughAlias(h *types.Holder) {
	t := h.Cur.Load()
	u := t
	u.N = 2 // want "write through a published snapshot"
}

func writeInClosure(h *types.Holder) func() {
	t := h.Cur.Load()
	return func() {
		t.N = 3 // want "write through a published snapshot"
	}
}

func addrOfFieldWrite(h *types.Holder) {
	x := h.Cur.Load()
	y := &x.S
	y.N = 3 // want "write through a published snapshot"
}

func resliceWrite(h *types.Holder) {
	x := h.Cur.Load()
	es := x.S.Es[1:]
	es[0].A = 1 // want "write through a published snapshot"
}

// True negatives: reads, rebinding, struct copies, and locally built tables.

// structCopyWrite writes to its own copy of an element.
func structCopyWrite(h *types.Holder) int {
	x := h.Cur.Load()
	e := x.S.Es[0]
	e.A = 7
	return e.A
}

func readOnly(h *types.Holder) int {
	t := h.Cur.Load()
	return t.N + len(t.Vals)
}

// rebind swaps which snapshot the variable names — allowed; only writes
// through the pointed-to value are violations. (The analyzer is
// object-keyed, so mutating a fresh Table must use a fresh variable, as
// freshTable does.)
func rebind(h, h2 *types.Holder) *types.Table {
	t := h.Cur.Load()
	t = h2.Cur.Load()
	return t
}

func freshTable() *types.Table {
	nw := &types.Table{N: 1}
	nw.Vals = append(nw.Vals, 1)
	return nw
}
