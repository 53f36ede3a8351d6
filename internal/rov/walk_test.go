package rov

import (
	"slices"
	"testing"
)

// visited is one node famIndex.walk hands over: its key and span offset.
type visited struct {
	hi, lo uint64
	plen   uint8
	off    int32
}

// walkAll walks f from idx, recording what fn is handed until it has been
// handed stop nodes (0: no limit), and returns the record and walk's result.
func walkAll(f *famIndex, idx int32, stop int) ([]visited, bool) {
	var got []visited
	done := f.walk(idx, func(i int32) bool {
		hi, lo := f.key(i)
		got = append(got, visited{hi, lo, f.nodes[i].plen, f.nodes[i].off})
		return len(got) != stop
	})
	return got, done
}

// TestWalkContract pins famIndex.walk on a hand-built path-copied snapshot: it
// hands over every node under the one it starts at — the root, nodes with
// entries, nodes with two children, across compressed edges — in pre-order,
// 0-child first, with each node's key and span offset; it passes over the
// slab's garbage; it starts at any node, one keyed past bit 64 included; and
// it stops the moment fn returns false.
func TestWalkContract(t *testing.T) {
	const b = 1 << 63 // the address's top bit, left-aligned
	f := &famIndex{root: 1, nodes: []node{
		{children: [2]int32{10, 0}, off: 1},           // 0: the dead build root
		{children: [2]int32{2, 5}},                    // 1: /0, the root: two children
		{children: [2]int32{0, 4}, off: 2, plen: 1},   // 2: 0/1, entries, one child
		{off: 5, plen: 2},                             // 3: garbage: a clone's original
		{off: 3, plen: 3},                             // 4: 96/3, entries, two bits below 0/1
		{children: [2]int32{7, 8}, plen: 2},           // 5: 192/2, two children, a bit below the root
		{plen: 2},                                     // 6: garbage: a node spliced out
		{off: 4, plen: 3},                             // 7: 192/3, entries
		{off: 6, plen: 4},                             // 8: 240/4, entries
		{off: 5, plen: 4},                             // 9: garbage
		{off: 7, plen: 1},                             // 10: garbage under the dead root
		{children: [2]int32{0, 12}, off: 8, plen: 64}, // 11: a /64 with entries
		{off: 9, plen: 65},                            // 12: its 1-child, a /65
	}}
	const hi6 = 0x20010db8 << 32
	f.wide = [][2]uint64{
		{}, {}, {}, {b >> 1, 0}, {3 << 61, 0}, {3 << 62, 0}, {b, 0}, {3 << 62, 0}, {15 << 60, 0}, {15 << 60, 0}, {}, {hi6, 0}, {hi6, b},
	}
	for i := range f.nodes {
		f.nodes[i].key = uint32(f.wide[i][0] >> 32)
	}
	whole := []visited{
		{0, 0, 0, 0},
		{0, 0, 1, 2},
		{3 << 61, 0, 3, 3},
		{3 << 62, 0, 2, 0},
		{3 << 62, 0, 3, 4},
		{15 << 60, 0, 4, 6},
	}
	got, done := walkAll(f, f.root, 0)
	if !done || !slices.Equal(got, whole) {
		t.Errorf("walk of the snapshot: %v (finished %v), want %v (finished)", got, done, whole)
	}
	got, done = walkAll(f, 5, 0)
	if !done || !slices.Equal(got, whole[3:]) {
		t.Errorf("walk from 192/2: %v (finished %v), want %v (finished)", got, done, whole[3:])
	}
	beyond := []visited{{hi6, 0, 64, 8}, {hi6, b, 65, 9}}
	got, done = walkAll(f, 11, 0)
	if !done || !slices.Equal(got, beyond) {
		t.Errorf("walk from a /64: %v (finished %v), want %v (finished)", got, done, beyond)
	}
	for stop := 1; stop <= len(whole); stop++ {
		got, done = walkAll(f, f.root, stop)
		if done || !slices.Equal(got, whole[:stop]) {
			t.Errorf("fn false at node %d: walk handed over %v (finished %v), want %v (stopped)", stop, got, done, whole[:stop])
		}
	}
}
