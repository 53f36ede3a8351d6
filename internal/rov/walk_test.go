package rov

import (
	"slices"
	"testing"
)

// visited is one node famIndex.walk hands over: its raw key and span.
type visited struct {
	hi, lo uint64
	plen   uint8
	sp     span
}

// walkAll walks f from (idx, hi, lo, plen), recording what fn is handed until
// it has been handed stop nodes (0: no limit), and returns the record and
// walk's result.
func walkAll(f *famIndex, idx int32, hi, lo uint64, plen uint8, stop int) ([]visited, bool) {
	var got []visited
	done := f.walk(idx, hi, lo, plen, func(hi, lo uint64, plen uint8, sp span) bool {
		got = append(got, visited{hi, lo, plen, sp})
		return len(got) != stop
	})
	return got, done
}

// TestWalkContract pins famIndex.walk on a hand-built path-copied snapshot: it
// hands over exactly the nodes a compact trie keeps — a node with entries or
// with two children — in pre-order, 0-child first, with each node's key and
// span; it passes over an emptied span, a dead one-child chain and the slab's
// garbage; it starts at any node and key, past bit 64 included; and it stops
// the moment fn returns false.
func TestWalkContract(t *testing.T) {
	const b = 1 << 63 // the address's top bit, left-aligned
	f := &famIndex{root: 1, nodes: []node{
		{children: [2]int32{10, 0}, val: span{0, 1}}, // 0: the dead build root
		{children: [2]int32{2, 5}},                   // 1: /0, the root: two children
		{children: [2]int32{3, 0}, val: span{1, 1}},  // 2: 0/1, entries
		{children: [2]int32{0, 4}},                   // 3: 0/2, a dead chain's head
		{val: span{2, 0}},                            // 4: 64/3, emptied: the chain's end
		{children: [2]int32{0, 6}},                   // 5: 128/1, one child
		{children: [2]int32{7, 8}},                   // 6: 192/2, two children
		{val: span{3, 2}},                            // 7: 192/3, entries
		{children: [2]int32{9, 0}, val: span{5, 0}},  // 8: 224/3, emptied, one child
		{val: span{6, 1}},                            // 9: 224/4, entries
		{val: span{7, 1}},                            // 10: garbage under the dead root
		{children: [2]int32{0, 12}, val: span{8, 1}}, // 11: a /64 with entries
		{val: span{9, 1}},                            // 12: its 1-child, a /65
	}}
	whole := []visited{
		{0, 0, 0, span{}},
		{0, 0, 1, span{1, 1}},
		{b | b>>1, 0, 2, span{}},
		{b | b>>1, 0, 3, span{3, 2}},
		{b | b>>1 | b>>2, 0, 4, span{6, 1}},
	}
	got, done := walkAll(f, f.root, 0, 0, 0, 0)
	if !done || !slices.Equal(got, whole) {
		t.Errorf("walk of the snapshot: %v (finished %v), want %v (finished)", got, done, whole)
	}
	got, done = walkAll(f, 6, b|b>>1, 0, 2, 0)
	if !done || !slices.Equal(got, whole[2:]) {
		t.Errorf("walk from 192/2: %v (finished %v), want %v (finished)", got, done, whole[2:])
	}
	const hi6 = 0x20010db8 << 32
	beyond := []visited{{hi6, 0, 64, span{8, 1}}, {hi6, b, 65, span{9, 1}}}
	got, done = walkAll(f, 11, hi6, 0, 64, 0)
	if !done || !slices.Equal(got, beyond) {
		t.Errorf("walk from a /64: %v (finished %v), want %v (finished)", got, done, beyond)
	}
	for stop := 1; stop <= len(whole); stop++ {
		got, done = walkAll(f, f.root, 0, 0, 0, stop)
		if done || !slices.Equal(got, whole[:stop]) {
			t.Errorf("fn false at node %d: walk handed over %v (finished %v), want %v (stopped)", stop, got, done, whole[:stop])
		}
	}
}
