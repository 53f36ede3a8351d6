package rov

import (
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// LiveIndex is a validation table that follows an RTR feed: a Table — the
// write side, with its O(delta) path-copied updates, lock-free snapshots and
// background compaction — that validates against its current snapshot. Every
// snapshot carries the radix root the data plane reads, so a delivered table
// answers every route from the moment it is published, and nothing is derived
// behind it: no second structure, no build after a reset, no goroutine but a
// compaction's.
type LiveIndex struct {
	Table
}

// NewLiveIndex builds a live table over the set's VRPs.
func NewLiveIndex(s *rpki.Set) *LiveIndex {
	l := &LiveIndex{}
	l.cur.Store(NewIndex(s))
	return l
}

// CompactSnapshot is Snapshot: it never returns nil.
func (l *LiveIndex) CompactSnapshot() *CompactIndex { return l.Snapshot() }

// Validate classifies (p, origin) against the current table.
func (l *LiveIndex) Validate(p prefix.Prefix, origin rpki.ASN) State {
	return l.Snapshot().Validate(p, origin)
}

// ValidateBatch is Validate for a batch, all at one table version: one
// snapshot.
func (l *LiveIndex) ValidateBatch(routes []Route, dst []State) []State {
	return l.Snapshot().ValidateBatch(routes, dst)
}

// ResetTo is Table.ResetTo, but keeps none of vrps: a LiveIndex's lists are
// delivered ones, which its caller and other subscribers share.
func (l *LiveIndex) ResetTo(vrps []rpki.VRP) { l.reset(vrps, false) }
