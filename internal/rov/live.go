package rov

import (
	"sync/atomic"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// LiveIndex is a validation table that follows an RTR feed: a Table — the
// write side, with its O(delta) path-copied updates, lock-free snapshots and
// background compaction — plus the read side a router's data plane wants, a
// CompactIndex serving Validate at a fraction of the bit trie's latency.
//
// The compact structure is derived, never updated: it is built for one exact
// table version, each time the Table publishes freshly built slabs that no
// delta has touched yet — NewLiveIndex, ResetTo and a bulk Apply
// synchronously, a compaction on the compactor goroutine once it has run
// quiescent. A path-copied delta publishes its bit-trie snapshot immediately
// and leaves the compact half behind; readers take the compact structure
// when it describes the current version and the bit trie otherwise — the
// fallback between compactions is the bit trie, never a stall. Seeding with
// an empty set and applying the first full sync as one announce delta is
// the same work as NewLiveIndex over that sync: one index build and one
// compact build.
type LiveIndex struct {
	tab Table
	// compact pairs the compact structure with the snapshot it was built
	// from; it is current only while that snapshot still is the table's.
	compact atomic.Pointer[compactOf]

	// compactBuilds counts published compact snapshots (tests read it under
	// tab.mu to assert the compact half actually cycles).
	compactBuilds int
}

// compactOf is one derived read-side structure and the exact table version
// it describes.
type compactOf struct {
	ix *Index
	c  *CompactIndex
}

// NewLiveIndex builds a live table over the set's VRPs, compact snapshot
// included.
func NewLiveIndex(s *rpki.Set) *LiveIndex {
	l := &LiveIndex{}
	l.tab.rebuilt = l.publishCompact
	l.tab.cur.Store(NewIndex(s))
	l.publishCompact()
	return l
}

// Snapshot returns the current immutable index. The snapshot stays valid —
// and keeps answering with its table version — for as long as the caller
// holds it, regardless of later Apply calls.
//
//repro:immutable
func (l *LiveIndex) Snapshot() *Index { return l.tab.Snapshot() }

// CompactSnapshot returns the compact index of the current table version, or
// nil when the current version has deltas the last compact build predates —
// the caller falls back to Snapshot (LiveIndex.Validate does exactly that).
// Like Snapshot, the returned value is immutable and stays valid regardless
// of later Apply calls.
//
//repro:immutable
func (l *LiveIndex) CompactSnapshot() *CompactIndex {
	_, c := l.view()
	return c
}

// view returns the current snapshot and, when one was built for exactly that
// snapshot, its compact structure (nil otherwise).
func (l *LiveIndex) view() (*Index, *CompactIndex) {
	ix := l.tab.cur.Load()
	if d := l.compact.Load(); d != nil && d.ix == ix {
		return ix, d.c
	}
	return ix, nil
}

// Len returns the number of VRPs in the current table.
func (l *LiveIndex) Len() int { return l.tab.Len() }

// Validate classifies (p, origin) against the current table, through the
// compact structure when the current version carries one.
func (l *LiveIndex) Validate(p prefix.Prefix, origin rpki.ASN) State {
	ix, c := l.view()
	if c != nil {
		return c.Validate(p, origin)
	}
	return ix.Validate(p, origin)
}

// ValidateBatch classifies a batch against one consistent table version,
// through the compact structure when the current version carries one.
func (l *LiveIndex) ValidateBatch(routes []Route, dst []State) []State {
	ix, c := l.view()
	if c != nil {
		return c.ValidateBatch(routes, dst)
	}
	return ix.ValidateBatch(routes, dst)
}

// Apply installs one RTR delta with Table.Apply's semantics and costs. A
// path-copied delta leaves the compact half describing the pre-delta table,
// so it is dropped — readers fall back to the bit trie until the next
// compaction re-derives it; a delta that publishes nothing keeps the
// snapshot, and with it the compact half; a bulk delta rebuilds both.
func (l *LiveIndex) Apply(announce, withdraw []rpki.VRP) {
	l.tab.Apply(announce, withdraw)
	if d := l.compact.Load(); d != nil && d.ix != l.tab.cur.Load() {
		// Unless the compactor has installed a newer one meanwhile.
		l.compact.CompareAndSwap(d, nil)
	}
}

// ResetTo atomically replaces the table with the set of vrps, as
// Table.ResetTo does, and returns with the compact half rebuilt.
func (l *LiveIndex) ResetTo(vrps []rpki.VRP) { l.tab.ResetTo(vrps) }

// compactPublishAttempts bounds publishCompact's build-and-install loop: each
// failed attempt means a delta landed during the O(live set) build, so under
// sustained churn the builder gives up rather than chase the writer — the
// next compaction (or quiescence) tries again. Readers lose nothing but the
// fast path; the bit trie keeps serving.
const compactPublishAttempts = 3

// publishCompact builds a CompactIndex for the currently published table
// version and installs it — unless the version moved while the build ran, in
// which case it retries on the new version, a bounded number of times. It is
// the Table's rebuilt hook. The build runs outside tab.mu (it is O(live
// set)); only the compare-and-install takes the writer lock, so Apply
// latency is unaffected.
func (l *LiveIndex) publishCompact() {
	for attempt := 0; attempt < compactPublishAttempts; attempt++ {
		ix, c := l.view()
		if c != nil {
			return
		}
		c = CompactFromIndex(ix)
		l.tab.mu.Lock()
		if l.tab.cur.Load() == ix {
			l.compact.Store(&compactOf{ix: ix, c: c})
			l.compactBuilds++
			l.tab.mu.Unlock()
			return
		}
		l.tab.mu.Unlock()
	}
}
