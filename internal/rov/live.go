package rov

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// LiveIndex is a validation table that follows an RTR feed: announce and
// withdraw deltas apply in O(delta · prefix bits) — never a rebuild of the
// full set — while readers validate lock-free against immutable snapshots.
//
// The trick is that the arena is append-only and snapshots are persistent
// in the functional-data-structure sense. A published *Index is never
// mutated: Apply clones the nodes along each touched path to the slab tail
// (path copying), hangs the modified terminal span off the copies, and
// installs a new root, all in a new Index value that shares the slab
// backing arrays with its predecessor. Readers that loaded the old snapshot
// keep walking the old root over the old nodes; the atomic pointer swap
// publishes the new root with a happens-before edge over the appends.
// Superseded nodes and relocated spans become garbage in the shared slabs.
//
// When garbage outweighs live data, a background goroutine compacts:
// it rebuilds the live set into fresh slabs from an immutable snapshot —
// off the Apply path, so no delta ever pays the O(live set) rebuild in its
// latency — then replays the deltas that arrived during the rebuild and
// publishes through the same snapshot swap. Old snapshots stay intact.
//
// The published state is a view pairing two structures over the same table:
// the bit-at-a-time Index (always present — it is what deltas path-copy
// into) and, when the table has been quiescent long enough for a build to
// land, a CompactIndex serving the hot read path at a fraction of the
// latency. Deltas publish a bit-trie-only view immediately; each compaction
// (and NewLiveIndex/ResetTo, synchronously) re-derives the compact half.
// Readers take whichever the current view carries — the fallback between
// compactions is the bit trie, never a stall.
type LiveIndex struct {
	mu  sync.Mutex // serializes writers (Apply, ResetTo, compaction publish)
	cur atomic.Pointer[view]

	// Writer-side garbage accounting, guarded by mu: slab cells no longer
	// reachable from the *current* snapshot's roots.
	garbageNodes   int
	garbageEntries int

	// compacting marks an in-flight background compaction; while it is set,
	// Apply records each delta operation in the pending log so the
	// compactor can replay the updates its rebuild snapshot predates. The
	// log is one flat buffer with capacity reused across compactions, so
	// steady-state logging allocates nothing. Guarded by mu.
	compacting bool
	pending    []pendingOp
	// pendingLimit bounds the replay log (0 means maxPendingOps). When churn
	// outpaces the rebuild and the log hits the limit, Apply aborts the
	// compaction — gen++ makes the compactor discard its stale rebuild —
	// and the garbage counters, left intact, retrigger a fresh compaction
	// from a newer snapshot once the aborted one drains. Without the bound,
	// sustained churn (replayed MRT update streams) grows the log without
	// limit while the rebuild keeps falling further behind.
	pendingLimit  int
	compactAborts int
	// gen is bumped by ResetTo and by a replay-log-overflow abort; a
	// compaction that started against an older generation discards its
	// rebuild instead of resurrecting replaced (or stale) data.
	gen uint64

	// compactBuilds counts published compact snapshots (tests read it under
	// mu to assert the compact half actually cycles).
	compactBuilds int

	// compactHook, when set (tests), runs on the compactor goroutine before
	// the rebuild — a seam to stall compaction and observe Apply continuing.
	compactHook func()
}

// view is one published table version: the delta-updatable bit trie, always,
// and the compact read-path structure when one has been built for exactly
// this version (nil between a delta and the next compaction). The Index is
// embedded by value so publishing a delta costs one allocation, not two;
// Snapshot hands out interior pointers, which keep the whole view alive.
//
//repro:immutable
type view struct {
	bit     Index
	compact *CompactIndex
}

// pendingOp is one delta operation recorded for replay onto a compacted
// rebuild, in application order (an Apply's announces precede its
// withdraws, so announce+withdraw of one VRP nets to the withdraw).
type pendingOp struct {
	v        rpki.VRP
	announce bool
}

// maxPendingOps is the default replay-log bound: past it, a compaction is
// abandoned rather than chased (see LiveIndex.pendingLimit).
const maxPendingOps = 1 << 16

// NewLiveIndex builds a live table over the set's VRPs, compact snapshot
// included. Seeding with an empty set and applying the first full sync as
// one announce delta is equally valid.
func NewLiveIndex(s *rpki.Set) *LiveIndex {
	l := &LiveIndex{}
	l.cur.Store(&view{bit: *NewIndex(s), compact: NewCompactIndex(s)})
	l.compactBuilds++
	return l
}

// Snapshot returns the current immutable index. The snapshot stays valid —
// and keeps answering with its table version — for as long as the caller
// holds it, regardless of later Apply calls.
//
//repro:immutable
func (l *LiveIndex) Snapshot() *Index { return &l.cur.Load().bit }

// CompactSnapshot returns the compact index of the current table version, or
// nil when the current version has deltas the last compact build predates —
// the caller falls back to Snapshot (LiveIndex.Validate does exactly that).
// Like Snapshot, the returned value is immutable and stays valid regardless
// of later Apply calls.
//
//repro:immutable
func (l *LiveIndex) CompactSnapshot() *CompactIndex { return l.cur.Load().compact }

// Len returns the number of VRPs in the current table.
func (l *LiveIndex) Len() int { return l.Snapshot().Len() }

// Validate classifies (p, origin) against the current table, through the
// compact structure when the current version carries one.
func (l *LiveIndex) Validate(p prefix.Prefix, origin rpki.ASN) State {
	v := l.cur.Load()
	if v.compact != nil {
		return v.compact.Validate(p, origin)
	}
	return v.bit.Validate(p, origin)
}

// ValidateBatch classifies a batch against one consistent table version,
// through the compact structure when the current version carries one.
func (l *LiveIndex) ValidateBatch(routes []Route, dst []State) []State {
	v := l.cur.Load()
	if v.compact != nil {
		return v.compact.ValidateBatch(routes, dst)
	}
	return v.bit.ValidateBatch(routes, dst)
}

// Apply installs one RTR delta: announced VRPs are added, withdrawn VRPs
// removed, in that order (an RTR update may announce and withdraw the same
// VRP; withdraw wins, matching the rtr.Client table semantics). Announcing
// a VRP already in the table and withdrawing one that is absent are no-ops.
// The cost is O((len(announce)+len(withdraw)) · prefix bits) amortized; the
// set size never enters — compaction runs on a background goroutine, so
// even the delta that crosses the garbage threshold pays only its own
// path-copy work.
func (l *LiveIndex) Apply(announce, withdraw []rpki.VRP) {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := &l.cur.Load().bit
	vw := &view{bit: Index{fams: old.fams, entries: old.entries, size: old.size}}
	nw := &vw.bit
	changed := false
	for _, v := range announce {
		if l.announce(nw, v) {
			changed = true
		}
	}
	for _, v := range withdraw {
		if l.withdraw(nw, v) {
			changed = true
		}
	}
	if changed {
		// The compact half of the view describes the pre-delta table; the
		// next compaction re-derives it. Readers fall back to the bit trie
		// in between. A delta that nets to nothing keeps the old view — and
		// with it any compact snapshot — intact.
		l.cur.Store(vw)
	}
	switch {
	case l.compacting:
		// A compaction is rebuilding from a snapshot that predates this
		// delta: record it (copied — the caller owns the slices) so the
		// compactor can replay it onto the rebuild before publishing.
		for _, v := range announce {
			l.pending = append(l.pending, pendingOp{v: v, announce: true})
		}
		for _, v := range withdraw {
			l.pending = append(l.pending, pendingOp{v: v})
		}
		limit := l.pendingLimit
		if limit <= 0 {
			limit = maxPendingOps
		}
		if len(l.pending) > limit {
			// Churn has outpaced the rebuild: abort and retry rather than
			// let the log grow without bound. The gen bump makes the
			// in-flight compactor discard its rebuild; the garbage counters
			// stay up, so once it drains, the next Apply starts a fresh
			// compaction from a snapshot that already includes this churn.
			l.gen++
			l.compactAborts++
			l.resetPending()
		}
	case l.needCompact(nw):
		l.compacting = true
		go l.compact(nw, l.gen, l.compactHook)
	}
}

// ResetTo atomically replaces the table with the set of vrps (a repeated
// VRP counts once), rebuilding into fresh slabs. This is the full-sync path:
// an RTR client commits every Reset Query response through it, and a
// consumer replaces its derived table with it when deltas no longer describe
// the new one (state expired or lost across a cache restart). Readers
// holding older snapshots are unaffected — rov.Diff against one is the exact
// delta of the replacement; an in-flight background compaction of the
// replaced table discards its rebuild.
func (l *LiveIndex) ResetTo(vrps []rpki.VRP) {
	nw := newIndexFromVRPs(vrps)
	cpt := CompactFromIndex(nw)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen++
	l.resetPending()
	l.garbageNodes, l.garbageEntries = 0, 0
	l.cur.Store(&view{bit: *nw, compact: cpt})
	l.compactBuilds++
}

// resetPending empties the replay log, keeping moderate capacity for reuse
// (the point of the flat buffer: steady-state logging allocates nothing)
// but releasing outsized buffers left by a churn burst. Callers hold mu.
func (l *LiveIndex) resetPending() {
	const keep = 1 << 16
	if cap(l.pending) > keep {
		l.pending = nil
	} else {
		l.pending = l.pending[:0]
	}
}

// compact rebuilds the live set of src into fresh slabs, replays the deltas
// applied while the rebuild ran, and publishes the result. It runs on its
// own goroutine and takes l.mu only for the final replay-and-swap, so Apply
// latency stays bounded by the delta size throughout. src is an immutable
// published snapshot: later Applies only append past its slab bounds.
func (l *LiveIndex) compact(src *Index, gen uint64, hook func()) {
	if hook != nil {
		hook()
	}
	rebuilt := newIndexFromVRPs(src.AppendVRPs(make([]rpki.VRP, 0, src.size)))
	l.mu.Lock()
	l.compacting = false
	if l.gen != gen {
		// ResetTo replaced the table while we rebuilt the old one, or the
		// replay log overflowed and Apply aborted us: either way the rebuild
		// is stale. Drop it; the garbage accounting (zeroed by ResetTo, left
		// intact by an abort) decides whether a fresh compaction follows.
		l.resetPending()
		l.mu.Unlock()
		return
	}
	l.garbageNodes, l.garbageEntries = 0, 0
	// Replay the net effect, not the op stream: for one VRP the last
	// recorded op decides presence (announce and withdraw are both
	// idempotent state-setters), and ops on distinct VRPs commute, so a
	// churn burst that announced and withdrew the same VRP many times
	// collapses to a single op instead of double-applying the whole window.
	quiet := len(l.pending) == 0
	if !quiet {
		last := make(map[rpki.VRP]bool, len(l.pending))
		for _, op := range l.pending {
			last[op.v] = op.announce
		}
		for v, ann := range last {
			if ann {
				l.announce(rebuilt, v)
			} else {
				l.withdraw(rebuilt, v)
			}
		}
	}
	l.resetPending()
	l.cur.Store(&view{bit: *rebuilt})
	l.mu.Unlock()
	// Still on the compactor goroutine, off every Apply path: derive the
	// compact read structure for the version just published — but only after
	// a rebuild no delta raced with. A delta during the rebuild means the
	// writer is churning, and a compact build for this version would be
	// invalidated before it lands; the bit trie serves until a compaction
	// runs quiescent.
	if quiet {
		l.publishCompact()
	}
}

// compactPublishAttempts bounds publishCompact's build-and-install loop: each
// failed attempt means a delta landed during the O(live set) build, so under
// sustained churn the compactor gives up rather than chase the writer — the
// next compaction (or quiescence) tries again. Readers lose nothing but the
// fast path; the bit trie keeps serving.
const compactPublishAttempts = 3

// publishCompact builds a CompactIndex for the currently published table
// version and installs it into the view — unless the version moved while the
// build ran, in which case it retries on the new version, a bounded number of
// times. The build runs outside mu (it is O(live set)); only the
// compare-and-install takes the writer lock, so Apply latency is unaffected.
func (l *LiveIndex) publishCompact() {
	for attempt := 0; attempt < compactPublishAttempts; attempt++ {
		v := l.cur.Load()
		if v.compact != nil {
			return
		}
		c := CompactFromIndex(&v.bit)
		l.mu.Lock()
		if l.cur.Load() == v {
			l.cur.Store(&view{bit: v.bit, compact: c})
			l.compactBuilds++
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
	}
}

// announce adds one VRP to the in-construction snapshot, reporting whether
// the table changed (false: the VRP was already present).
func (l *LiveIndex) announce(nw *Index, v rpki.VRP) bool {
	f := &nw.fams[famSlot(v.Prefix.Family())]
	e := entry{maxLength: v.MaxLength, as: v.AS}
	if idx := f.eng.PathFind(f.root, v.Prefix); idx >= 0 {
		sp := f.eng.Nodes[idx].Val
		for _, have := range nw.entries[sp.off : sp.off+sp.n] {
			if have == e {
				return false // already in the table
			}
		}
	}
	idx := l.pathCopy(f, v.Prefix)
	sp := f.eng.Nodes[idx].Val
	// Relocate the span to the slab tail with the new entry appended; the
	// old span cells become garbage (still read by older snapshots).
	off := int32(len(nw.entries))
	nw.entries = append(nw.entries, nw.entries[sp.off:sp.off+sp.n]...)
	nw.entries = append(nw.entries, e)
	f.eng.Nodes[idx].Val = span{off: off, n: sp.n + 1}
	l.garbageEntries += int(sp.n)
	nw.size++
	return true
}

// withdraw removes one VRP from the in-construction snapshot, reporting
// whether the table changed (false: the VRP was absent).
func (l *LiveIndex) withdraw(nw *Index, v rpki.VRP) bool {
	f := &nw.fams[famSlot(v.Prefix.Family())]
	idx := f.eng.PathFind(f.root, v.Prefix)
	if idx < 0 {
		return false
	}
	sp := f.eng.Nodes[idx].Val
	e := entry{maxLength: v.MaxLength, as: v.AS}
	pos := int32(-1)
	for i, have := range nw.entries[sp.off : sp.off+sp.n] {
		if have == e {
			pos = int32(i)
			break
		}
	}
	if pos < 0 {
		return false // not in the table
	}
	nidx := l.pathCopy(f, v.Prefix)
	if sp.n == 1 {
		// Span emptied. The node chain stays as structural garbage until
		// compaction prunes it.
		f.eng.Nodes[nidx].Val = span{}
	} else {
		off := int32(len(nw.entries))
		nw.entries = append(nw.entries, nw.entries[sp.off:sp.off+pos]...)
		nw.entries = append(nw.entries, nw.entries[sp.off+pos+1:sp.off+sp.n]...)
		f.eng.Nodes[nidx].Val = span{off: off, n: sp.n - 1}
	}
	l.garbageEntries += int(sp.n)
	nw.size--
	return true
}

// pathCopy clones the nodes along p's path — creating the ones that do not
// exist — onto the slab tail, reroots the family at the cloned root, and
// returns the new terminal's index. Nothing reachable from any published
// snapshot is written.
func (l *LiveIndex) pathCopy(f *famIndex, p prefix.Prefix) int32 {
	e := &f.eng
	cur := e.Clone(f.root)
	l.garbageNodes++
	f.root = cur
	for depth := uint8(0); depth < p.Len(); depth++ {
		bit := p.Bit(depth)
		var next int32
		if c := e.Nodes[cur].Children[bit]; c != core.NoChild {
			next = e.Clone(c)
			l.garbageNodes++
		} else {
			next = e.Alloc(span{})
		}
		e.Nodes[cur].Children[bit] = next
		cur = next
	}
	return cur
}

// needCompact reports whether superseded slab cells outweigh live ones.
// The floors keep small tables from compacting on every delta.
func (l *LiveIndex) needCompact(nw *Index) bool {
	totalNodes := len(nw.fams[0].eng.Nodes) + len(nw.fams[1].eng.Nodes)
	if 2*l.garbageNodes > totalNodes && totalNodes > 1024 {
		return true
	}
	return 2*l.garbageEntries > len(nw.entries) && len(nw.entries) > 1024
}
