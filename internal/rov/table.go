package rov

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/prefix"
	"repro/internal/rpki"
)

// Table is the write side of a live validation table: the VRP set an RTR feed
// maintains, held as a bit-at-a-time Index that announce and withdraw deltas
// update in O(delta · prefix bits) — never a rebuild of the full set — while
// anyone may take immutable snapshots lock-free. It is what a session keeps
// when nothing validates against it directly: an RTR client's synchronized
// table, a cache server's snapshot ring. A table that also serves the
// validation hot path is a LiveIndex, which is a Table plus the compact
// read-side structure derived from it.
//
// A table is built one way and changed one way. newIndexFromVRPs builds it —
// NewTable, ResetTo, the first full sync (an Apply into an empty table that
// withdraws nothing) and compaction — and write changes it: every other delta,
// whatever its size, and a compaction's catch-up.
//
// The trick is that the arena is append-only and snapshots are persistent
// in the functional-data-structure sense. A published *Index is never
// mutated: Apply clones the nodes on the union of the delta's paths to the
// slab tail (path copying) — each once, however many of the delta's prefixes
// share it, since what the delta cloned no reader can reach yet and it writes
// that in place, and it reads each once a pass, the delta sorted into prefix
// order (see finger) — hangs the modified terminal spans off the copies, and
// installs a new root, all in a new Index value that shares the slab
// backing arrays with its predecessor. Readers that loaded the old snapshot
// keep walking the old root over the old nodes; the atomic pointer swap
// publishes the new root with a happens-before edge over the appends.
// Superseded nodes and relocated spans become garbage in the shared slabs.
//
// When garbage outweighs live data, a background goroutine compacts, off the
// Apply path: it rebuilds an immutable snapshot's VRP stream, in pre-order,
// into fresh slabs at least the length of the ones they replace, room the
// cycle it starts path-copies into; then, under the writer lock, it catches up
// by writing Diff(rebuilt snapshot, current snapshot) and publishes the
// rebuild in the current snapshot's place, with its version and carried delta:
// the same set. Old snapshots stay intact. A table whose garbage never crosses
// the threshold never starts a goroutine.
type Table struct {
	mu  sync.Mutex // serializes writers (Apply, ResetTo, compaction publish)
	cur atomic.Pointer[Index]

	// Writer-side garbage accounting, guarded by mu: slab cells no longer
	// reachable from the *current* snapshot's roots.
	garbageNodes   int
	garbageEntries int

	// compacting marks an in-flight background compaction: at most one runs.
	// Guarded by mu.
	compacting bool

	// published, when set (LiveIndex: it keeps its view), runs under mu just
	// before nw becomes current: nw replaces the table (a build: ResetTo, the
	// first full sync) or is it with these operations written in — none for a
	// compaction.
	published func(nw *Index, replaced bool, announce, withdraw []rpki.VRP)

	// compactHook, when set (tests), runs on the compactor goroutine before
	// the rebuild — a seam to stall compaction and observe Apply continuing.
	compactHook func()
}

// NewTable builds a table over vrps (a repeated VRP counts once).
func NewTable(vrps []rpki.VRP) *Table {
	t := &Table{}
	t.cur.Store(newIndexFromVRPs(vrps, nil))
	return t
}

// Snapshot returns the current immutable index. The snapshot stays valid —
// and keeps answering with its table version — for as long as the caller
// holds it, regardless of later Apply calls.
func (t *Table) Snapshot() *Index { return t.cur.Load() }

// Len returns the number of VRPs in the current table.
func (t *Table) Len() int { return t.Snapshot().Len() }

// Apply installs one RTR delta: announced VRPs are added, withdrawn VRPs
// removed, in that order (an RTR update may announce and withdraw the same
// VRP; withdraw wins, matching the rtr.Client table semantics). Announcing
// a VRP already in the table and withdrawing one that is absent are no-ops,
// and a delta made of nothing else leaves the published snapshot in place.
//
// A delta is path-copied, whatever its size: it costs the nodes on the union
// of its prefixes' root paths — at most (len(announce)+len(withdraw)) · prefix
// bits, and 36 for eight /24s of one /21 — each cloned once and read once by
// the announces and once by the withdraws (see finger), amortized, plus a sort
// of the delta. The set size never enters: compaction runs on a background
// goroutine, so even the delta that crosses the garbage threshold pays only
// its own path-copy work. Up to the table's size that is as cheap as a
// rebuild or cheaper; a delta several times the table can cost more than a
// build would (BenchmarkLiveApplyLarge/4), and no feed sends one to a
// non-empty table: a full sync replaces it through ResetTo.
//
// The one delta that is built is the first full sync: an Apply into an empty
// table that withdraws nothing goes into fresh slabs exactly as ResetTo would
// put it there, and snapshots on either side of it share no arena lineage
// (Diff across it is exact, by the full walk).
func (t *Table) Apply(announce, withdraw []rpki.VRP) { t.apply(announce, withdraw) }

// apply is Apply, reporting whether the delta replaced the table: whether it
// was a first full sync, built. Nothing is looked up or withdrawn there, and
// the build counts a repeated VRP once.
func (t *Table) apply(announce, withdraw []rpki.VRP) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.cur.Load()
	if old.Len() == 0 && len(withdraw) == 0 && len(announce) > 0 {
		t.replace(newIndexFromVRPs(announce, nil))
		return true
	}
	t.applyDelta(old, announce, withdraw)
	return false
}

// publish makes nw current, the published hook first. Callers hold mu.
func (t *Table) publish(nw *Index, replaced bool, announce, withdraw []rpki.VRP) {
	if t.published != nil {
		t.published(nw, replaced, announce, withdraw)
	}
	t.cur.Store(nw)
}

// applyDelta is how Apply changes a table: the delta, sorted into diffOrder in
// copies of the table's own (never in the caller's slices: subscribers share
// them), is written onto the slab tail of a new snapshot sharing old's slabs;
// the snapshot is published, with the net delta from old, if anything changed,
// and the garbage left behind may start a background compaction. Callers hold
// mu.
func (t *Table) applyDelta(old *Index, announce, withdraw []rpki.VRP) {
	nw := &Index{fams: old.fams, entries: old.entries, version: versions.Add(1), parent: old.version}
	ann, wd := slices.Clone(announce), slices.Clone(withdraw)
	slices.SortFunc(ann, diffOrder)
	slices.SortFunc(wd, diffOrder)
	// The delta owns every node past the ends of old's node slabs.
	ann, wd = t.write(nw, ann, wd, [2]int32{int32(len(old.fams[0].eng.Nodes)), int32(len(old.fams[1].eng.Nodes))})
	if len(ann)+len(wd) > 0 {
		nw.announced, nw.withdrawn = cancelCommon(ann, wd)
		t.publish(nw, false, announce, withdraw)
	}
	if !t.compacting && t.needCompact(nw) {
		t.compacting = true
		go t.compact(nw, t.compactHook)
	}
}

// cancelCommon drops from ann and wd, in diffOrder, the VRPs both hold: a VRP
// the delta announced and then withdrew is absent before it and after it.
func cancelCommon(ann, wd []rpki.VRP) ([]rpki.VRP, []rpki.VRP) {
	ka, kw, i, j := 0, 0, 0, 0 // kept so far, read so far
	for i < len(ann) && j < len(wd) {
		switch c := diffOrder(ann[i], wd[j]); {
		case c < 0:
			ann[ka], ka, i = ann[i], ka+1, i+1
		case c > 0:
			wd[kw], kw, j = wd[j], kw+1, j+1
		default:
			i, j = i+1, j+1
		}
	}
	return append(ann[:ka], ann[i:]...), append(wd[:kw], wd[j:]...)
}

// ResetTo atomically replaces the table with the set of vrps (a repeated
// VRP counts once), rebuilding into fresh slabs. This is the full-sync path:
// an RTR client commits every Reset Query response through it, and a
// consumer replaces its derived table with it when deltas no longer describe
// the new one (state expired or lost across a cache restart). Readers
// holding older snapshots are unaffected — rov.Diff against one is the exact
// delta of the replacement; an in-flight background compaction of the
// replaced table discards its rebuild.
func (t *Table) ResetTo(vrps []rpki.VRP) {
	nw := newIndexFromVRPs(vrps, nil)
	t.mu.Lock()
	t.replace(nw)
	t.mu.Unlock()
}

// replace publishes nw — freshly built slabs — in place of the whole table:
// the one routine behind ResetTo and the first full sync. nw's arenas start a
// new lineage, which is how an in-flight compaction of the replaced table
// knows to discard its rebuild; the garbage counters, which described the old
// slabs, start over. Callers hold mu.
func (t *Table) replace(nw *Index) {
	t.garbageNodes, t.garbageEntries = 0, 0
	t.publish(nw, true, nil, nil)
}

// compact rebuilds src's table into fresh slabs, catches the rebuild up with
// the deltas applied while it ran, and publishes the result in the current
// snapshot's place. The build is the one NewTable makes of src's VRP stream —
// in pre-order, so a withdrawn chain is not rebuilt — but its slabs are sized
// no shorter than src's, garbage included, and a 32nd more: the room the cycle
// this starts path-copies into (see newIndexFromVRPs). It runs on its own
// goroutine and takes t.mu only for the catch-up and swap, so Apply latency
// stays bounded by the delta size throughout. src is an immutable published
// snapshot: later Applies only append past its slab bounds.
func (t *Table) compact(src *Index, hook func()) {
	if hook != nil {
		hook()
	}
	rebuilt := newIndexFromVRPs(src.AppendVRPs(nil), src)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compacting = false
	cur := t.cur.Load()
	if !src.fams[0].eng.SharedArena(&cur.fams[0].eng) {
		// The table was replaced wholesale (ResetTo, a first full sync) while
		// we rebuilt the old one: drop the rebuild. The replacement zeroed the
		// garbage accounting, which decides when a fresh compaction follows.
		return
	}
	// cur was path-copied from src, so the diff is cur's carried delta or walks
	// only the paths cloned since: the net effect of every delta the rebuild
	// predates, already in diffOrder. It goes through write as a delta does,
	// with mark 0: nothing has published the rebuild, so the catch-up owns all
	// of it and writes its nodes in place, into the room the build left.
	announce, withdraw := Diff(src, cur)
	t.garbageNodes, t.garbageEntries = 0, 0
	t.write(rebuilt, announce, withdraw, [2]int32{})
	// The rebuild holds cur's set: it takes cur's place in the version history.
	rebuilt.version, rebuilt.parent, rebuilt.announced, rebuilt.withdrawn = cur.version, cur.parent, cur.announced, cur.withdrawn
	t.publish(rebuilt, false, nil, nil)
}

// write is the one way a snapshot under construction changes: it applies ann,
// then wd — withdraw wins — through one finger a family, and returns the
// operations that changed the table, compacted in place. In diffOrder, as both
// callers give them, each pass reads the union of its paths once. mark is each
// family's end of the published node slab: what lies under it is cloned, once,
// before it is written; mark 0 writes a private copy in place.
func (t *Table) write(nw *Index, ann, wd []rpki.VRP, mark [2]int32) ([]rpki.VRP, []rpki.VRP) {
	var fg [2]finger
	for s := range fg {
		fg[s].prev, fg[s].path[0], fg[s].mark = rootPrefix(s), nw.fams[s].root, mark[s]
	}
	ops := [2][]rpki.VRP{ann, wd}
	for pass, vs := range ops {
		k := 0
		for _, v := range vs {
			if t.edit(nw, &fg[famSlot(v.Prefix.Family())], v, pass == 0) {
				vs[k], k = v, k+1
			}
		}
		ops[pass] = vs[:k]
	}
	return ops[0], ops[1]
}

// edit adds v to nw (add) or takes it out, through v's family's finger, and
// reports whether the table changed. It reads down from the finger to v's
// terminal; only if v's presence is not already what add asks does it make the
// path the delta's own from the deepest node it owns — cloning what lies under
// mark, allocating what is absent, rerooting the family if the root was
// published — and relocate the terminal's span to the entry slab's tail,
// counting the cells it leaves as garbage.
func (t *Table) edit(nw *Index, fg *finger, v rpki.VRP, add bool) bool {
	f, p := &nw.fams[famSlot(v.Prefix.Family())], v.Prefix
	e, n := &f.eng, p.Len()
	hi, lo := p.Bits()
	d := min(prefix.CommonPrefixLen(fg.prev, p), fg.valid)
	fg.prev, fg.owned = p, min(fg.owned, d+1)
	for ; d < n; d++ {
		c := e.Nodes[fg.path[d]].Children[core.AddrBit(hi, lo, d)]
		if c == core.NoChild {
			break
		}
		fg.path[d+1] = c
	}
	fg.valid = d
	var sp span
	if d == n {
		sp = e.Nodes[fg.path[n]].Val
	}
	ent := entry{maxLength: v.MaxLength, as: v.AS}
	pos := int32(slices.Index(nw.entries[sp.off:sp.off+sp.n], ent))
	if (pos >= 0) == add {
		return false // already present, or absent
	}
	for fg.owned <= d && fg.path[fg.owned] >= fg.mark {
		fg.owned++
	}
	// A node the delta made hangs only under nodes it owns, so every node read
	// past the owned ones is published: each is cloned, once.
	for ; fg.owned <= n; fg.owned++ {
		k := fg.owned
		var c int32
		if k <= d {
			c = e.Clone(fg.path[k])
			t.garbageNodes++
		} else {
			c = e.Alloc(span{})
		}
		if k == 0 {
			f.root = c
		} else {
			e.Nodes[fg.path[k-1]].Children[core.AddrBit(hi, lo, k-1)] = c
		}
		fg.path[k] = c
	}
	fg.valid = n
	// Relocate the span to the slab tail, with v appended or taken out; the old
	// span's cells become garbage (older snapshots still read them). A span
	// emptied leaves its chain as structural garbage until compaction prunes it.
	idx, off := fg.path[n], int32(len(nw.entries))
	switch {
	case add:
		nw.entries = append(nw.entries, nw.entries[sp.off:sp.off+sp.n]...)
		nw.entries = append(nw.entries, ent)
		e.Nodes[idx].Val = span{off: off, n: sp.n + 1}
		f.size++
	case sp.n == 1:
		e.Nodes[idx].Val = span{}
		f.size--
	default:
		nw.entries = append(nw.entries, nw.entries[sp.off:sp.off+pos]...)
		nw.entries = append(nw.entries, nw.entries[sp.off+pos+1:sp.off+sp.n]...)
		e.Nodes[idx].Val = span{off: off, n: sp.n - 1}
		f.size--
	}
	t.garbageEntries += int(sp.n)
	return true
}

// needCompact reports whether superseded slab cells outweigh live ones.
// The floors keep small tables from compacting on every delta.
func (t *Table) needCompact(nw *Index) bool {
	totalNodes := len(nw.fams[0].eng.Nodes) + len(nw.fams[1].eng.Nodes)
	if 2*t.garbageNodes > totalNodes && totalNodes > 1024 {
		return true
	}
	return 2*t.garbageEntries > len(nw.entries) && len(nw.entries) > 1024
}
