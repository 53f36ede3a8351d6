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
// Apply path: it copies an immutable snapshot's live nodes and spans in
// pre-order into fresh slabs the size of the ones they replace, room the cycle
// it starts path-copies into; then, under the writer lock, it catches up by
// applying Diff(copied snapshot, current snapshot) and publishes the copy in
// the current snapshot's place, with its version and carried delta: the same
// set. Old snapshots stay intact. A table whose garbage never crosses the
// threshold never starts a goroutine.
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
	// before nw becomes current: nw replaces the table (ResetTo, a bulk Apply)
	// or is it with these operations path-copied in — none for a compaction.
	published func(nw *Index, replaced bool, announce, withdraw []rpki.VRP)

	// compactHook, when set (tests), runs on the compactor goroutine before
	// the rebuild — a seam to stall compaction and observe Apply continuing.
	compactHook func()
}

// bulkDivisor sets where a delta stops being path-copied and the table is
// rebuilt instead: an Apply of at least size/bulkDivisor operations (announces
// plus withdraws, against the current table size). Path copying costs a delta
// the union of its paths in cloned nodes — 0.36 µs and 5.3 nodes of garbage an
// operation in a 525-operation delta into today's 33,615 VRPs — and a build
// costs 0.17–0.22 µs a VRP of table plus delta (0.09 µs when all of it is in
// pre-order, as a first full sync is), once. BenchmarkLiveApplyBulk (one P,
// delta ÷ table swept from 1/64 to 4, compaction waited out; medians of three
// alternated runs): path copy 4.1 against a build's 9.8 ms at 1/3, 5.4
// against 11.7 at 1/2, 12.5 against 15.0 at 1, 63.1 against 47.9 at 4, where
// the delta's relocated entry cells outweigh the live ones and start a
// compaction. Path copying is the cheaper side up to the table's size, and the
// constant still stays at 2: a build also lays the slab out in pre-order,
// which every later walk reads, and no workload measures the mid-size resync
// into a carried table that a larger divisor would move.
const bulkDivisor = 2

// NewTable builds a table over vrps (a repeated VRP counts once).
func NewTable(vrps []rpki.VRP) *Table {
	t := &Table{}
	t.cur.Store(newIndexFromVRPs(vrps))
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
// A delta small against the table is path-copied: it costs the nodes on the
// union of its prefixes' root paths — at most (len(announce)+len(withdraw)) ·
// prefix bits, and 36 for eight /24s of one /21 — each cloned once and read
// once by the announces and once by the withdraws (see finger), amortized,
// plus a sort of the delta. The set size
// never enters: compaction runs on a background goroutine, so even the delta
// that crosses the garbage threshold pays only its own path-copy work.
// A delta of at least half the table's size (bulkDivisor) — the first full
// sync into an empty table above all — is a build instead: the
// resulting set goes into fresh slabs exactly as ResetTo would put it there
// — unless it equals the table, and then nothing is published — and
// snapshots on either side of it share no arena lineage (Diff across it is
// exact, by the full walk).
func (t *Table) Apply(announce, withdraw []rpki.VRP) { t.apply(announce, withdraw) }

// apply is Apply, reporting whether the delta replaced the table.
func (t *Table) apply(announce, withdraw []rpki.VRP) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.cur.Load()
	if ops := len(announce) + len(withdraw); ops > 0 && ops*bulkDivisor >= old.Len() {
		return t.applyBulk(old, announce, withdraw)
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

// applyBulk is Apply's build path: the table old ∪ announce ∖ withdraw goes
// into fresh slabs and replaces old's, unless the delta nets to nothing. It
// reports whether it published. Callers hold mu.
func (t *Table) applyBulk(old *Index, announce, withdraw []rpki.VRP) bool {
	if old.Len() == 0 && len(withdraw) == 0 {
		// A first full sync: nothing to keep or look up; the build dedups.
		nw := newIndexFromVRPs(announce)
		if nw.Len() > 0 {
			t.replace(nw)
		}
		return nw.Len() > 0
	}
	gone := make(map[rpki.VRP]struct{}, len(withdraw))
	for _, v := range withdraw {
		gone[v] = struct{}{}
	}
	next := old.AppendVRPs(make([]rpki.VRP, 0, old.Len()+len(announce)))
	if len(gone) > 0 {
		next = slices.DeleteFunc(next, func(v rpki.VRP) bool { _, ok := gone[v]; return ok })
	}
	changed := len(next) != old.Len()
	for _, v := range announce {
		if _, ok := gone[v]; ok || old.has(v) {
			continue // withdraw wins; already present
		}
		next = append(next, v) // a repeat within announce is dropped by the build
		changed = true
	}
	if changed {
		t.replace(newIndexFromVRPs(next))
	}
	return changed
}

// applyDelta is Apply's path-copy path: the delta, sorted into diffOrder in
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
	nw := newIndexFromVRPs(vrps)
	t.mu.Lock()
	t.replace(nw)
	t.mu.Unlock()
}

// replace publishes nw — freshly built slabs — in place of the whole table:
// the one routine behind ResetTo and applyBulk. nw's arenas start a new
// lineage, which is how an in-flight compaction of the replaced table knows
// to discard its rebuild; the garbage counters, which described the old
// slabs, start over. Callers hold mu.
func (t *Table) replace(nw *Index) {
	t.garbageNodes, t.garbageEntries = 0, 0
	t.publish(nw, true, nil, nil)
}

// compact copies the live set of src into fresh slabs, catches the copy up
// with the deltas applied while it ran, and publishes the result in the
// current snapshot's place. It runs on its own goroutine and takes t.mu only
// for the catch-up and swap, so Apply latency stays bounded by the delta size
// throughout. src is an immutable published snapshot: later Applies only
// append past its slab bounds.
func (t *Table) compact(src *Index, hook func()) {
	if hook != nil {
		hook()
	}
	rebuilt := liveCopy(src)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.compacting = false
	cur := t.cur.Load()
	if !src.fams[0].eng.SharedArena(&cur.fams[0].eng) {
		// The table was replaced wholesale (ResetTo, a bulk Apply) while we
		// rebuilt the old one: drop the rebuild. The replacement zeroed the
		// garbage accounting, which decides when a fresh compaction follows.
		return
	}
	// cur was path-copied from src, so the diff is cur's carried delta or walks
	// only the paths cloned since: the net effect of every delta the copy
	// predates, already in diffOrder. It is written as a delta's is, with mark
	// 0: nothing has published rebuilt, so the catch-up owns all of it and
	// writes its nodes in place.
	announce, withdraw := Diff(src, cur)
	t.garbageNodes, t.garbageEntries = 0, 0
	t.write(rebuilt, announce, withdraw, [2]int32{})
	// The rebuild holds cur's set: it takes cur's place in the version history.
	rebuilt.version, rebuilt.parent, rebuilt.announced, rebuilt.withdrawn = cur.version, cur.parent, cur.announced, cur.withdrawn
	t.publish(rebuilt, false, nil, nil)
}

// liveCopy returns src's table in fresh slabs, node for node and entry for
// entry what newIndexFromVRPs(src.AppendVRPs(nil)) builds: one pre-order pass
// copies a node, its pending ancestors first, once a span at or below it holds
// entries, so a subtree holding none (a withdrawn chain) is dropped. The slabs
// are src's length, garbage included (≈ twice the live set when needCompact
// fires), and a 1/32 more, so the cycle this starts appends in place: at that
// length exactly, half of roa_change's cycles regrew by a quarter, and peak RSS
// rose a fifth. The copy has no version yet.
func liveCopy(src *Index) *Index {
	ix := &Index{entries: make([]entry, 0, len(src.entries)+len(src.entries)/32)}
	type frame struct {
		idx        int32
		depth, bit uint8
	}
	var (
		pending [129]frame // a second child per level of the deepest path
		copied  [129]int32 // at [d], the copy of the path's node at depth d, for d < made
		bits    [129]uint8 // at [d], the branch the path takes into depth d
	)
	for slot := range src.fams {
		from, to := &src.fams[slot], &ix.fams[slot]
		to.size = from.size
		to.eng.Init(len(from.eng.Nodes)+len(from.eng.Nodes)/32, span{})
		nodes, made, top := from.eng.Nodes, uint8(0), 0
		for at := (frame{idx: from.root}); at.idx >= 0; {
			nd := nodes[at.idx]
			made, bits[at.depth] = min(made, at.depth), at.bit
			if sp := nd.Val; sp.n > 0 || at.depth == 0 {
				for made = max(made, 1); made <= at.depth; made++ { // node 0 is the root's copy
					copied[made] = to.eng.Alloc(span{off: int32(len(ix.entries))})
					to.eng.Nodes[copied[made-1]].Children[bits[made]] = copied[made]
				}
				to.eng.Nodes[copied[at.depth]].Val = span{off: int32(len(ix.entries)), n: sp.n}
				ix.entries = append(ix.entries, src.entries[sp.off:sp.off+sp.n]...)
			}
			c0, c1 := nd.Children[0], nd.Children[1]
			if c1 != core.NoChild {
				one := frame{idx: c1, depth: at.depth + 1, bit: 1}
				if c0 == core.NoChild {
					at = one
					continue
				}
				pending[top] = one
				top++
			}
			switch {
			case c0 != core.NoChild:
				at = frame{idx: c0, depth: at.depth + 1}
			case top > 0:
				top--
				at = pending[top]
			default:
				at.idx = -1 // nothing pending: done
			}
		}
	}
	return ix
}

// has reports whether v is in the table.
func (ix *Index) has(v rpki.VRP) bool {
	f := &ix.fams[famSlot(v.Prefix.Family())]
	idx := f.eng.PathFind(f.root, v.Prefix)
	if idx < 0 {
		return false
	}
	sp := f.eng.Nodes[idx].Val
	return slices.Contains(ix.entries[sp.off:sp.off+sp.n], entry{maxLength: v.MaxLength, as: v.AS})
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
