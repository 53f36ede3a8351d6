package rov

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/rpki"
)

// Table is a live validation table: the VRP set an RTR feed maintains, held as
// an Index — a radix root over PATRICIA tries — that announce and withdraw
// deltas update in O(delta · kept nodes on a slot's path) — never a rebuild of
// the full set — while anyone may take immutable snapshots lock-free. Every
// resident table is one: an RTR client's synchronized table, a cache server's
// snapshot ring, and a router's LiveIndex, which validates against it.
//
// A table is built one way and changed one way. newIndexFromVRPs builds it,
// in the trie's pre-order, from a sorted copy if its list is out of it —
// NewTable, ResetTo, the first full sync (an Apply into an empty table that
// withdraws nothing) and compaction — and write changes it: every other delta,
// whatever its size, and a compaction's catch-up.
//
// The trick is that the slabs are append-only and snapshots persistent, by
// path copying (Driscoll, Sarnak, Sleator & Tarjan, JCSS 1989). A published
// *Index is never mutated: Apply clones the four radix pages and the nodes on
// the union of the delta's paths to the slab tails, each once and read once a
// pass (see finger), grafts and prunes nodes under the copies (see edit), hangs
// the modified spans off them and installs a new top page, all in a new Index
// value that shares the slab backing arrays with its predecessor. Readers that
// loaded the old snapshot keep walking the old pages over the old nodes; the
// atomic pointer swap publishes the new ones with a happens-before edge over
// the appends. Superseded pages and nodes and relocated spans become garbage
// in the shared slabs.
//
// When garbage crosses needCompact's ratios, a background goroutine compacts,
// off the Apply path: it rebuilds an immutable snapshot's VRP stream, in
// pre-order, into fresh slabs at least the length of the ones they replace,
// room the cycle it starts path-copies into; then, under the writer lock, it
// catches up by writing Diff(rebuilt snapshot, current snapshot) and
// publishes the rebuild in the current snapshot's place, with its version and
// carried delta: the same set. Old snapshots stay intact. A table whose
// garbage never crosses the ratios never starts a goroutine.
type Table struct {
	mu  sync.Mutex // serializes writers (Apply, ResetTo, compaction publish)
	cur atomic.Pointer[Index]

	// Writer-side garbage accounting, guarded by mu: slab cells no longer
	// reachable from the *current* snapshot's roots.
	garbageNodes   int
	garbagePages   int
	garbageEntries int

	// compacting marks an in-flight background compaction: at most one runs.
	// Guarded by mu.
	compacting bool

	// published, when set (tests), runs under mu just before nw becomes
	// current, on whichever goroutine publishes it — a seam to check every
	// snapshot.
	published func(nw *Index)

	// compactHook, when set (tests), runs on the compactor goroutine before
	// the rebuild — a seam to stall compaction and observe Apply continuing.
	compactHook func()
}

// NewTable builds a table over vrps, in any order, which it does not change
// (a repeated VRP counts once).
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
// A delta is path-copied, whatever its size: it costs four radix pages a slot
// it touches and the kept nodes on the union of its prefixes' paths in their
// tries — at most (len(announce)+len(withdraw)) · (prefix bits + 1), and 15
// nodes for eight /24s of one /21 on a 50,000-VRP table, where the trie with
// no radix root cloned 31 and a bit trie 36 — each cloned once and read once
// by the announces and once by the withdraws (see finger), amortized, plus a
// sort of the delta. The set size never enters: compaction runs on a background
// goroutine, so even the delta that crosses the garbage threshold pays only
// its own path-copy work. Up to the table's size that is as cheap as a
// rebuild or cheaper; a delta several times the table can cost more than a
// build would (BenchmarkLiveApplyLarge/4), and no feed sends one to a
// non-empty table: a full sync replaces it through ResetTo.
//
// The one delta that is built is the first full sync: an Apply into an empty
// table that withdraws nothing goes into fresh slabs exactly as ResetTo would
// put it there, and snapshots on either side of it share no arena lineage
// (Diff across it is exact, by the full walk: announce, which subscribers
// share, is not kept). Nothing is looked up or withdrawn there, and the build
// counts a repeated VRP once.
func (t *Table) Apply(announce, withdraw []rpki.VRP) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.cur.Load()
	if old.Len() == 0 && len(withdraw) == 0 && len(announce) > 0 {
		t.replace(newIndexFromVRPs(announce, nil))
		return
	}
	t.applyDelta(old, announce, withdraw)
}

// publish makes nw current, the published hook first. Callers hold mu.
func (t *Table) publish(nw *Index) {
	if t.published != nil {
		t.published(nw)
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
	// The delta owns every node and page past the ends of old's slabs.
	ann, wd = t.write(nw, ann, wd, old)
	if len(ann)+len(wd) > 0 {
		nw.announced, nw.withdrawn = cancelCommon(ann, wd)
		t.publish(nw)
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
//
// ResetTo takes over vrps until it hands them out. A list strictly in
// diffOrder, as a cache streams a full response (RFC 8210 §5), stays on the
// new snapshot, and the first Diff from an empty table returns it instead of
// walking the trie built from it. Until then the snapshot keeps it: for an
// rtr.Client nobody diffs, its staging slice (up to 2.3 times the response)
// until the next delta.
func (t *Table) ResetTo(vrps []rpki.VRP) { t.reset(vrps, true) }

// reset is ResetTo, keeping vrps for Diff only if keep.
func (t *Table) reset(vrps []rpki.VRP, keep bool) {
	nw, ordered := buildIndex(vrps, nil)
	if keep && ordered && len(vrps) > 0 {
		nw.handoff.Store(&vrps)
	}
	t.mu.Lock()
	t.replace(nw)
	t.mu.Unlock()
}

// replace publishes nw — freshly built slabs — in place of the whole table:
// the one routine behind ResetTo and the first full sync. nw's slabs start a
// new lineage, which is how an in-flight compaction of the replaced table
// knows to discard its rebuild; the garbage counters, which described the old
// slabs, start over. Callers hold mu.
func (t *Table) replace(nw *Index) {
	t.garbageNodes, t.garbagePages, t.garbageEntries = 0, 0, 0
	t.publish(nw)
}

// compact rebuilds src's table into fresh slabs, catches the rebuild up with
// the deltas applied while it ran, and publishes the result in the current
// snapshot's place. The build is the one NewTable makes of src's VRP stream —
// in pre-order, so its spans are written in place — but its slabs are sized
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
	if !src.fams[0].sameLineage(&cur.fams[0]) {
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
	t.garbageNodes, t.garbagePages, t.garbageEntries = 0, 0, 0
	t.write(rebuilt, announce, withdraw, nil)
	// The rebuild holds cur's set: it takes cur's place in the version history.
	rebuilt.version, rebuilt.parent, rebuilt.announced, rebuilt.withdrawn = cur.version, cur.parent, cur.announced, cur.withdrawn
	t.publish(rebuilt)
}

// write is the one way a snapshot under construction changes: it applies ann,
// then wd — withdraw wins — through one finger a family, and returns the
// operations that changed the table, compacted in place. In diffOrder, as both
// callers give them, each pass reads the union of its paths once, and a
// prefix's operations are consecutive: edit takes them as one run. Each
// family's node and page slabs are published up to their lengths in from:
// what lies under them is cloned, once, before it is written; a nil from
// writes a private copy in place.
func (t *Table) write(nw *Index, ann, wd []rpki.VRP, from *Index) ([]rpki.VRP, []rpki.VRP) {
	var fg [2]finger
	for s := range fg {
		var mark, pmark int32
		if from != nil {
			mark, pmark = int32(len(from.fams[s].nodes)), int32(len(from.fams[s].pages))
		}
		fg[s] = newFinger(s, &nw.fams[s], mark, pmark)
	}
	ops := [2][]rpki.VRP{ann, wd}
	for pass, vs := range ops {
		k := 0
		for i := 0; i < len(vs); {
			j := i + 1
			for j < len(vs) && vs[j].Prefix == vs[i].Prefix {
				j++
			}
			n := t.edit(nw, &fg[famSlot(vs[i].Prefix.Family())], vs[i:j], pass == 0)
			k += copy(vs[k:], vs[i:i+n])
			i = j
		}
		ops[pass] = vs[:k]
	}
	return ops[0], ops[1]
}

// edit adds run — VRPs of one prefix, in diffOrder — to nw (add) or takes them
// out, through the finger, and moves the operations that change the table to
// the front of run, returning their number. Only if there is one does it make
// the path the delta's own, graft an absent node, and write the merged span to
// the entry slab's tail, counting the cells it leaves as garbage.
func (t *Table) edit(nw *Index, fg *finger, run []rpki.VRP, add bool) int {
	p := run[0].Prefix
	f := &nw.fams[famSlot(p.Family())]
	found, old := f.seek(fg, p), []entry(nil)
	if found {
		old = span(nw.entries, f.nodes[fg.path[fg.n-1]].off)
	}
	// Keep the VRPs whose presence in old is not add's, each once.
	kept, i := 0, 0
	var prev entry // the run's last VRP: a repeat changes nothing
	for r, v := range run {
		e := entry{maxLength: v.MaxLength, as: v.AS}
		if r > 0 && e == prev {
			continue
		}
		prev = e
		for i < len(old) && cmpEntry(old[i], e) < 0 {
			i++
		}
		if present := i < len(old) && cmpEntry(old[i], e) == 0; present != add {
			run[kept], kept = v, kept+1
		}
	}
	if kept == 0 {
		return 0 // all present already, or absent
	}
	// Own the path: copy, once, a slot's published pages (ownHead) and each
	// published node (under mark). A node whose span a withdrawal empties goes
	// if it has one child or none (prune).
	goes := false
	if found {
		c := f.nodes[fg.path[fg.n-1]].children
		goes = !add && kept == len(old) && fg.n > 1 && (c[0] == 0 || c[1] == 0)
	}
	last := fg.n
	if goes {
		last--
	}
	hi, lo := p.Bits()
	for ; fg.owned < last; fg.owned++ {
		k, at := fg.owned, fg.path[fg.owned]
		if k == 0 && fg.slot >= 0 {
			t.garbagePages += f.ownHead(fg)
			continue
		}
		if at >= fg.mark {
			continue
		}
		khi, klo := f.key(at)
		c := f.push(f.nodes[at].plen, khi, klo)
		f.nodes[c].children, f.nodes[c].off = f.nodes[at].children, f.nodes[at].off
		t.garbageNodes++
		if k == 0 {
			f.root = c
		} else {
			f.setChild(fg, k-1, hi, lo, c)
		}
		fg.path[k] = c
	}
	if !found {
		f.graft(fg, p) // an announce: nothing absent is withdrawn
	}
	// Write the merged span to the slab tail, unmarked but for its last cell;
	// the old span's cells, marks included, become garbage (older snapshots
	// still read them).
	off := int32(len(nw.entries))
	i = 0
	for _, v := range run[:kept] {
		e := entry{maxLength: v.MaxLength, as: v.AS}
		for ; i < len(old) && cmpEntry(old[i], e) < 0; i++ {
			nw.entries = append(nw.entries, entry{maxLength: old[i].maxLength, as: old[i].as})
		}
		if add {
			nw.entries = append(nw.entries, e)
		} else {
			i++ // e's cell
		}
	}
	nw.entries = append(nw.entries, old[i:]...)
	if off == int32(len(nw.entries)) {
		off = 0
	} else {
		nw.entries[len(nw.entries)-1].last = true
	}
	if add {
		f.size += kept
	} else {
		f.size -= kept
	}
	t.garbageEntries += len(old)
	if goes {
		t.prune(f, fg, hi, lo)
	} else {
		f.nodes[fg.path[fg.n-1]].off = off
	}
	return kept
}

// prune takes out the finger's last node: its one child, if any, takes its
// place under its parent, the delta's own, which goes the same way if that
// leaves it with one child and no span, unless it is the head. Each node taken
// out is garbage, and so are the pages of a slot it leaves empty (dropSlot).
func (t *Table) prune(f *famIndex, fg *finger, hi, lo uint64) {
	for {
		c := f.nodes[fg.path[fg.n-1]].children
		fg.n--
		f.setChild(fg, fg.n-1, hi, lo, max(c[0], c[1]))
		t.garbageNodes++
		if fg.n == 1 {
			break
		}
		if up := &f.nodes[fg.path[fg.n-1]]; up.off != 0 || up.children[0] != 0 && up.children[1] != 0 {
			break
		}
	}
	fg.owned = min(fg.owned, fg.n)
	if fg.n == 1 && fg.slot >= 0 && f.child(fg, 0, hi, lo) == 0 {
		t.garbagePages += f.dropSlot(uint32(fg.slot))
		fg.slot = -2 // the head may be gone: the next seek looks the slot up again
	}
}

// Cell sizes, for needCompact's weighing of node against page garbage.
const nodeBytes, pageBytes = 20, 64

// needCompact reports whether superseded node and page bytes are two and a
// half times the live ones, or entry cells outweigh them. At that ratio,
// roa_change's deltas compact today's table every 5,237 (TestCompactAllocs);
// at twice, the ratio that gave 4,851 when the live nodes weighed a fifth
// more, every 4,207. The floors keep small tables from compacting on every
// delta.
func (t *Table) needCompact(nw *Index) bool {
	total := 0
	for s := range nw.fams {
		total += nodeBytes*len(nw.fams[s].nodes) + pageBytes*len(nw.fams[s].pages)
	}
	if garbage := nodeBytes*t.garbageNodes + pageBytes*t.garbagePages; 7*garbage > 5*total && total > 1024*nodeBytes {
		return true
	}
	return 2*t.garbageEntries > len(nw.entries) && len(nw.entries) > 1024
}
