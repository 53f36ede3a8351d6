package rov

import (
	"sync/atomic"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// LiveIndex is a validation table that follows an RTR feed: a Table — the
// write side, with its O(delta) path-copied updates, lock-free snapshots and
// background compaction — plus the read side a router's data plane wants, a
// CompactIndex serving Validate at a fraction of the Index's latency.
//
// The compact structure is derived, never updated, so it describes some
// earlier table version. Readers load one immutable view — the Index
// snapshot, the compact index, an overlay of the prefixes deltas touched
// between the two — and answer a route from the compact index unless a
// touched prefix covers it: a VRP at q changes the state of route p only if q
// contains p, so every other route still has the answer the compact index
// holds, and the covered few go to the view's Index, which is exact.
//
// Reads drive the compact half. NewLiveIndex builds it unasked before it
// returns. ResetTo and a first full sync (an Apply into an empty table) build
// it unasked too, but on a background goroutine, as every later rebuild is:
// they return as soon as the new table's Index, exact for every route,
// serves. The next delta drops it, landed or in flight, unless more routes
// were answered since its build began than a build costs (rebuildPaysAfter),
// so a follower nobody validates through keeps one index and starts one
// short-lived goroutine per replaced table, none per delta. A delta that keeps
// it marks the overlay, and at rebuildMarks starts a background rebuild if the
// routes since the last build began have paid for one — else the compact half
// goes until they have.
type LiveIndex struct {
	tab  Table
	view atomic.Pointer[liveView]

	// Routes answered through each half, added per batch: the demand signal.
	viaCompact, viaFallback atomic.Int64

	// Writer side, guarded by tab.mu: the routes answered when the last build
	// began; whether it was unasked and no delta has landed since; the prefixes
	// touched during the rebuild in flight (nil: none is; a stale one is not it).
	paidFrom                      int64
	unasked                       bool
	building                      *overlay
	started, installed, discarded int

	// rebuildHook, when set (tests), runs on each rebuild goroutine begun from
	// then on, before its build — a seam to hold a build in flight. Guarded by
	// tab.mu.
	rebuildHook func()
}

// liveView is what readers load: the table ix; c, if not nil, an earlier
// version of it; touched (nil: nothing), every prefix that changed since.
type liveView struct {
	ix      *Index
	c       *CompactIndex
	touched *overlay
}

const (
	// rebuildPaysAfter × Len() routes answered is what a compact build is
	// charged: it costs 0.21 µs a VRP (BenchmarkCompactFromIndex, 10.3 ms at
	// 50k) against the 0.12 µs a route saves over the Index (the serial
	// BenchmarkValidateBatch against BenchmarkCompactValidateBatch, 0.23 and
	// 0.11 µs), both medians of six runs on one 2-vCPU host. The price is
	// 1.7 × Len(); erring high keeps a barely read table on one index a little
	// longer, so the constant stays.
	rebuildPaysAfter = 4
	// rebuildMarks is the overlay fill at which a rebuild is due: 15 of
	// validate_churn's 64-VRP deltas, under 0.1 % of routes falling back.
	rebuildMarks = 8192
)

// overlay is a set of touched prefixes behind a conservative cover test: per
// family two 64 Kibit bitmaps, each indexed by the 16 address bits that end
// at overlayEnds (IPv4 /24 and /16, IPv6 /32 and /24). A prefix that ends
// before an index does marks the aligned block of indexes under it, a longer
// one its own, so whichever touched q contains a route p has set, in both
// bitmaps, the bit of p's base address — and few other routes find both set.
// Bits are only ever set: readers share an overlay with the writer, and one
// holding an older view merely falls back more often.
type overlay struct {
	bits  [2][2][1024]atomic.Uint64 // [family][bitmap]
	marks int                       // bits marked, repeats included; guarded by tab.mu
}

var overlayEnds = [2][2]uint8{{24, 16}, {32, 24}}

// mark adds the prefixes of vrps. Callers hold tab.mu.
func (o *overlay) mark(vrps []rpki.VRP) {
	for _, v := range vrps {
		hi, _ := v.Prefix.Bits()
		slot := famSlot(v.Prefix.Family())
		for h, end := range overlayEnds[slot] {
			n := uint32(1) << min(max(int(end)-int(v.Prefix.Len()), 0), 16)
			i := uint32(hi>>(64-end)) & 0xffff &^ (n - 1)
			o.marks += int(n)
			mask := ^uint64(0) // n is 1…32 bits of one word, or whole words
			if n < 64 {
				mask = (1<<n - 1) << (i & 63)
			}
			for w := i >> 6; w <= (i+n-1)>>6; w++ {
				o.bits[slot][h][w].Or(mask)
			}
		}
	}
}

// covers reports whether a marked prefix may contain p. Allocation-free
// (TestValidateAllocs).
func (o *overlay) covers(p prefix.Prefix) bool {
	hi, _ := p.Bits()
	slot := famSlot(p.Family())
	i, j := uint32(hi>>(64-overlayEnds[slot][0]))&0xffff, uint32(hi>>(64-overlayEnds[slot][1]))&0xffff
	return (o.bits[slot][0][i>>6].Load()>>(i&63))&(o.bits[slot][1][j>>6].Load()>>(j&63))&1 != 0
}

// NewLiveIndex builds a live table over the set's VRPs, compact half included.
func NewLiveIndex(s *rpki.Set) *LiveIndex {
	l := &LiveIndex{unasked: true}
	l.tab.published = l.published
	ix := NewIndex(s)
	l.tab.cur.Store(ix)
	l.view.Store(&liveView{ix: ix, c: CompactFromIndex(ix)})
	return l
}

// Snapshot returns the current immutable index. The snapshot stays valid —
// and keeps answering with its table version — for as long as the caller
// holds it, regardless of later Apply calls.
func (l *LiveIndex) Snapshot() *Index { return l.view.Load().ix }

// CompactSnapshot returns the compact index when it describes the current
// table version with nothing touched since, else nil (Stats says how many
// routes a compact half answers regardless). Like Snapshot's, the value is
// immutable and stays valid whatever is applied later.
func (l *LiveIndex) CompactSnapshot() *CompactIndex {
	if v := l.view.Load(); v.touched == nil {
		return v.c
	}
	return nil
}

// Len returns the number of VRPs in the current table.
func (l *LiveIndex) Len() int { return l.Snapshot().Len() }

// Validate classifies (p, origin) against the current table: through the
// compact index unless there is none or a touched prefix covers p.
func (l *LiveIndex) Validate(p prefix.Prefix, origin rpki.ASN) State {
	v := l.view.Load()
	if v.c != nil && (v.touched == nil || !v.touched.covers(p)) {
		l.viaCompact.Add(1)
		return v.c.Validate(p, origin)
	}
	l.viaFallback.Add(1)
	return v.ix.Validate(p, origin)
}

// ValidateBatch is Validate for a batch, all at one table version: one view.
func (l *LiveIndex) ValidateBatch(routes []Route, dst []State) []State {
	v := l.view.Load()
	if v.c == nil {
		l.viaFallback.Add(int64(len(routes)))
		return v.ix.ValidateBatch(routes, dst)
	}
	dst = v.c.ValidateBatch(routes, dst)
	fell := 0
	if o := v.touched; o != nil {
		for i := range routes {
			if q := &routes[i]; o.covers(q.Prefix) {
				dst[i] = v.ix.Validate(q.Prefix, q.Origin)
				fell++
			}
		}
		l.viaFallback.Add(int64(fell))
	}
	l.viaCompact.Add(int64(len(routes) - fell))
	return dst
}

// LiveStats is what a LiveIndex has served and derived: routes answered by the
// compact index and by the Index (no compact half, or a touched prefix
// covering the route); rebuilds begun, published, and thrown away (for a
// replaced table, or unasked and dropped by a delta no reads paid for);
// whether a compact half is held, under how many overlay marks.
type LiveStats struct {
	CompactRoutes, FallbackRoutes                         int64
	RebuildsStarted, RebuildsInstalled, RebuildsDiscarded int
	CompactHeld                                           bool
	Marks                                                 int
}

// Stats returns the counters' current values.
func (l *LiveIndex) Stats() LiveStats {
	l.tab.mu.Lock()
	defer l.tab.mu.Unlock()
	v := l.view.Load()
	st := LiveStats{CompactRoutes: l.viaCompact.Load(), FallbackRoutes: l.viaFallback.Load(), CompactHeld: v.c != nil,
		RebuildsStarted: l.started, RebuildsInstalled: l.installed, RebuildsDiscarded: l.discarded}
	if v.touched != nil {
		st.Marks = v.touched.marks
	}
	return st
}

// Apply installs one RTR delta with Table.Apply's semantics and costs. A first
// full sync, which builds the table, returns as soon as its Index serves,
// with the compact half building behind it.
func (l *LiveIndex) Apply(announce, withdraw []rpki.VRP) { l.tab.Apply(announce, withdraw) }

// ResetTo is Table.ResetTo: it returns as soon as the new table's Index
// serves, with the compact half building behind it, and keeps none of vrps.
func (l *LiveIndex) ResetTo(vrps []rpki.VRP) { l.tab.reset(vrps, false) }

// published is the Table's hook: under tab.mu, it turns the snapshot about
// to be published into the next view, marking a delta's prefixes first.
func (l *LiveIndex) published(nw *Index, replaced bool, announce, withdraw []rpki.VRP) {
	v := l.view.Load()
	nv := &liveView{ix: nw, c: v.c, touched: v.touched}
	switch {
	case replaced: // a rebuild in flight is of the table that went: this one's supersedes it
		nv.c, nv.touched, l.unasked = nil, nil, true
		go l.rebuild(nw, l.begin(), l.rebuildHook)
	case len(announce)+len(withdraw) > 0: // otherwise a compaction: the same set in new slabs
		paid := l.viaCompact.Load()+l.viaFallback.Load()-l.paidFrom > rebuildPaysAfter*int64(nw.Len())
		if l.unasked && !paid {
			nv.c, l.building = nil, nil // nobody validates through it: built or building, it goes
		}
		l.unasked = false
		if nv.c != nil && nv.touched == nil {
			nv.touched = new(overlay)
		}
		for _, o := range [2]*overlay{nv.touched, l.building} {
			if o != nil {
				o.mark(announce)
				o.mark(withdraw)
			}
		}
		if l.building == nil && (nv.c == nil || nv.touched.marks >= rebuildMarks) {
			if paid {
				go l.rebuild(nw, l.begin(), l.rebuildHook)
			} else {
				nv.c, nv.touched = nil, nil // nobody validates through it any more
			}
		}
	}
	l.view.Store(nv)
}

// begin opens a rebuild's accounts and its overlay. Callers hold tab.mu.
func (l *LiveIndex) begin() *overlay {
	l.building, l.paidFrom = new(overlay), l.viaCompact.Load()+l.viaFallback.Load()
	l.started++
	return l.building
}

// rebuild derives ix's compact index outside tab.mu and installs it with the
// deltas since — unless it was superseded (the table replaced, another rebuild
// begun) or, built unasked, dropped by a delta no reads paid for. hook, if not
// nil, runs first (tests: a seam to hold the build in flight).
func (l *LiveIndex) rebuild(ix *Index, during *overlay, hook func()) {
	if hook != nil {
		hook()
	}
	c := CompactFromIndex(ix)
	l.tab.mu.Lock()
	defer l.tab.mu.Unlock()
	if l.building != during {
		l.discarded++
		return
	}
	l.building = nil
	l.installed++
	nv := &liveView{ix: l.view.Load().ix, c: c}
	if during.marks > 0 {
		nv.touched = during
	}
	l.view.Store(nv)
}
