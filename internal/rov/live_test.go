package rov

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// waitCompactor waits until no background compaction is in flight.
func waitCompactor(t testing.TB, tab *Table) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		tab.mu.Lock()
		busy := tab.compacting
		tab.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction did not finish")
		}
	}
}

// settle waits out any in-flight background compaction and keeps forcing
// empty Applies until the garbage thresholds are satisfied, so tests can
// assert slab bounds deterministically against the asynchronous compactor.
func settle(t *testing.T, l *LiveIndex) {
	t.Helper()
	for {
		waitCompactor(t, &l.tab)
		if !compactDue(&l.tab) {
			return
		}
		l.Apply(nil, nil)
	}
}

// wedgeCompactions makes every compactor goroutine tab starts from now on
// park in its hook until release is closed; started counts them.
func wedgeCompactions(tab *Table) (started *atomic.Int32, release chan struct{}) {
	started, release = new(atomic.Int32), make(chan struct{})
	tab.mu.Lock()
	tab.compactHook = func() {
		started.Add(1)
		<-release
	}
	tab.mu.Unlock()
	return started, release
}

// countCompactions counts, from now on, the snapshots tab publishes that are
// neither a replacement nor a delta: compactions.
func countCompactions(tab *Table) *atomic.Int32 {
	n := new(atomic.Int32)
	tab.mu.Lock()
	inner := tab.published
	tab.published = func(nw *Index, replaced bool, announce, withdraw []rpki.VRP) {
		if !replaced && len(announce)+len(withdraw) == 0 {
			n.Add(1)
		}
		if inner != nil {
			inner(nw, replaced, announce, withdraw)
		}
	}
	tab.mu.Unlock()
	return n
}

// churnUntil applies announce-then-withdraw pairs of the marker VRPs from
// first on — they must not be in the table, which they leave as it was —
// until done reports true: garbage until the compactor has done something.
func churnUntil(t *testing.T, l *LiveIndex, first int, done func() bool) {
	t.Helper()
	for i := 0; !done(); i++ {
		if i == 200000 {
			t.Fatal("churn never triggered a compaction")
		}
		v := markerVRP(first + i%200)
		l.Apply([]rpki.VRP{v}, nil)
		l.Apply(nil, []rpki.VRP{v})
	}
}

// randomVRP draws a VRP from a deliberately small space (few origins, short
// prefixes in both families) so deltas collide with existing state often.
func randomVRP(rng *rand.Rand) rpki.VRP {
	if rng.Intn(3) == 0 { // IPv6
		l := uint8(8 + rng.Intn(40))
		p, err := prefix.Make(prefix.IPv6, rng.Uint64(), 0, l)
		if err != nil {
			panic(err)
		}
		ml := l + uint8(rng.Intn(int(64-l)+1))
		return rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(rng.Intn(6))}
	}
	l := uint8(4 + rng.Intn(21))
	p, err := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
	if err != nil {
		panic(err)
	}
	ml := l + uint8(rng.Intn(int(32-l)+1))
	return rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(rng.Intn(6))}
}

// randomProbe draws a query route near the randomVRP space.
func randomProbe(rng *rand.Rand) Route {
	v := randomVRP(rng)
	p := v.Prefix
	// Sometimes probe below the VRP (inside maxLength range or beyond).
	for p.Len() < p.MaxLen() && rng.Intn(3) == 0 {
		p = p.Child(uint8(rng.Intn(2)))
	}
	return Route{Prefix: p, Origin: rpki.ASN(rng.Intn(6))}
}

// TestDifferentialLiveIndexVsReference is the tentpole correctness test:
// the arena Index, the compact index, the LiveIndex after an arbitrary delta
// history, and the linear Reference must agree state-for-state on randomized
// IPv4+IPv6 workloads — after every applied delta, not just at the end. When
// the LiveIndex's current version carries a published compact snapshot, that
// snapshot is held to the same answers. Readers pay before every delta, so a
// path-copied one keeps the compact half under an overlay (or finds a rebuild
// due): the probes then include the neighbourhood of every prefix the delta
// touched, where a wrong cover test would show. Every third delta is as large
// as the table, and is path-copied like the rest; every sixth step withdraws
// the whole table and then announces into it, the first full sync, which is
// built. A compaction is wedged ahead of a path-copied delta and released after
// the step that follows, so a catch-up (or, past a first sync, a discard)
// lands under the live view and is held to the same answers.
func TestDifferentialLiveIndexVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	syncs, copies, large, overlaid, caughtUp, discarded := 0, 0, 0, 0, 0, 0
	for trial := 0; trial < 20; trial++ {
		state := map[rpki.VRP]struct{}{}
		var init []rpki.VRP
		for i := 0; i < rng.Intn(40); i++ {
			v := randomVRP(rng)
			init = append(init, v)
			state[v] = struct{}{}
		}
		live := NewLiveIndex(rpki.NewSet(init))
		var release chan struct{} // of the wedged compaction
		var replaced bool         // since it started
		var during []rpki.VRP     // every VRP a delta named since it started
		for step := 0; step < 12; step++ {
			// A handful of operations most steps, as many as the table holds
			// every third, and every sixth a first sync: announces only.
			firstSync := step%6 == 5
			nAnn, maxWd := rng.Intn(6), 4
			switch {
			case firstSync:
				nAnn, maxWd = 1+rng.Intn(2*len(state)+2), 0
			case step%3 == 2:
				nAnn, maxWd = rng.Intn(2*len(state)+2), len(state)
			}
			var ann, wd []rpki.VRP
			for i := 0; i < nAnn; i++ {
				ann = append(ann, randomVRP(rng)) // may duplicate existing state
			}
			for v := range state {
				if len(wd) >= maxWd {
					break
				}
				if rng.Intn(5) == 0 {
					wd = append(wd, v)
				}
			}
			if !firstSync && rng.Intn(2) == 0 {
				wd = append(wd, randomVRP(rng)) // likely-absent withdraw
			}
			if len(ann) > 0 && rng.Intn(2) == 0 {
				ann = append(ann, ann[0]) // repeated within one delta: counts once
				// Announced and withdrawn by one delta, withdraw wins; a first
				// sync withdraws nothing.
				if v := randomVRP(rng); !firstSync {
					ann, wd = append(ann, v), append(wd, v)
				}
			}
			pay(live, []Route{randomProbe(rng), randomProbe(rng)})
			quiesce(t, live) // or a rebuild's install may land between two looks at the view
			before, compactBefore := live.Snapshot(), live.CompactSnapshot()
			wedgeNow := release == nil && !firstSync && step < 11 // the next step releases it
			if wedgeNow {
				// These tables are too small to compact of their own accord.
				release, replaced, during = make(chan struct{}), false, nil
				live.tab.mu.Lock()
				live.tab.compacting = true
				go live.tab.compact(before, func() { <-release })
				live.tab.mu.Unlock()
			}
			if firstSync { // the table withdrawn whole, path-copied, leaves it empty
				emptied := setOf(state).VRPs()
				live.Apply(nil, emptied)
				during = append(during, emptied...)
				clear(state)
			}
			during = append(append(during, ann...), wd...)
			live.Apply(ann, wd)
			// Looked at before anything else: a delta that makes a rebuild due
			// has started it, and its install takes the overlay away again.
			if st := live.Stats(); st.CompactHeld && st.Marks > 0 {
				overlaid++
			}
			for _, v := range ann {
				state[v] = struct{}{}
			}
			for _, v := range wd {
				delete(state, v)
			}
			// The path taken shows in the arenas: a path copy shares the old
			// snapshot's slabs, a build does not; a delta that nets to nothing
			// publishes nothing and keeps the compact half it found.
			switch after := live.Snapshot(); {
			case firstSync:
				syncs++
				replaced = true
				if before.fams[0].eng.SharedArena(&after.fams[0].eng) {
					t.Fatalf("trial %d step %d: a first sync of %d VRPs was path-copied", trial, step, len(ann))
				}
				if live.CompactSnapshot() == nil {
					t.Fatalf("trial %d step %d: a first sync returned without a compact snapshot", trial, step)
				}
			case after == before:
				if a, w := Diff(before, NewIndex(setOf(state))); len(a)+len(w) != 0 {
					t.Fatalf("trial %d step %d: Apply kept the old snapshot over a real change (+%d -%d)", trial, step, len(a), len(w))
				}
				if live.CompactSnapshot() != compactBefore {
					t.Fatalf("trial %d step %d: a no-op delta replaced the compact snapshot", trial, step)
				}
			default:
				copies++
				if len(ann)+len(wd) >= before.Len() {
					large++
				}
				if !before.fams[0].eng.SharedArena(&after.fams[0].eng) {
					t.Fatalf("trial %d step %d: %d ops into %d VRPs rebuilt the table", trial, step, len(ann)+len(wd), before.Len())
				}
			}

			verify := func(touched []rpki.VRP) {
				set := setOf(state)
				cur := set.VRPs()
				ix, cx, ref := NewIndex(set), NewCompactIndex(set), NewReference(set)
				if a, w := Diff(live.Snapshot(), ix); len(a)+len(w) != 0 {
					t.Fatalf("trial %d step %d: the live snapshot is +%d -%d VRPs off the applied history", trial, step, len(w), len(a))
				}
				if live.Len() != set.Len() || ix.Len() != set.Len() || cx.Len() != set.Len() {
					t.Fatalf("trial %d step %d: live %d / index %d / compact %d / set %d VRPs",
						trial, step, live.Len(), ix.Len(), cx.Len(), set.Len())
				}
				routes := probesAround(touched)
				for q := 0; q < 120; q++ {
					routes = append(routes, randomProbe(rng))
				}
				for _, v := range cur { // exact-prefix probes with right and wrong origin
					routes = append(routes,
						Route{Prefix: v.Prefix, Origin: v.AS},
						Route{Prefix: v.Prefix, Origin: v.AS + 1})
				}
				liveStates := live.ValidateBatch(routes, nil)
				ixStates := ix.ValidateBatch(routes, nil)
				cxStates := cx.ValidateBatch(routes, nil)
				pub := live.CompactSnapshot() // nil unless a compaction landed for this exact version
				for i, q := range routes {
					want := ref.Validate(q.Prefix, q.Origin)
					if ixStates[i] != want {
						t.Fatalf("trial %d step %d: Index.Validate(%s, %v) = %v, reference %v",
							trial, step, q.Prefix, q.Origin, ixStates[i], want)
					}
					if cxStates[i] != want {
						t.Fatalf("trial %d step %d: CompactIndex.Validate(%s, %v) = %v, reference %v",
							trial, step, q.Prefix, q.Origin, cxStates[i], want)
					}
					if got := live.Validate(q.Prefix, q.Origin); liveStates[i] != want || got != want {
						t.Fatalf("trial %d step %d: LiveIndex.ValidateBatch(%s, %v) = %v, Validate %v, reference %v (%+v)",
							trial, step, q.Prefix, q.Origin, liveStates[i], got, want, live.Stats())
					}
					if pub != nil {
						if got := pub.Validate(q.Prefix, q.Origin); got != want {
							t.Fatalf("trial %d step %d: published compact Validate(%s, %v) = %v, reference %v",
								trial, step, q.Prefix, q.Origin, got, want)
						}
					}
				}
			}
			verify(append(append([]rpki.VRP(nil), ann...), wd...))
			if release != nil && !wedgeNow {
				cur := live.Snapshot()
				st := quiesce(t, live) // the view the compaction lands under
				close(release)
				waitCompactor(t, &live.tab)
				switch after := live.Snapshot(); {
				case replaced:
					discarded++
					if after != cur {
						t.Fatalf("trial %d: a compaction of the replaced table published", trial)
					}
				case after == cur || after.fams[0].eng.SharedArena(&cur.fams[0].eng):
					t.Fatalf("trial %d: the released compaction published nothing", trial)
				case st.CompactHeld:
					caughtUp++
				}
				verify(during)
				release = nil
			}
		}
	}
	if syncs < 20 || copies < 20 || large < 20 || overlaid < 20 || caughtUp < 10 || discarded < 10 {
		t.Fatalf("differential covered %d first syncs and %d path-copied deltas, %d of them at least the table's size and %d leaving the view under an overlay, %d compactions catching up under the live view and %d discarded; want at least 20, 20, 20, 20, 10 and 10",
			syncs, copies, large, overlaid, caughtUp, discarded)
	}
}

// setOf returns the map's keys as a normalized set.
func setOf(state map[rpki.VRP]struct{}) *rpki.Set {
	vrps := make([]rpki.VRP, 0, len(state))
	for v := range state {
		vrps = append(vrps, v)
	}
	return rpki.NewSet(vrps)
}

// TestLiveIndexDeltaEdgeCases pins the no-op and boundary behaviors of
// Apply against a from-scratch NewIndex after every delta: into a table of a
// few VRPs, which the first announce builds and every later delta path-copies,
// down to an empty table again, and into one padded with a hundred unrelated
// VRPs, where every delta is path-copied.
func TestLiveIndexDeltaEdgeCases(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111}
	v1tight := rpki.VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 16, AS: 111}
	v2 := rpki.VRP{Prefix: mp("87.254.32.0/19"), MaxLength: 19, AS: 31283}
	v6 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64496}

	for _, padding := range []int{0, 100} {
		var pad []rpki.VRP
		for k := 0; k < padding; k++ {
			pad = append(pad, markerVRP(k))
		}
		check := func(l *LiveIndex, want ...rpki.VRP) {
			t.Helper()
			set := rpki.NewSet(append(want, pad...))
			if l.Len() != set.Len() {
				t.Fatalf("padding %d: live has %d VRPs, want %d", padding, l.Len(), set.Len())
			}
			ref := NewReference(set)
			rng := rand.New(rand.NewSource(7))
			for q := 0; q < 300; q++ {
				r := randomProbe(rng)
				if got, wantS := l.Validate(r.Prefix, r.Origin), ref.Validate(r.Prefix, r.Origin); got != wantS {
					t.Fatalf("padding %d: Validate(%s, %v) = %v, want %v", padding, r.Prefix, r.Origin, got, wantS)
				}
			}
			for _, v := range want {
				if got := l.Validate(v.Prefix, v.AS); got != Valid {
					t.Fatalf("padding %d: Validate(%s, %v) = %v, want Valid", padding, v.Prefix, v.AS, got)
				}
			}
		}

		l := NewLiveIndex(rpki.NewSet(pad))
		check(l)
		l.Apply([]rpki.VRP{v1, v2, v6}, nil) // first announce, into an empty table when unpadded
		check(l, v1, v2, v6)
		l.Apply([]rpki.VRP{v1}, nil) // duplicate announce: no-op
		check(l, v1, v2, v6)
		l.Apply(nil, []rpki.VRP{v1tight}) // withdraw of absent sibling entry: no-op
		check(l, v1, v2, v6)
		l.Apply([]rpki.VRP{v1tight}, nil) // second entry at the same prefix node
		check(l, v1, v1tight, v2, v6)
		l.Apply(nil, []rpki.VRP{v1}) // withdraw one of two entries at a node
		check(l, v1tight, v2, v6)
		l.Apply([]rpki.VRP{v2}, []rpki.VRP{v2}) // announce+withdraw in one delta: withdraw wins
		check(l, v1tight, v6)
		l.Apply([]rpki.VRP{v2, v2, v2}, nil) // repeated within one delta: counts once
		check(l, v1tight, v2, v6)
		l.Apply(nil, []rpki.VRP{v1tight, v2, v6}) // back to the padding (empty when unpadded)
		check(l)
		l.Apply(nil, []rpki.VRP{v1}) // withdraw of an absent VRP: no-op
		check(l)
	}
}

// TestApplyBulk pins Apply on deltas as large as the table, into a LiveIndex.
// The first full sync is built: fresh slabs, no garbage, the compact half
// built before Apply returns. Every later one is path-copied like any delta:
// one that nets to nothing publishes nothing and keeps the compact half; inside
// one, withdraw wins and repeats count once; and one that withdraws everything
// leaves an empty table.
func TestApplyBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	table := randomTable(rng, 300)
	absent := markerVRP(1)

	l := NewLiveIndex(rpki.NewSet(nil))
	l.Apply(table, nil) // the first full sync as one announce delta
	if l.Len() != len(table) || l.CompactSnapshot() == nil || l.CompactSnapshot().Len() != len(table) {
		t.Fatalf("first sync: %d VRPs, compact %v; want %d with a compact snapshot", l.Len(), l.CompactSnapshot(), len(table))
	}
	if nodes, entries := garbage(&l.tab); nodes+entries != 0 {
		t.Fatalf("the first sync left %d garbage cells: it was path-copied", nodes+entries)
	}

	// Every VRP re-announced and two absent ones withdrawn: 302 operations, no
	// change — the published snapshot and its compact half must be the very
	// same values.
	ix, cx := l.Snapshot(), l.CompactSnapshot()
	l.Apply(table, []rpki.VRP{absent, markerVRP(2)})
	if l.Snapshot() != ix || l.CompactSnapshot() != cx {
		t.Fatal("a table-sized delta that nets to nothing replaced the published snapshot")
	}

	// Withdraw wins inside a table-sized delta, and repeats count once.
	pay(l, probesAround(table[:20]))
	before := l.Snapshot()
	half := table[:150]
	l.Apply(append([]rpki.VRP{absent, absent, half[0]}, half...), half)
	if !before.fams[0].eng.SharedArena(&l.Snapshot().fams[0].eng) {
		t.Fatal("a table-sized delta into a non-empty table was rebuilt, not path-copied")
	}
	state := map[rpki.VRP]struct{}{absent: {}}
	for _, v := range table[150:] {
		state[v] = struct{}{}
	}
	checkLive(t, l, state, probesAround(table), "after a table-sized announce+withdraw")
	checkEntryGarbage(t, &l.tab)

	// A delta that empties the table.
	l.Apply(nil, l.Snapshot().AppendVRPs(nil))
	if l.Len() != 0 || l.Validate(table[200].Prefix, table[200].AS) != NotFound {
		t.Fatalf("withdraw of everything: %d VRPs left", l.Len())
	}
}

// TestApplyBulkIntoEmpty pins the first full sync — a delta into an empty
// table with nothing withdrawn, which is built straight from the announce list
// — to the general path's semantics: repeats count once, and the slabs are the
// build's cell for cell; a delta into an empty table that also withdraws is
// path-copied, and withdraw still wins; one that announces and withdraws the
// same VRP publishes a snapshot of the empty table that carries an empty
// delta; and an empty delta publishes nothing.
func TestApplyBulkIntoEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	table := randomTable(rng, 200)
	repeated := append(append(append([]rpki.VRP(nil), table...), table[:50]...), table[199])

	tab := NewTable(nil)
	tab.Apply(repeated, nil)
	if got := tab.Snapshot().AppendVRPs(nil); tab.Len() != len(table) || !rpki.NewSet(got).Equal(rpki.NewSet(table)) || len(got) != len(table) {
		t.Fatalf("announce with repeats into an empty table: Len %d, %d VRPs streamed; want %d distinct", tab.Len(), len(got), len(table))
	}
	checkSameSlabs(t, "the first sync", tab.Snapshot(), newIndexFromVRPs(repeated, nil))

	tab = NewTable(nil)
	before := tab.Snapshot()
	tab.Apply(repeated, []rpki.VRP{table[7], table[199], markerVRP(3)})
	want := rpki.NewSet(slices.DeleteFunc(slices.Clone(table), func(v rpki.VRP) bool { return v == table[7] || v == table[199] }))
	if got := rpki.NewSet(tab.Snapshot().AppendVRPs(nil)); !got.Equal(want) {
		t.Fatalf("announce into an empty table with two of its VRPs withdrawn: %d VRPs, want %d", got.Len(), want.Len())
	}
	if !before.fams[0].eng.SharedArena(&tab.Snapshot().fams[0].eng) {
		t.Fatal("a delta into an empty table that withdraws was built, not path-copied")
	}
	checkParentDiff(t, "a delta into an empty table that withdraws", before, tab.Snapshot())

	tab = NewTable(nil)
	before = tab.Snapshot()
	tab.Apply([]rpki.VRP{table[0], table[0]}, []rpki.VRP{table[0]})
	after := tab.Snapshot()
	if after == before || after.parent != before.version || after.Len() != 0 || len(after.announced)+len(after.withdrawn) != 0 {
		t.Fatalf("an announce the same delta withdraws, into an empty table: %d VRPs, +%v -%v from version %d; want an empty snapshot carrying no delta from %d",
			after.Len(), after.announced, after.withdrawn, after.parent, before.version)
	}
	tab.Apply(nil, nil)
	if tab.Snapshot() != after {
		t.Fatal("an empty delta into an empty table published a snapshot")
	}
}

// TestLargeDeltaPathCopied pins the one write path at its far end: a delta
// four times the table — the table withdrawn whole, each of its prefixes
// announced at four other origins — into a LiveIndex that readers keep
// validating is path-copied like any other. The table is then the
// reference's, Diff from the snapshot before is the walk, every dead entry
// cell counts as garbage, and the garbage starts a compaction that publishes;
// readers of the live index
// see the table before the delta or after it, and a reader holding the
// snapshot before it keeps its answers.
func TestLargeDeltaPathCopied(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	table := randomTable(rng, 300)
	var next []rpki.VRP
	for k := rpki.ASN(0); k < 4; k++ {
		for _, v := range table {
			v.AS += 100 + 10*k // outside randomVRP's origins: disjoint from table
			next = append(next, v)
		}
	}
	l := NewLiveIndex(rpki.NewSet(table))
	compactions := countCompactions(&l.tab)
	probes := append(probesAround(table[:100]), probesAround(next[:100])...)
	pay(l, probes)
	before := l.Snapshot()
	refBefore, refAfter := NewReference(rpki.NewSet(table)), NewReference(rpki.NewSet(next))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := probes[rng.Intn(len(probes))]
				if got, want := before.Validate(q.Prefix, q.Origin), refBefore.Validate(q.Prefix, q.Origin); got != want {
					t.Errorf("the snapshot before the delta: Validate(%s, %v) = %v, want %v", q.Prefix, q.Origin, got, want)
					return
				}
				if got := l.Validate(q.Prefix, q.Origin); got != refBefore.Validate(q.Prefix, q.Origin) && got != refAfter.Validate(q.Prefix, q.Origin) {
					t.Errorf("LiveIndex.Validate(%s, %v) = %v, the answer of neither table", q.Prefix, q.Origin, got)
					return
				}
			}
		}(int64(600 + r))
	}

	l.Apply(next, table)
	after := l.Snapshot()
	if !before.fams[0].eng.SharedArena(&after.fams[0].eng) {
		t.Fatal("a delta four times the table was rebuilt, not path-copied")
	}
	checkEntryGarbage(t, &l.tab)
	checkParentDiff(t, "a delta four times the table", before, after)
	checkDiffAgainstNaive(t, before, after)
	waitCompactor(t, &l.tab)
	close(stop)
	wg.Wait()
	if compactions.Load() == 0 || l.Snapshot().fams[0].eng.SharedArena(&after.fams[0].eng) {
		t.Fatalf("%d compactions published after the delta", compactions.Load())
	}
	state := map[rpki.VRP]struct{}{}
	for _, v := range next {
		state[v] = struct{}{}
	}
	checkLive(t, l, state, probes, "after the delta and its compaction")
	checkEntryGarbage(t, &l.tab)
}

// TestVisitVRPsStops pins the early stop: once fn has returned false it is
// not called again and the visit returns — whichever family the stop falls in.
func TestVisitVRPsStops(t *testing.T) {
	ix := newIndexFromVRPs(randomTable(rand.New(rand.NewSource(97)), 60), nil) // a third of it IPv6
	all := ix.AppendVRPs(nil)
	v4 := ix.fams[0].size
	if v4 < 10 || len(all)-v4 < 10 {
		t.Fatalf("the table holds %d IPv4 and %d IPv6 VRPs", v4, len(all)-v4)
	}
	for _, stopAt := range []int{0, 5, v4 - 1, v4, v4 + 5, len(all) - 1} {
		var seen []rpki.VRP
		ix.VisitVRPs(func(v rpki.VRP) bool {
			seen = append(seen, v)
			return len(seen) <= stopAt
		})
		if !slices.Equal(seen, all[:stopAt+1]) {
			t.Fatalf("stopped at VRP %d: fn saw %d VRPs, want the first %d", stopAt, len(seen), stopAt+1)
		}
	}
}

// TestBulkApplyAgainstReadersAndCompaction runs the table's replacements
// against what shares the table with it (under -race): readers holding a
// pre-replacement snapshot keep their answers, and a replacement that lands
// while a compaction is rebuilding the table it replaces makes the compactor
// discard its rebuild, so nothing it read is resurrected. A first full sync
// replaces the table it lands in: here the table is withdrawn whole, a delta
// the compaction would catch up with, and a disjoint table announced into the
// empty one. The discard is by arena lineage, not by content: a ResetTo to the
// very set being rebuilt discards too. Garbage on the replacement's slabs then
// starts a fresh compaction.
func TestBulkApplyAgainstReadersAndCompaction(t *testing.T) {
	next := make([]rpki.VRP, 300)
	for k := range next {
		next[k] = markerVRP(1000 + k)
	}
	for _, tc := range []struct {
		name    string
		replace func(l *LiveIndex, before []rpki.VRP) (want []rpki.VRP)
	}{
		{"bulk Apply of a disjoint table", func(l *LiveIndex, before []rpki.VRP) []rpki.VRP {
			l.Apply(nil, before) // withdraw everything the compactor is rebuilding
			l.Apply(next, nil)   // and sync into the empty table
			return next
		}},
		{"ResetTo the identical set", func(l *LiveIndex, before []rpki.VRP) []rpki.VRP {
			l.ResetTo(before)
			return before
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(89))
			l := NewLiveIndex(rpki.NewSet(randomTable(rng, 400)))
			compactions := countCompactions(&l.tab)
			started, release := wedgeCompactions(&l.tab)
			churnUntil(t, l, 0, func() bool { return started.Load() > 0 })
			l.Apply([]rpki.VRP{markerVRP(0)}, nil) // lands during the rebuild: the replacement must drop it

			// Readers pin the table before the replacement while it lands.
			before := l.Snapshot()
			beforeVRPs := before.AppendVRPs(nil)
			beforeRef := NewReference(rpki.NewSet(beforeVRPs))
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						p := randomProbe(rng)
						if got, want := before.Validate(p.Prefix, p.Origin), beforeRef.Validate(p.Prefix, p.Origin); got != want {
							t.Errorf("the replaced snapshot changed its answer: Validate(%s, %v) = %v, want %v", p.Prefix, p.Origin, got, want)
							return
						}
					}
				}(int64(500 + r))
			}

			want := tc.replace(l, beforeVRPs)
			replacement := l.Snapshot()
			close(release)
			waitCompactor(t, &l.tab)
			close(stop)
			wg.Wait()
			if l.Snapshot() != replacement || compactions.Load() != 0 {
				t.Fatalf("the compaction of the replaced table published (%d compactions)", compactions.Load())
			}
			if got := rpki.NewSet(l.Snapshot().AppendVRPs(nil)); !got.Equal(rpki.NewSet(want)) {
				extra, missing := naiveSetDiff(want, got.VRPs())
				t.Fatalf("after replacement-during-compaction: %d resurrected, %d missing", len(extra), len(missing))
			}
			// The table keeps working on the rebuilt slabs, and their garbage is
			// compacted in turn.
			l.Apply(nil, want[:1])
			if l.Len() != len(want)-1 {
				t.Fatalf("delta after replacement: %d VRPs, want %d", l.Len(), len(want)-1)
			}
			churnUntil(t, l, 400, func() bool { return compactions.Load() > 0 }) // markers in neither table
			if got := rpki.NewSet(l.Snapshot().AppendVRPs(nil)); !got.Equal(rpki.NewSet(want[1:])) {
				t.Fatalf("after the fresh compaction: %d VRPs, want %d", got.Len(), len(want)-1)
			}
		})
	}
}

// TestTableStartsNoGoroutine pins that a write-side table is plain data until
// its garbage crosses the compaction threshold: building one, a first full
// sync into it, resetting it and path-copying small deltas start nothing.
func TestTableStartsNoGoroutine(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	base := randomTable(rng, 2000)
	before := runtime.NumGoroutine()
	tab := NewTable(nil)
	tab.Apply(base, nil)
	tab.ResetTo(base[:1500])
	for k := 0; k < 20; k++ {
		tab.Apply([]rpki.VRP{markerVRP(k)}, base[k:k+1])
	}
	tab.mu.Lock()
	compacting, garbage := tab.compacting, tab.garbageNodes
	tab.mu.Unlock()
	if compacting || garbage == 0 {
		t.Fatalf("compacting=%v with %d garbage nodes: the small deltas should have path-copied without compacting", compacting, garbage)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after using a Table, %d before", after, before)
	}
	if tab.Len() != 1500 {
		t.Fatalf("table holds %d VRPs, want 1500", tab.Len())
	}
}

// TestLiveIndexSnapshotPersistence pins the snapshot-swap contract: a
// snapshot taken before a delta keeps answering with its own table version
// after arbitrarily many later Applies (including compactions).
func TestLiveIndexSnapshotPersistence(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 16, AS: 1}
	l := NewLiveIndex(rpki.NewSet([]rpki.VRP{v1}))
	old := l.Snapshot()
	q := mp("10.5.0.0/16")

	if got := old.Validate(q, 1); got != Valid {
		t.Fatalf("pre-delta snapshot: %v", got)
	}
	// Churn hard enough to force several compactions.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		v := randomVRP(rng)
		l.Apply([]rpki.VRP{v}, []rpki.VRP{v})
	}
	l.Apply(nil, []rpki.VRP{v1})
	if got := l.Validate(q, 1); got != NotFound {
		t.Fatalf("live after withdraw: %v, want NotFound", got)
	}
	if got := old.Validate(q, 1); got != Valid {
		t.Fatalf("old snapshot mutated by later deltas: %v, want Valid", got)
	}
	if old.Len() != 1 || l.Len() != 0 {
		t.Fatalf("Len: snapshot %d (want 1), live %d (want 0)", old.Len(), l.Len())
	}
}

// TestLiveIndexCompaction drives enough delta churn through a small table
// to cross the compaction thresholds repeatedly and asserts the shared
// slabs stay bounded — the arena must not grow with the number of applied
// deltas, only with the live set.
func TestLiveIndexCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var base []rpki.VRP
	for i := 0; i < 50; i++ {
		base = append(base, randomVRP(rng))
	}
	l := NewLiveIndex(rpki.NewSet(base))
	for i := 0; i < 5000; i++ {
		v := randomVRP(rng)
		l.Apply([]rpki.VRP{v}, nil)
		l.Apply(nil, []rpki.VRP{v})
	}
	settle(t, l)
	snap := l.Snapshot()
	total := len(snap.fams[0].eng.Nodes) + len(snap.fams[1].eng.Nodes)
	// 10000 applied deltas × ~30-bit paths would be ~300k nodes without
	// compaction; the live set needs a few thousand at most.
	if total > 40000 {
		t.Fatalf("node slabs grew with delta count: %d nodes for %d live VRPs", total, snap.Len())
	}
	if len(snap.entries) > 40000 {
		t.Fatalf("entry slab grew with delta count: %d", len(snap.entries))
	}
	// And the table is still exactly base (every churned VRP was withdrawn;
	// collisions with base VRPs re-announced them, so compare as sets).
	want := rpki.NewSet(base)
	ref := NewReference(want)
	if l.Len() != want.Len() {
		t.Fatalf("live %d VRPs, want %d", l.Len(), want.Len())
	}
	for q := 0; q < 500; q++ {
		r := randomProbe(rng)
		if got, wantS := l.Validate(r.Prefix, r.Origin), ref.Validate(r.Prefix, r.Origin); got != wantS {
			t.Fatalf("after churn: Validate(%s, %v) = %v, want %v", r.Prefix, r.Origin, got, wantS)
		}
	}
}

// TestLiveIndexConcurrentReaders runs lock-free readers against a writer whose
// deltas, rebuild installs and resets interleave (under -race this pins the
// view-swap memory contract). Readers validate whole batches through the
// LiveIndex, and every batch must have been answered at one table version:
// each delta toggles two VRPs whose prefixes sit at the two ends of the
// batch, so states taken from two versions match the Index of neither. Once
// the writer goes quiet every rebuild has been installed or discarded, and
// every goroutine it started has exited.
func TestLiveIndexConcurrentReaders(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(5))
	state := map[rpki.VRP]struct{}{}
	for _, v := range randomTable(rng, 400) {
		state[v] = struct{}{}
	}
	l := NewLiveIndex(setOf(state))

	const pairs = 16
	routes := make([]Route, 0, 256)
	for k := 0; k < pairs; k++ {
		routes = append(routes, Route{Prefix: markerVRP(2 * k).Prefix, Origin: markerVRP(2 * k).AS})
	}
	for len(routes) < cap(routes)-pairs {
		routes = append(routes, randomProbe(rng))
	}
	for k := pairs - 1; k >= 0; k-- {
		routes = append(routes, Route{Prefix: markerVRP(2*k + 1).Prefix, Origin: markerVRP(2*k + 1).AS})
	}

	// versions[j] is the table after the writer's j-th operation; nver trails
	// the publication by at most one.
	versions := []*Index{l.Snapshot()}
	var nver atomic.Int64
	nver.Store(1)
	type sample struct {
		lo, hi int64
		states []State
	}
	samples := make([][]sample, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range samples {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := nver.Load()
				states := l.ValidateBatch(routes, nil)
				if len(samples[r]) < 400 {
					samples[r] = append(samples[r], sample{lo, nver.Load(), states})
				}
			}
		}()
	}
	// The writer cycles until the readers have been answered through both
	// halves: on a busy host its first 1,500 operations can be over before any
	// batch lands on a view that holds a compact half. The ceiling bounds the
	// versions kept, not the expected run.
	seenBoth := func() bool {
		st := l.Stats()
		return st.CompactRoutes > 0 && st.FallbackRoutes > 0
	}
	for i := 0; i < 1500 || (i < 30000 && !seenBoth()); i++ {
		k := i % pairs
		pair := []rpki.VRP{markerVRP(2 * k), markerVRP(2*k + 1)}
		short := randomVRP(rng) // now and then short enough to make a rebuild due at once
		switch _, on := state[pair[0]]; {
		case i%100 == 99:
			l.ResetTo(setOf(state).VRPs())
		case on:
			l.Apply([]rpki.VRP{short}, pair)
			state[short] = struct{}{}
			delete(state, pair[0])
			delete(state, pair[1])
		default:
			l.Apply(pair, []rpki.VRP{short})
			state[pair[0]], state[pair[1]] = struct{}{}, struct{}{}
			delete(state, short)
		}
		versions = append(versions, l.Snapshot())
		nver.Store(int64(len(versions)))
	}
	close(stop)
	wg.Wait()
	settle(t, l)
	st := quiesce(t, l)
	if st.RebuildsInstalled < 2 || st.CompactRoutes == 0 || st.FallbackRoutes == 0 {
		t.Fatalf("the readers saw no compact half come and go: %+v", st)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with the writer quiet, %d before the index was built", runtime.NumGoroutine(), baseline)
		}
	}
	checkLive(t, l, state, routes, "at rest")

	want := make([][]State, len(versions))
	for r := range samples {
		for n, sm := range samples[r] {
			matched := false
			for u := sm.lo - 1; u <= sm.hi && u < int64(len(versions)) && !matched; u++ {
				if want[u] == nil {
					want[u] = versions[u].ValidateBatch(routes, nil)
				}
				matched = slices.Equal(sm.states, want[u])
			}
			if !matched {
				t.Fatalf("reader %d batch %d matches no single table version among %d..%d", r, n, sm.lo-1, sm.hi)
			}
		}
	}
}

// TestLiveIndexCompactSwitchover runs readers that hold each structure of a
// view by itself — a compact snapshot whenever one describes the current
// version, the bit trie always — across a writer's churn. Whatever they hold
// must stay internally consistent (its answers match a reference built from
// its own exported table) no matter how many versions have been published
// since. The same readers validate through the LiveIndex and so pay for the
// compact half: it must have been rebuilt, repeatedly, by the end of the
// churn, and at rest the view — compact half, overlay and all — answers as
// its bit trie does.
func TestLiveIndexCompactSwitchover(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	var base []rpki.VRP
	for i := 0; i < 200; i++ {
		base = append(base, randomVRP(rng))
	}
	l := NewLiveIndex(rpki.NewSet(base))
	if l.CompactSnapshot() == nil {
		t.Fatal("NewLiveIndex did not publish a compact snapshot")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c := l.CompactSnapshot(); c != nil {
					ref := NewReference(rpki.NewSet(c.AppendVRPs(nil)))
					for q := 0; q < 40; q++ {
						p := randomProbe(rng)
						if got, want := c.Validate(p.Prefix, p.Origin), ref.Validate(p.Prefix, p.Origin); got != want {
							t.Errorf("compact snapshot inconsistent: Validate(%s, %v) = %v, want %v", p.Prefix, p.Origin, got, want)
							return
						}
					}
				}
				snap := l.Snapshot()
				ref := NewReference(rpki.NewSet(snap.AppendVRPs(nil)))
				for q := 0; q < 20; q++ {
					p := randomProbe(rng)
					if got, want := snap.Validate(p.Prefix, p.Origin), ref.Validate(p.Prefix, p.Origin); got != want {
						t.Errorf("bit snapshot inconsistent: Validate(%s, %v) = %v, want %v", p.Prefix, p.Origin, got, want)
						return
					}
					l.Validate(p.Prefix, p.Origin)
				}
			}
		}(int64(300 + r))
	}
	for i := 0; i < 1500 || l.Stats().RebuildsInstalled < 2; i++ {
		if i == 200000 {
			t.Fatalf("the compact half never cycled: %+v", l.Stats())
		}
		v := randomVRP(rng)
		l.Apply([]rpki.VRP{v}, nil)
		l.Apply(nil, []rpki.VRP{v})
	}
	close(stop)
	wg.Wait()
	settle(t, l)
	quiesce(t, l)

	snap := l.Snapshot()
	if c := l.CompactSnapshot(); c != nil && c.Len() != snap.Len() {
		t.Fatalf("compact Len %d, bit Len %d", c.Len(), snap.Len())
	}
	for q := 0; q < 1000; q++ {
		p := randomProbe(rng)
		if got, want := l.Validate(p.Prefix, p.Origin), snap.Validate(p.Prefix, p.Origin); got != want {
			t.Fatalf("settled view disagrees with its bit trie: Validate(%s, %v) = %v, want %v (%+v)", p.Prefix, p.Origin, got, want, l.Stats())
		}
	}
}

// TestValidateBatchMatchesValidate pins the batch API to the single-query
// path, including dst reuse.
func TestValidateBatchMatchesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var vrps []rpki.VRP
	for i := 0; i < 300; i++ {
		vrps = append(vrps, randomVRP(rng))
	}
	ix := NewIndex(rpki.NewSet(vrps))
	var routes []Route
	for q := 0; q < 4000; q++ {
		routes = append(routes, randomProbe(rng))
	}
	routes = append(routes, Route{}) // zero Route: invalid prefix → NotFound
	want := make([]State, len(routes))
	for i, q := range routes {
		want[i] = ix.Validate(q.Prefix, q.Origin)
	}
	got := ix.ValidateBatch(routes, nil)
	for i := range routes {
		if got[i] != want[i] {
			t.Fatalf("batch[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// dst reuse must not reallocate.
	reused := ix.ValidateBatch(routes, got)
	if &reused[0] != &got[0] {
		t.Fatal("batch reallocated a sufficient dst")
	}
}

// markerVRP returns a distinct, deterministic IPv4 /24 VRP for test deltas
// that must not collide with the randomVRP space.
func markerVRP(k int) rpki.VRP {
	addr := uint64(198<<24|18<<16|(k&0xff)<<8) << 32
	p, err := prefix.Make(prefix.IPv4, addr, 0, 24)
	if err != nil {
		panic(err)
	}
	return rpki.VRP{Prefix: p, MaxLength: 24, AS: rpki.ASN(7000 + k)}
}

// TestLiveIndexBackgroundCompactionApplyLatency pins the property background
// compaction exists for: while a compaction is stalled mid-rebuild, Apply
// keeps landing deltas — each immediately visible in a fresh snapshot —
// instead of paying the O(live set) rebuild in its own latency, and the
// rebuild's eventual publish includes every one of them. Concurrent readers
// pin snapshot consistency during the compaction under -race.
func TestLiveIndexBackgroundCompactionApplyLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var base []rpki.VRP
	for i := 0; i < 400; i++ {
		base = append(base, randomVRP(rng))
	}
	l := NewLiveIndex(rpki.NewSet(base))
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	l.tab.mu.Lock()
	l.tab.compactHook = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	l.tab.mu.Unlock()

	// Readers validate arbitrary snapshots against a reference built from
	// the very same snapshot for the whole test, including the stalled
	// compaction and its publish.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := l.Snapshot()
				ref := NewReference(rpki.NewSet(snap.AppendVRPs(nil)))
				for q := 0; q < 30; q++ {
					p := randomProbe(rng)
					if got, want := snap.Validate(p.Prefix, p.Origin), ref.Validate(p.Prefix, p.Origin); got != want {
						t.Errorf("snapshot inconsistent during compaction: Validate(%s, %v) = %v, want %v", p.Prefix, p.Origin, got, want)
						return
					}
				}
			}
		}(int64(40 + r))
	}

	// Churn until a compaction launches and stalls inside the hook. A churned
	// VRP that happens to collide with a base VRP removes it (announce is a
	// no-op, withdraw wins), so the expected table is tracked exactly.
	state := map[rpki.VRP]struct{}{}
	for _, v := range rpki.NewSet(base).VRPs() {
		state[v] = struct{}{}
	}
	stalled := false
	for i := 0; i < 200000 && !stalled; i++ {
		v := randomVRP(rng)
		l.Apply([]rpki.VRP{v}, nil)
		l.Apply(nil, []rpki.VRP{v})
		delete(state, v)
		select {
		case <-started:
			stalled = true
		default:
		}
	}
	if !stalled {
		t.Fatal("churn never triggered a compaction")
	}

	// With the rebuild stalled, every Apply must still complete and publish:
	// the marker is visible in the snapshot the moment Apply returns, and
	// the compactor stays parked in the hook (Apply never waits for it).
	const markers = 40
	for k := 0; k < markers; k++ {
		v := markerVRP(k)
		l.Apply([]rpki.VRP{v}, nil)
		if got := l.Validate(v.Prefix, v.AS); got != Valid {
			t.Fatalf("marker %d not visible immediately after Apply during stalled compaction: %v", k, got)
		}
	}
	l.tab.mu.Lock()
	busy := l.tab.compacting
	l.tab.mu.Unlock()
	if !busy {
		t.Fatal("compaction finished while its hook was held — Apply must not have published the markers through it")
	}

	// Release the rebuild; its publish must catch up with the markers.
	close(release)
	settle(t, l)
	close(stop)
	wg.Wait()
	for k := 0; k < markers; k++ {
		v := markerVRP(k)
		if got := l.Validate(v.Prefix, v.AS); got != Valid {
			t.Fatalf("marker %d lost by compaction publish: %v", k, got)
		}
	}
	// Full differential against the expected table.
	want := make([]rpki.VRP, 0, len(state)+markers)
	for v := range state {
		want = append(want, v)
	}
	for k := 0; k < markers; k++ {
		want = append(want, markerVRP(k))
	}
	set := rpki.NewSet(want)
	if l.Len() != set.Len() {
		t.Fatalf("live %d VRPs, want %d", l.Len(), set.Len())
	}
	ref := NewReference(set)
	for q := 0; q < 500; q++ {
		r := randomProbe(rng)
		if got, wantS := l.Validate(r.Prefix, r.Origin), ref.Validate(r.Prefix, r.Origin); got != wantS {
			t.Fatalf("after compaction: Validate(%s, %v) = %v, want %v", r.Prefix, r.Origin, got, wantS)
		}
	}
}

// TestLiveIndexResetTo pins the reset-and-replace path: the table is swapped
// wholesale, older snapshots keep their version, and a reset racing an
// in-flight compaction wins — the compactor's rebuild of the replaced table
// is discarded, never resurrecting pre-reset data.
func TestLiveIndexResetTo(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 16, AS: 1}
	v2 := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	l := NewLiveIndex(rpki.NewSet([]rpki.VRP{v1}))
	old := l.Snapshot()

	l.ResetTo([]rpki.VRP{v2})
	if got := l.Validate(mp("10.5.0.0/16"), 1); got != NotFound {
		t.Fatalf("replaced VRP still validates: %v", got)
	}
	if got := l.Validate(v2.Prefix, v2.AS); got != Valid {
		t.Fatalf("reset table VRP: %v, want Valid", got)
	}
	if got := old.Validate(mp("10.5.0.0/16"), 1); got != Valid {
		t.Fatalf("pre-reset snapshot mutated: %v, want Valid", got)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after reset = %d, want 1", l.Len())
	}

	// Reset racing a stalled compaction: the rebuild must be discarded.
	rng := rand.New(rand.NewSource(31))
	var base []rpki.VRP
	for i := 0; i < 400; i++ {
		base = append(base, randomVRP(rng))
	}
	l = NewLiveIndex(rpki.NewSet(base))
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	l.tab.mu.Lock()
	l.tab.compactHook = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	l.tab.mu.Unlock()
	stalled := false
	for i := 0; i < 200000 && !stalled; i++ {
		v := randomVRP(rng)
		l.Apply([]rpki.VRP{v}, nil)
		l.Apply(nil, []rpki.VRP{v})
		select {
		case <-started:
			stalled = true
		default:
		}
	}
	if !stalled {
		t.Fatal("churn never triggered a compaction")
	}
	reset := []rpki.VRP{v1, v2}
	l.ResetTo(reset)
	close(release)
	waitCompactor(t, &l.tab) // the doomed compaction observes the reset and discards
	if l.Len() != 2 {
		t.Fatalf("Len after reset-during-compaction = %d, want 2 (stale rebuild published?)", l.Len())
	}
	ref := NewReference(rpki.NewSet(reset))
	for q := 0; q < 500; q++ {
		r := randomProbe(rng)
		if got, want := l.Validate(r.Prefix, r.Origin), ref.Validate(r.Prefix, r.Origin); got != want {
			t.Fatalf("after reset-during-compaction: Validate(%s, %v) = %v, want %v", r.Prefix, r.Origin, got, want)
		}
	}
	// The index keeps working: deltas apply on the reset table.
	l.Apply(nil, []rpki.VRP{v2})
	if got := l.Validate(v2.Prefix, v2.AS); got != NotFound || l.Len() != 1 {
		t.Fatalf("delta after reset: %v len %d, want NotFound len 1", got, l.Len())
	}
}

// TestCompactionCatchesUpUnderChurn pins the catch-up contract: a compaction
// whose rebuild falls thousands of deltas behind — here: wedged — stores
// nothing meanwhile, starts no second compactor, and on release publishes
// once, a table equal to the applied history: Diff(rebuilt-from snapshot,
// current snapshot) is the net effect of announce-then-withdraw,
// withdraw-then-re-announce, repeats and no-ops alike. Snapshots taken
// before, during and after keep their tables.
func TestCompactionCatchesUpUnderChurn(t *testing.T) {
	v4only := func(rng *rand.Rand) rpki.VRP {
		for {
			if v := randomVRP(rng); v.Prefix.Family() == prefix.IPv4 {
				return v
			}
		}
	}
	for _, tc := range []struct {
		name string
		draw func(*rand.Rand) rpki.VRP
	}{{"both families", randomVRP}, {"IPv6 empty", v4only}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			state := map[rpki.VRP]struct{}{}
			for len(state) < 400 {
				state[tc.draw(rng)] = struct{}{}
			}
			l := NewLiveIndex(setOf(state))
			// The churned VRPs: half in the table to begin with, half not.
			pool := setOf(state).VRPs()[:100]
			for len(pool) < 200 {
				pool = append(pool, tc.draw(rng))
			}
			type pinned struct {
				when string
				ix   *Index
				want []rpki.VRP
			}
			pin := func(when string) pinned { return pinned{when, l.Snapshot(), setOf(state).VRPs()} }
			pins := []pinned{pin("before the compaction")}

			compactions := countCompactions(&l.tab)
			started, release := wedgeCompactions(&l.tab)
			churnUntil(t, l, 0, func() bool { return started.Load() > 0 })

			const deltas = 3000
			for i := 0; i < deltas; i++ {
				v := pool[rng.Intn(len(pool))]
				one := []rpki.VRP{v}
				switch rng.Intn(6) {
				case 0: // announce, a no-op when present
					l.Apply(one, nil)
					state[v] = struct{}{}
				case 1: // withdraw, a no-op when absent
					l.Apply(nil, one)
					delete(state, v)
				case 2: // announce then withdraw
					l.Apply(one, nil)
					l.Apply(nil, one)
					delete(state, v)
				case 3: // withdraw then re-announce
					l.Apply(nil, one)
					l.Apply(one, nil)
					state[v] = struct{}{}
				case 4: // both in one delta: withdraw wins
					l.Apply(one, one)
					delete(state, v)
				case 5: // a repeat within one delta, and an empty one
					l.Apply([]rpki.VRP{v, v}, nil)
					l.Apply(nil, nil)
					state[v] = struct{}{}
				}
				if i == deltas/2 {
					pins = append(pins, pin("during the compaction"))
				}
			}
			if n, c := started.Load(), compactions.Load(); n != 1 || c != 0 {
				t.Fatalf("%d compactors started and %d compactions published while the first was wedged", n, c)
			}

			close(release)
			waitCompactor(t, &l.tab)
			if n, c := started.Load(), compactions.Load(); n != 1 || c != 1 {
				t.Fatalf("%d compactors ran and %d compactions published, want one of each", n, c)
			}
			pins = append(pins, pin("after the compaction"))
			if pins[0].ix.fams[0].eng.SharedArena(&l.Snapshot().fams[0].eng) {
				t.Fatal("the published table still lives in the slabs the compaction was to retire")
			}
			if l.Len() != len(state) {
				t.Fatalf("Len() = %d, want %d", l.Len(), len(state))
			}
			l.Apply(pool[:1], nil) // the caught-up slabs take deltas
			l.Apply(nil, pool[:1])
			delete(state, pool[0])
			pins = append(pins, pin("after a later delta"))
			for _, p := range pins {
				extra, missing := naiveSetDiff(p.want, p.ix.AppendVRPs(nil))
				if len(extra) != 0 || len(missing) != 0 || p.ix.Len() != len(p.want) {
					t.Fatalf("snapshot taken %s: %d extra, %d missing, Len() %d of %d", p.when, len(extra), len(missing), p.ix.Len(), len(p.want))
				}
				ref := NewReference(rpki.NewSet(p.want))
				for _, q := range probesAround(pool) {
					if got, want := p.ix.Validate(q.Prefix, q.Origin), ref.Validate(q.Prefix, q.Origin); got != want {
						t.Fatalf("snapshot taken %s: Validate(%s, %v) = %v, want %v", p.when, q.Prefix, q.Origin, got, want)
					}
				}
			}
		})
	}
}
