package rov

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// pay validates routes through l until readers have paid for a compact build
// twice over — a delta, even one that grows the table, therefore keeps the
// compact half, or rebuilds it.
func pay(l *LiveIndex, routes []Route) {
	var dst []State
	for reads := 0; reads <= 2*rebuildPaysAfter*l.Len(); reads += len(routes) {
		dst = l.ValidateBatch(routes, dst)
	}
}

// probesAround returns the routes on which a change at each VRP's prefix
// could be mishandled by a cover test: the prefix itself, what strictly
// contains it (parent, grandparent), what it strictly contains (children,
// one grandchild) and its sibling, each with the VRP's origin and another.
func probesAround(vrps []rpki.VRP) []Route {
	var out []Route
	for _, v := range vrps {
		p := v.Prefix
		near := []prefix.Prefix{p}
		if p.Len() > 0 {
			near = append(near, p.Parent(), p.Sibling())
		}
		if p.Len() > 1 {
			near = append(near, p.Parent().Parent())
		}
		if p.Len() < p.MaxLen() {
			near = append(near, p.Child(0), p.Child(1))
		}
		if p.Len()+1 < p.MaxLen() {
			near = append(near, p.Child(1).Child(0))
		}
		for _, q := range near {
			out = append(out, Route{Prefix: q, Origin: v.AS}, Route{Prefix: q, Origin: v.AS + 1})
		}
	}
	return out
}

// checkLive holds l — Validate and ValidateBatch — on probes to a freshly
// built Index and the Reference of state, the table l should have.
func checkLive(t *testing.T, l *LiveIndex, state map[rpki.VRP]struct{}, probes []Route, where string) {
	t.Helper()
	set := setOf(state)
	if l.Len() != set.Len() {
		t.Fatalf("%s: live holds %d VRPs, want %d", where, l.Len(), set.Len())
	}
	fresh, ref := NewIndex(set), NewReference(set)
	batch := l.ValidateBatch(probes, nil)
	for i, q := range probes {
		want := ref.Validate(q.Prefix, q.Origin)
		if got := fresh.Validate(q.Prefix, q.Origin); got != want {
			t.Fatalf("%s: fresh Index.Validate(%s, %v) = %v, reference %v", where, q.Prefix, q.Origin, got, want)
		}
		if got := l.Validate(q.Prefix, q.Origin); got != want {
			t.Fatalf("%s: LiveIndex.Validate(%s, %v) = %v, reference %v (%+v)", where, q.Prefix, q.Origin, got, want, l.Stats())
		}
		if batch[i] != want {
			t.Fatalf("%s: LiveIndex.ValidateBatch[%d] (%s, %v) = %v, reference %v (%+v)", where, i, q.Prefix, q.Origin, batch[i], want, l.Stats())
		}
	}
}

// quiesce waits until no rebuild is in flight.
func quiesce(t *testing.T, l *LiveIndex) LiveStats {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := l.Stats(); st.RebuildsStarted == st.RebuildsInstalled+st.RebuildsDiscarded {
			return st
		} else if time.Now().After(deadline) {
			t.Fatalf("a rebuild is still in flight: %+v", st)
		}
	}
}

// via validates one route and reports which half answered it.
func via(t *testing.T, l *LiveIndex, q Route) (State, string) {
	t.Helper()
	before := l.Stats()
	s := l.Validate(q.Prefix, q.Origin)
	after := l.Stats()
	switch {
	case after.CompactRoutes == before.CompactRoutes+1 && after.FallbackRoutes == before.FallbackRoutes:
		return s, "compact"
	case after.FallbackRoutes == before.FallbackRoutes+1 && after.CompactRoutes == before.CompactRoutes:
		return s, "fallback"
	}
	t.Fatalf("Validate(%s) moved the counters from %+v to %+v", q.Prefix, before, after)
	return s, ""
}

// TestLiveOverlayCoverage pins the coverage rule on hand-picked prefixes: with
// the compact half kept across a delta, a route goes to the bit trie exactly
// when a touched prefix may contain it — the touched prefix itself and what
// lies inside it — while routes that merely contain a touched prefix, and
// its siblings, keep the compact answer; and either way the answer is the
// new table's. Covered: both families, touched prefixes longer and shorter
// than the overlay's index bits, a withdraw, one VRP announced and withdrawn
// by one delta, and a delta that changes nothing.
func TestLiveOverlayCoverage(t *testing.T) {
	state := map[rpki.VRP]struct{}{}
	var pad []rpki.VRP
	for k := 0; k < 200; k++ {
		pad = append(pad, markerVRP(k))
		state[markerVRP(k)] = struct{}{}
	}
	old6 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 32, AS: 6}
	state[old6] = struct{}{}
	l := NewLiveIndex(setOf(state))
	pay(l, probesAround(pad))

	apply := func(ann, wd []rpki.VRP) {
		t.Helper()
		l.Apply(ann, wd)
		for _, v := range ann {
			state[v] = struct{}{}
		}
		for _, v := range wd {
			delete(state, v)
		}
		checkLive(t, l, state, probesAround(append(append(pad[:8:8], ann...), wd...)), "after delta")
	}
	expect := func(p string, origin rpki.ASN, want State, half string) {
		t.Helper()
		if got, by := via(t, l, Route{Prefix: mp(p), Origin: origin}); got != want || by != half {
			t.Fatalf("Validate(%s, AS%d) = %v via %s, want %v via %s", p, origin, got, by, want, half)
		}
	}

	long4 := rpki.VRP{Prefix: mp("10.1.3.0/24"), MaxLength: 25, AS: 1}
	short4 := rpki.VRP{Prefix: mp("10.16.0.0/13"), MaxLength: 16, AS: 2}
	long6 := rpki.VRP{Prefix: mp("2001:db8:1::/48"), MaxLength: 48, AS: 3}
	short6 := rpki.VRP{Prefix: mp("2a00::/21"), MaxLength: 24, AS: 4}
	apply([]rpki.VRP{long4, short4, long6, short6}, nil) // 2 × (2,048 + 8) + 4 marks: no rebuild is due in this test
	if st := l.Stats(); !st.CompactHeld || st.Marks == 0 || l.CompactSnapshot() != nil {
		t.Fatalf("the delta did not leave a compact half under an overlay: %+v", st)
	}
	expect("10.1.3.0/24", 1, Valid, "fallback")     // the touched prefix
	expect("10.1.3.128/25", 1, Valid, "fallback")   // strictly inside
	expect("10.1.3.128/26", 1, Invalid, "fallback") // inside, past maxLength
	expect("10.1.2.0/23", 1, NotFound, "compact")   // strictly containing
	expect("10.1.2.0/24", 1, NotFound, "compact")   // sibling
	expect("10.0.0.0/8", 2, NotFound, "compact")    // contains the /13
	expect("10.17.0.0/16", 2, Valid, "fallback")    // inside the /13, which is shorter than either index
	expect("10.24.0.0/16", 2, NotFound, "compact")  // just past the /13's block
	expect("2001:db8:1:2::/64", 3, Invalid, "fallback")
	expect("2001:d00::/24", 6, NotFound, "compact") // contains the /48 and the old /32
	expect("2a00:100::/24", 4, Valid, "fallback")   // inside the /21
	expect("2a00:800::/24", 4, NotFound, "compact") // just past it
	expect("198.18.7.0/24", 7007, Valid, "compact") // an untouched table VRP

	marks := l.Stats().Marks
	apply(nil, []rpki.VRP{old6}) // a withdraw marks as an announce does
	expect("2001:db8:ffff::/48", 6, NotFound, "fallback")
	if l.Stats().Marks <= marks {
		t.Fatal("a withdraw left no mark")
	}

	// A delta of no-ops publishes nothing and marks nothing.
	marks, snap := l.Stats().Marks, l.Snapshot()
	apply([]rpki.VRP{long4}, []rpki.VRP{old6})
	if l.Stats().Marks != marks || l.Snapshot() != snap {
		t.Fatal("a delta that changes nothing published or marked something")
	}
	// One VRP announced and withdrawn by one delta: withdraw wins, whether
	// the VRP was absent before or present.
	both := rpki.VRP{Prefix: mp("172.16.0.0/16"), MaxLength: 16, AS: 5}
	apply([]rpki.VRP{both}, []rpki.VRP{both})
	expect("172.16.0.0/16", 5, NotFound, "fallback")
	apply([]rpki.VRP{long4}, []rpki.VRP{long4})
	expect("10.1.3.0/24", 1, NotFound, "fallback")
}

// TestLiveOverlayAgainstReplaceAndCompaction runs what else publishes
// snapshots against a kept compact half. A rebuild whose table is replaced
// while it builds — by ResetTo or by a first full sync — is discarded, never
// installed, and the replacement's own build stands; a rebuild that deltas
// race is installed with exactly those deltas in its overlay; and a garbage
// compaction swaps the slabs under the overlay without disturbing either.
// The rebuilds are driven by hand (begin, then rebuild), which is what a
// delta's goroutine does, so every interleaving here is deterministic.
func TestLiveOverlayAgainstReplaceAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	base := randomTable(rng, 600)
	state := map[rpki.VRP]struct{}{}
	for _, v := range base {
		state[v] = struct{}{}
	}
	l := NewLiveIndex(setOf(state))
	begin := func() (*Index, *overlay) {
		l.tab.mu.Lock()
		defer l.tab.mu.Unlock()
		return l.Snapshot(), l.begin()
	}
	delta := func(k int) {
		t.Helper()
		v := markerVRP(k)
		l.Apply([]rpki.VRP{v}, nil)
		state[v] = struct{}{}
		checkLive(t, l, state, probesAround([]rpki.VRP{v, base[k]}), "delta during a rebuild")
	}

	// Deltas race a rebuild: it is installed, over the current snapshot, with
	// the overlay that collected them.
	pay(l, probesAround(base[:50]))
	ix, during := begin()
	delta(0)
	delta(1)
	l.rebuild(ix, during)
	st := l.Stats()
	if st.RebuildsInstalled != 1 || !st.CompactHeld || st.Marks != 4 || l.Snapshot() == ix {
		t.Fatalf("raced rebuild: %+v", st)
	}
	checkLive(t, l, state, probesAround(append(base[:50:50], markerVRP(0), markerVRP(1))), "after the raced rebuild")
	if _, by := via(t, l, Route{Prefix: markerVRP(1).Prefix, Origin: 7001}); by != "fallback" {
		t.Fatalf("a VRP announced during the rebuild is answered via %s", by)
	}

	// ResetTo, then a first full sync, during a rebuild: discarded both times.
	for i, replace := range []func(next []rpki.VRP){
		l.ResetTo,
		func(next []rpki.VRP) { // the table withdrawn whole, then synced into
			l.Apply(nil, l.Snapshot().AppendVRPs(nil))
			l.Apply(next, nil)
		},
	} {
		ix, during = begin()
		delta(2 + i)
		next := randomTable(rng, 500)
		replace(next)
		clear(state)
		for _, v := range next {
			state[v] = struct{}{}
		}
		held := l.CompactSnapshot()
		if held == nil || held.Len() != len(next) {
			t.Fatalf("replacement %d returned without its compact half", i)
		}
		before := l.Stats()
		l.rebuild(ix, during)
		after := l.Stats()
		if after.RebuildsDiscarded != before.RebuildsDiscarded+1 || after.RebuildsInstalled != before.RebuildsInstalled || l.CompactSnapshot() != held {
			t.Fatalf("replacement %d: the replaced table's rebuild was not discarded: %+v then %+v", i, before, after)
		}
		checkLive(t, l, state, probesAround(append(next[:50:50], base[:50]...)), "after a discarded rebuild")
	}

	// A garbage compaction under a live overlay: one-VRP deltas until the
	// compactor starts, more of them while it is wedged, and its catch-up
	// swaps the slabs with the compact half and the overlay left as they were.
	base = l.Snapshot().AppendVRPs(nil)
	pay(l, probesAround(base[:50]))
	first := l.Snapshot()
	started, release := wedgeCompactions(&l.tab)
	churnUntil(t, l, 0, func() bool { return started.Load() > 0 })
	for k := 0; k < 10; k++ {
		delta(k)
	}
	close(release)
	settle(t, l)
	quiesce(t, l)
	swapped := !first.fams[0].eng.SharedArena(&l.Snapshot().fams[0].eng)
	if st := l.Stats(); !swapped || !st.CompactHeld || st.Marks == 0 || st.RebuildsStarted != st.RebuildsInstalled+st.RebuildsDiscarded {
		t.Fatalf("swapped=%v, %+v: want a compaction with the compact half still held under its overlay", swapped, st)
	}
	var markers []rpki.VRP
	for k := 0; k < 200; k++ {
		markers = append(markers, markerVRP(k))
	}
	checkLive(t, l, state, probesAround(append(markers, base[:50]...)), "after a compaction under the overlay")
}

// workloadTable returns a table of today's size with a real table's prefix
// lengths where it matters here — nothing shorter than a /16, so one
// withdrawn VRP does not cover a 256th of the address space — and routes
// under its VRPs.
func workloadTable() (table []rpki.VRP, batches [][]Route) {
	rng := rand.New(rand.NewSource(151))
	seen := map[prefix.Prefix]bool{}
	for len(table) < todaySize {
		l := uint8(16 + rng.Intn(9))
		p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		if !seen[p] {
			seen[p] = true
			table = append(table, rpki.VRP{Prefix: p, MaxLength: l + uint8(rng.Intn(2)), AS: rpki.ASN(rng.Intn(30000))})
		}
	}
	for b := 0; b < 8; b++ {
		batch := make([]Route, 8192)
		for i := range batch {
			v := table[rng.Intn(len(table))]
			p := v.Prefix
			for p.Len() < 24 && rng.Intn(2) == 0 {
				p = p.Child(uint8(rng.Intn(2)))
			}
			batch[i] = Route{Prefix: p, Origin: v.AS}
		}
		batches = append(batches, batch)
	}
	return table, batches
}

// churnDelta is validate_churn's delta k: 32 table VRPs out and 32 new /24s
// in on even passes over the 32 groups, the reverse on odd ones.
func churnDelta(table []rpki.VRP, k int) (announce, withdraw []rpki.VRP) {
	g := k % 32
	out := table[g*32 : (g+1)*32]
	in := make([]rpki.VRP, 32)
	for i := range in {
		p, _ := prefix.Make(prefix.IPv4, uint64(203<<24|g<<16|i<<8)<<32, 0, 24)
		in[i] = rpki.VRP{Prefix: p, MaxLength: 24, AS: 64500}
	}
	if (k/32)%2 == 1 {
		return out, in
	}
	return in, out
}

// TestLiveIndexServesCompactUnderChurn is validate_churn in small: today's
// table size, a quiet phase, then 64-VRP deltas at 20 a second for two
// seconds with 8,192-route batches validated between them. At least nine routes in ten must have been
// answered by the compact index, at least one rebuild installed, and the
// answers at the end are the table's.
func TestLiveIndexServesCompactUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("two seconds of wall-clock churn")
	}
	table, batches := workloadTable()
	l := NewLiveIndex(rpki.NewSet(table))
	state := map[rpki.VRP]struct{}{}
	for _, v := range table {
		state[v] = struct{}{}
	}
	const interval, deltas = time.Second / 20, 40
	var dst []State
	pay(l, batches[0]) // the workload's quiet phase
	next := time.Now().Add(interval)
	for k, i := 0, 0; k < deltas; i++ {
		if !time.Now().Before(next) {
			ann, wd := churnDelta(table, k)
			l.Apply(ann, wd)
			for _, v := range ann {
				state[v] = struct{}{}
			}
			for _, v := range wd {
				delete(state, v)
			}
			k++
			next = next.Add(interval)
		}
		dst = l.ValidateBatch(batches[i%len(batches)], dst)
	}
	st := l.Stats()
	share := float64(st.CompactRoutes) / float64(st.CompactRoutes+st.FallbackRoutes)
	t.Logf("%.2f %% of %d routes via the compact index; %+v", 100*share, st.CompactRoutes+st.FallbackRoutes, st)
	if share < 0.9 || st.RebuildsInstalled == 0 || !st.CompactHeld {
		t.Fatalf("compact share %.3f, %+v: want at least 0.9, a rebuild installed and the compact half held", share, st)
	}
	ann, wd := churnDelta(table, deltas-1)
	checkLive(t, l, state, append(probesAround(append(ann, wd...)), batches[0][:512]...), "after the churn")
}

// TestLiveIndexIdleKeepsNoCompactHalf is TestTableStartsNoGoroutine's
// sibling, and what keeps a follower's heap at one index: a LiveIndex nobody
// validates through drops the compact half at its first path-copied delta,
// never rebuilds it and never starts a goroutine — whether it was built over
// its table or by a first full sync — through the same churn that
// makes a validated one rebuild.
func TestLiveIndexIdleKeepsNoCompactHalf(t *testing.T) {
	table, _ := workloadTable()
	before := runtime.NumGoroutine()
	built := NewLiveIndex(rpki.NewSet(table))
	synced := NewLiveIndex(rpki.NewSet(nil))
	synced.Apply(table, nil)
	for i, l := range []*LiveIndex{built, synced} {
		if l.CompactSnapshot() == nil {
			t.Fatalf("index %d starts without its compact half", i)
		}
		for k := 0; k < 40; k++ {
			l.Apply(churnDelta(table, k))
			l.Validate(table[k].Prefix, table[k].AS) // a follower's one probe per delta
			if st := l.Stats(); st.CompactHeld || st.RebuildsStarted != i || st.Marks != 0 {
				t.Fatalf("index %d after delta %d: %+v; want no compact half and no rebuild but the first sync's", i, k, st)
			}
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after churning idle indexes, %d before", after, before)
	}
}
