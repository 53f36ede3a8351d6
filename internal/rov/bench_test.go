package rov

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// benchSet builds a 50k-VRP table shaped like a real snapshot (random
// prefixes, many origins), cached across benchmarks in this file.
var benchSetCache *rpki.Set

func benchSet() *rpki.Set {
	if benchSetCache == nil {
		rng := rand.New(rand.NewSource(1))
		var vrps []rpki.VRP
		for i := 0; i < 50000; i++ {
			l := uint8(8 + rng.Intn(17))
			p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: l + uint8(rng.Intn(3)), AS: rpki.ASN(rng.Intn(30000))})
		}
		benchSetCache = rpki.NewSet(vrps)
	}
	return benchSetCache
}

func benchRoutes(n int) []Route {
	rng := rand.New(rand.NewSource(2))
	out := make([]Route, n)
	for i := range out {
		l := uint8(8 + rng.Intn(17))
		p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		out[i] = Route{Prefix: p, Origin: rpki.ASN(rng.Intn(30000))}
	}
	return out
}

// BenchmarkIndexBuild measures the arena build — a finger insert per VRP into
// a slab sized once when the input is in order, not one pointer allocation per
// prefix bit — over one 50k-VRP table in the three orders a builder meets:
// the trie's pre-order (the wire stream, Diff's output, compaction), a Set's
// AS-major order (NewIndex), and shuffled, where the finger helps least.
func BenchmarkIndexBuild(b *testing.B) {
	s := benchSet()
	shuffled := slices.Clone(s.VRPs())
	rand.New(rand.NewSource(4)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name string
		vrps []rpki.VRP
	}{
		{"preorder", NewIndex(s).AppendVRPs(nil)},
		{"as-major", s.VRPs()},
		{"shuffled", shuffled},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ix := newIndexFromVRPs(c.vrps, nil); ix.Len() != s.Len() {
					b.Fatal("short index")
				}
			}
		})
	}
}

// BenchmarkValidateBatch measures batch classification throughput over a
// 50k-VRP table; ns/op is per batch of 8192 routes.
func BenchmarkValidateBatch(b *testing.B) {
	ix := NewIndex(benchSet())
	routes := benchRoutes(8192)
	dst := make([]State, len(routes))
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = ix.ValidateBatch(routes, dst)
		}
	})
}

// BenchmarkCompactFromIndex measures the derivation alone — the walk that
// keeps the compact trie's nodes, aggregation and stride-table fill — over a
// built Index: the price LiveIndex pays per rebuild, and per ResetTo on top of
// BenchmarkIndexBuild.
func BenchmarkCompactFromIndex(b *testing.B) {
	ix := NewIndex(benchSet())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx := CompactFromIndex(ix)
		if cx.Len() != ix.Len() {
			b.Fatal("short compact index")
		}
	}
}

// BenchmarkCompactBuild measures the compact build from a set: an Index
// build plus the derivation.
func BenchmarkCompactBuild(b *testing.B) {
	s := benchSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cx := NewCompactIndex(s)
		if cx.Len() != s.Len() {
			b.Fatal("short compact index")
		}
	}
}

// BenchmarkCompactValidateBatch measures compact batch throughput over the
// same 50k-VRP table and 8192-route batch as BenchmarkValidateBatch, plus
// the sorted variant whose bucket pass trades a permutation allocation for
// slab locality.
func BenchmarkCompactValidateBatch(b *testing.B) {
	cx := NewCompactIndex(benchSet())
	routes := benchRoutes(8192)
	dst := make([]State, len(routes))
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = cx.ValidateBatch(routes, dst)
		}
	})
	b.Run("sorted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = cx.ValidateBatchSorted(routes, dst)
		}
	})
	b.Run("parallel4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = cx.ValidateBatchParallel(routes, dst, 4)
		}
	})
}

// BenchmarkLiveApply measures one announce+withdraw delta pair against a live
// table: cost must track the delta, not the table. one is a single /24 into
// the 50k-VRP table; clustered8 is roa_change's delta — eight /24s of one /21
// — into today's table, where a pair path-copies the union of the eight paths
// twice. garbage-nodes/op is what one pair leaves for compaction, counted
// before the timed loop on paths an earlier pair has created, as they are in a
// table that has seen the edit before.
func BenchmarkLiveApply(b *testing.B) {
	for _, c := range []struct {
		name  string
		table *rpki.Set
		delta []rpki.VRP
	}{
		{"one", benchSet(), []rpki.VRP{{Prefix: prefix.MustParse("198.51.100.0/24"), MaxLength: 24, AS: 64511}}},
		{"clustered8", rpki.NewSet(benchSet().VRPs()[:todaySize]), clustered8(the21, 64511)},
	} {
		l := NewLiveIndex(c.table)
		pair := func() {
			l.Apply(c.delta, nil)
			l.Apply(nil, c.delta)
		}
		pair()
		before, _ := garbage(&l.tab)
		pair()
		after, _ := garbage(&l.tab)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pair()
			}
			b.ReportMetric(float64(after-before), "garbage-nodes/op")
		})
	}
}

// acrossCompaction churns tab until it starts a compaction, applies one
// clustered delta while the compaction is held, lets it publish, and applies
// a second delta, which withdraws the first and announces eight more. It
// returns the snapshot the compaction replaced (the first delta's), the
// compaction's own, and the second delta's: the last two on a new lineage.
func acrossCompaction(tb testing.TB, tab *Table) (last, compacted, first *Index) {
	started, release := wedgeCompactions(tab)
	for i := 0; started.Load() == 0; i++ {
		if i == 1<<20 {
			tb.Fatal("churn never started a compaction")
		}
		v := markerVRP(i % 200)
		tab.Apply([]rpki.VRP{v}, nil)
		tab.Apply(nil, []rpki.VRP{v})
	}
	held := clustered8(the21, 64600)
	tab.Apply(held, nil)
	last = tab.Snapshot()
	close(release)
	waitCompactor(tb, tab)
	compacted = tab.Snapshot()
	tab.Apply(clustered8(the21, 64601), held)
	first = tab.Snapshot()
	if last.fams[0].eng.SharedArena(&compacted.fams[0].eng) {
		tb.Fatal("the compaction did not publish")
	}
	return last, compacted, first
}

// churnedTable returns a table of today's size churned by roa_change's delta
// stream — 64 groups of eight /24s of a /21, announced in turn, then withdrawn
// in turn, so withdrawn chains hang in it — path copied with no compaction,
// until one is due; and the stream's next delta, applied the same way.
func churnedTable(tb testing.TB) (*Table, func()) {
	tab := NewTable(todayTable(tb))
	k := 0
	next := func() {
		g := clustered8(uint64(100<<24|64<<16|(k%64)<<11)<<32, 64500)
		if (k/64)%2 == 0 {
			pathCopy(tab, g, nil)
		} else {
			pathCopy(tab, nil, g)
		}
		k++
	}
	for !compactDue(tab) {
		next()
	}
	return tab, next
}

// compactDue reports whether tab's garbage calls for a compaction.
func compactDue(tab *Table) bool {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	return tab.needCompact(tab.cur.Load())
}

// BenchmarkTableCompact measures one compaction of a churned table of today's
// size (churnedTable), from the snapshot that made it due, with nothing to
// catch up: the rebuild of its VRP stream into fresh slabs and the publish.
func BenchmarkTableCompact(b *testing.B) {
	tab, _ := churnedTable(b)
	src := tab.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.cur.Store(src)
		tab.compact(src, nil)
	}
	if tab.Len() != src.Len() {
		b.Fatalf("the compacted table holds %d VRPs, want %d", tab.Len(), src.Len())
	}
}

// BenchmarkSnapshotDiff measures the diff between two snapshots. The shared/N
// cases walk two snapshots of one LiveIndex history of the 50k-VRP table, N
// applied VRPs apart: the walk skips shared subtrees, so cost must scale with
// N (the divergence), not the table. The independent/1 case diffs two
// unrelated builds of the same tables — no provable sharing, so it pays the
// full-table dual walk and stands as the baseline the shared cases are
// measured against. The parent cases diff a snapshot of today's table against
// its parent, the previous one, as an RTR cache does for a router one serial
// behind: roa_change's clustered delta on one lineage (shared), and a delta
// published right after a compaction (acrossCompaction), which Diff used to
// answer by the full dual walk.
func BenchmarkSnapshotDiff(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		l := NewLiveIndex(benchSet())
		old := l.Snapshot()
		delta := make([]rpki.VRP, n)
		for i := range delta {
			addr := uint64(198<<24|51<<16|100<<8) << 32
			p, err := prefix.Make(prefix.IPv4, addr+uint64(i)<<40, 0, 24)
			if err != nil {
				b.Fatal(err)
			}
			delta[i] = rpki.VRP{Prefix: p, MaxLength: 24, AS: 64511}
		}
		l.Apply(delta, nil)
		nw := l.Snapshot()
		b.Run(fmt.Sprintf("shared/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ann, wd := walkDiff(old, nw)
				if len(ann) != n || len(wd) != 0 {
					b.Fatalf("diff %d/%d, want %d/0", len(ann), len(wd), n)
				}
			}
		})
	}
	tab := NewTable(todayTable(b))
	old := tab.Snapshot()
	tab.Apply(clustered8(the21, 64511), nil)
	nw := tab.Snapshot()
	last, _, first := acrossCompaction(b, tab)
	for _, c := range []struct {
		name    string
		old, nw *Index
		ann, wd int
	}{{"parent/shared", old, nw, 8, 0}, {"parent/acrossCompaction", last, first, 8, 8}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ann, wd := Diff(c.old, c.nw)
				if len(ann) != c.ann || len(wd) != c.wd {
					b.Fatalf("diff %d/%d, want %d/%d", len(ann), len(wd), c.ann, c.wd)
				}
			}
		})
	}
	s := benchSet()
	oldIx := NewIndex(s)
	nwVRPs := append([]rpki.VRP(nil), s.VRPs()...)
	nwVRPs = append(nwVRPs, rpki.VRP{Prefix: prefix.MustParse("198.51.100.0/24"), MaxLength: 24, AS: 64511})
	nwIx := newIndexFromVRPs(nwVRPs, nil)
	b.Run("independent/1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ann, wd := Diff(oldIx, nwIx)
			if len(ann) != 1 || len(wd) != 0 {
				b.Fatalf("diff %d/%d, want 1/0", len(ann), len(wd))
			}
		}
	})
}

// BenchmarkLiveApplyLarge is what a large delta costs, path-copied as every
// delta into a non-empty table is: one Apply of delta ÷ table = 1/64 … 4 new
// VRPs into a table of today's size (33,615 VRPs). Each row includes what the
// delta leaves behind — it waits out the compaction the delta's garbage
// starts, because a router pays for that rebuild too, only later — and
// reports the garbage as a metric. Every iteration starts from a freshly built
// table.
func BenchmarkLiveApplyLarge(b *testing.B) {
	const size = 33615
	all := benchSet().VRPs()
	base := all[:size]
	// Four tables' worth of VRPs outside base: the rest of benchSet, then the
	// same random shape at an AS range benchSet does not use.
	fresh := append([]rpki.VRP(nil), all[size:]...)
	seen := map[rpki.VRP]bool{}
	rng := rand.New(rand.NewSource(3))
	for len(fresh) < 4*size {
		l := uint8(8 + rng.Intn(17))
		p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		v := rpki.VRP{Prefix: p, MaxLength: l, AS: rpki.ASN(40000 + rng.Intn(30000))}
		if !seen[v] {
			seen[v] = true
			fresh = append(fresh, v)
		}
	}
	for _, r := range []struct {
		name string
		ops  int
	}{
		{"1_64", size / 64}, {"1_16", size / 16}, {"1_8", size / 8}, {"1_4", size / 4},
		{"1_3", size / 3}, {"1_2", size / 2}, {"1", size}, {"4", 4 * size},
	} {
		delta := fresh[:r.ops]
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			garbage := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				t := NewTable(base)
				b.StartTimer()
				t.mu.Lock()
				t.applyDelta(t.cur.Load(), delta, nil)
				garbage = t.garbageNodes
				for t.compacting {
					t.mu.Unlock()
					runtime.Gosched()
					t.mu.Lock()
				}
				t.mu.Unlock()
				if t.Len() != size+r.ops {
					b.Fatalf("table holds %d VRPs, want %d", t.Len(), size+r.ops)
				}
			}
			b.ReportMetric(float64(garbage), "garbage-nodes")
		})
	}
}

// todaySize is today's table (Table 1's status-quo row after compression).
const todaySize = 33615

// liveWithOverlay returns a LiveIndex over today's table that readers have
// paid for, with one path-copied delta applied that sends share of routes to
// the bit trie: a /24 VRP at a route's base address marks the route's bits
// in the overlay whether or not it covers the route. Routes are touched in
// order until enough of them fall back.
func liveWithOverlay(tb testing.TB, routes []Route, share float64) *LiveIndex {
	l := NewLiveIndex(rpki.NewSet(benchSet().VRPs()[:todaySize]))
	pay(l, routes)
	var delta []rpki.VRP
	var o overlay
	for _, r := range routes {
		fall := 0
		for _, q := range routes {
			if o.covers(q.Prefix) {
				fall++
			}
		}
		if float64(fall) >= share*float64(len(routes)) {
			break
		}
		hi, _ := r.Prefix.Bits()
		p, err := prefix.Make(prefix.IPv4, hi&^(1<<40-1), 0, 24)
		if err != nil {
			tb.Fatal(err)
		}
		delta = append(delta, rpki.VRP{Prefix: p, MaxLength: 24, AS: 64511})
		o.mark(delta[len(delta)-1:])
	}
	l.Apply(delta, nil)
	if st := l.Stats(); len(delta) > 0 && (!st.CompactHeld || st.Marks != 2*len(delta) || st.RebuildsStarted != 0) {
		tb.Fatalf("overlay state not reached: %+v", st)
	}
	return l
}

// BenchmarkLiveValidateBatch is what validate_churn's throughput is made of:
// one 8,192-route batch through a LiveIndex over today's table with nothing
// touched (CompactIndex.ValidateBatch plus one atomic add), with an overlay
// sending 1 % and 5 % of the routes to the bit trie, and with no compact half.
func BenchmarkLiveValidateBatch(b *testing.B) {
	routes := benchRoutes(8192)
	dst := make([]State, len(routes))
	for _, c := range []struct {
		name  string
		share float64
	}{{"quiet", 0}, {"overlay-1pct", 0.01}, {"overlay-5pct", 0.05}} {
		l := liveWithOverlay(b, routes, c.share)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			before := l.Stats()
			for i := 0; i < b.N; i++ {
				dst = l.ValidateBatch(routes, dst)
			}
			after := l.Stats()
			b.ReportMetric(float64(after.FallbackRoutes-before.FallbackRoutes)/float64(b.N*len(routes)), "fallback-share")
		})
	}
	idle := NewLiveIndex(rpki.NewSet(benchSet().VRPs()[:todaySize]))
	idle.Apply([]rpki.VRP{markerVRP(0)}, nil) // nobody has read: the compact half goes
	b.Run("bit-trie", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = idle.ValidateBatch(routes, dst)
		}
	})
}

// BenchmarkLiveApplyOverlay is validate_churn's delta — 32 table VRPs out, 32
// /24s in, and back — into a LiveIndex that keeps its compact half, so that
// each Apply also marks the overlay, beside one nobody validates through,
// which drops the compact half at the first delta and marks nothing: the
// difference is what the overlay costs the write path. The VRPs going out
// are /16s and longer, as nearly all of a real table's are; benchSet's /8s
// would each mark a block of 1,024 words.
func BenchmarkLiveApplyOverlay(b *testing.B) {
	var out []rpki.VRP
	for _, v := range benchSet().VRPs()[:todaySize] {
		if v.Prefix.Len() >= 16 && len(out) < 32 {
			out = append(out, v)
		}
	}
	in := make([]rpki.VRP, 32)
	for k := range in {
		in[k] = markerVRP(k)
	}
	// Readers keep paying for the compact half: a quarter of a rebuild's price
	// between two applies, where the overlay fills (rebuildMarks, 2,024 marks
	// an apply) in five at the least, so every rebuild due is paid for.
	routes := benchRoutes(rebuildPaysAfter * todaySize / 4)
	var dst []State
	for _, c := range []struct {
		name string
		l    *LiveIndex
	}{
		{"marked", liveWithOverlay(b, routes, 0)},
		{"idle", NewLiveIndex(rpki.NewSet(benchSet().VRPs()[:todaySize]))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					c.l.Apply(in, out)
				} else {
					c.l.Apply(out, in)
				}
				if c.name == "marked" {
					b.StopTimer()
					dst = c.l.ValidateBatch(routes, dst)
					b.StartTimer()
				}
			}
			if st := c.l.Stats(); st.CompactHeld != (c.name == "marked") {
				b.Fatalf("%+v", st)
			}
		})
	}
}
