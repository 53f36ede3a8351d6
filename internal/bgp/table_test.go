package bgp_test

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bgp"
	"repro/internal/prefix"
	"repro/internal/rpki"
	"repro/internal/synth"
)

// The tests in this file pin NewTable's two orders to a comparison-sort
// reference that knows nothing about radix digits.

// referenceOrders returns routes deduplicated in (prefix, origin) order and
// the same routes in (origin, prefix) order.
func referenceOrders(routes []bgp.Route) (byPrefix, byOrigin []bgp.Route) {
	byPrefix = slices.Clone(routes)
	slices.SortFunc(byPrefix, func(a, b bgp.Route) int {
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c
		}
		return cmp.Compare(a.Origin, b.Origin)
	})
	byPrefix = slices.Compact(byPrefix)
	byOrigin = slices.Clone(byPrefix)
	slices.SortFunc(byOrigin, func(a, b bgp.Route) int {
		if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
			return c
		}
		return a.Prefix.Compare(b.Prefix)
	})
	return byPrefix, byOrigin
}

// checkOrders fails unless tbl holds routes in the reference's two orders,
// and, when routes held duplicates, byOrigin's slab is exactly as long as the
// deduplicated routes: a dump's input repeats each route once a peer, and the
// Table must not keep a second slab as long as the input.
func checkOrders(t *testing.T, name string, tbl *bgp.Table, routes []bgp.Route) {
	t.Helper()
	wantP, wantO := referenceOrders(routes)
	if got := tbl.Routes(); !slices.Equal(got, wantP) {
		t.Fatalf("%s: byPrefix holds %d routes, the reference %d, or in another order", name, len(got), len(wantP))
	}
	got := tbl.ByOrigin()
	if !slices.Equal(got, wantO) {
		t.Fatalf("%s: byOrigin holds %d routes, the reference %d, or in another order", name, len(got), len(wantO))
	}
	if len(got) < len(routes) && cap(got) != len(got) {
		t.Fatalf("%s: byOrigin's slab holds %d routes for %d from %d inputs", name, cap(got), len(got), len(routes))
	}
}

var paper struct {
	once  sync.Once
	table *bgp.Table
}

// paperTable returns the paper-scale synth table, built from its routes in
// generator order, and those routes shuffled.
func paperTable() (*bgp.Table, []bgp.Route) {
	paper.once.Do(func() {
		paper.table = synth.Generate(synth.Params6_1()).Table
	})
	shuffled := slices.Clone(paper.table.Routes())
	rand.New(rand.NewSource(31)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return paper.table, shuffled
}

// randomRoutes draws n routes of both families, every length and 32-bit
// origins, so that every radix digit varies; about one in eight repeats an
// earlier route.
func randomRoutes(rng *rand.Rand, n int) []bgp.Route {
	out := make([]bgp.Route, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(8) == 0 {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		fam, hi, lo := prefix.IPv4, rng.Uint64()&^(1<<32-1), uint64(0)
		if rng.Intn(3) == 0 {
			fam, lo = prefix.IPv6, rng.Uint64()
		}
		p, err := prefix.Make(fam, hi, lo, uint8(rng.Intn(int(fam.MaxLen())+1)))
		if err != nil {
			panic(err)
		}
		out = append(out, bgp.Route{Prefix: p, Origin: rpki.ASN(rng.Uint32() >> uint(rng.Intn(32)))})
	}
	return out
}

func TestNewTableMatchesReference(t *testing.T) {
	generated, shuffled := paperTable()
	if generated.Len() < 700_000 {
		t.Fatalf("the paper-scale table holds %d routes", generated.Len())
	}
	// Generator order reaches NewTable only inside synth.Generate: the
	// table it built must hold its own routes in the reference orders.
	checkOrders(t, "paper table, generator order", generated, generated.Routes())
	checkOrders(t, "paper table, shuffled", bgp.NewTable(shuffled), shuffled)
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{2, 3, 100, 5000, 100_000} {
		routes := randomRoutes(rng, n)
		checkOrders(t, "random mixed", bgp.NewTable(routes), routes)
	}
	var peers []bgp.Route // every route seen by 40 peers, as in a dump
	for range 40 {
		peers = append(peers, randomRoutes(rand.New(rand.NewSource(41)), 5000)...)
	}
	rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	checkOrders(t, "40 peers", bgp.NewTable(peers), peers)
	one := randomRoutes(rng, 1)
	checkOrders(t, "one route", bgp.NewTable(one), one)
	checkOrders(t, "empty", bgp.NewTable(nil), nil)
}

// FuzzNewTable builds a table from fuzzer-chosen routes, 14 bytes each: a
// family bit and origin's high bits, a length, the address's top 64 bits,
// IPv6's next 16, and origin's low 16. Both orders must equal the reference.
func FuzzNewTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 16, 168, 122, 0, 0, 0, 0, 0, 0, 0, 0, 0, 111})
	f.Add([]byte{ // a repeat, an IPv6 route below an IPv4 address, a 32-bit origin
		0, 8, 192, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7,
		0, 8, 192, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7,
		1, 48, 32, 1, 13, 184, 0, 0, 0, 0, 0, 0, 0, 7,
		4, 8, 192, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7,
		0, 8, 192, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var routes []bgp.Route
		for ; len(data) >= 14; data = data[14:] {
			fam, lo := prefix.IPv4, uint64(0)
			hi := binary.BigEndian.Uint64(data[2:10])
			if data[0]&1 != 0 {
				fam, lo = prefix.IPv6, uint64(binary.BigEndian.Uint16(data[10:12]))<<48
			} else {
				hi &^= 1<<32 - 1
			}
			p, err := prefix.Make(fam, hi, lo, data[1]%(fam.MaxLen()+1))
			if err != nil {
				t.Fatal(err)
			}
			origin := rpki.ASN(data[0]>>1)<<16 | rpki.ASN(binary.BigEndian.Uint16(data[12:14]))
			routes = append(routes, bgp.Route{Prefix: p, Origin: origin})
		}
		checkOrders(t, "fuzzed", bgp.NewTable(routes), routes)
	})
}

// BenchmarkNewTable builds the paper-scale table, 776,945 routes, from a
// shuffled copy of its routes.
func BenchmarkNewTable(b *testing.B) {
	_, shuffled := paperTable()
	b.ReportAllocs()
	for b.Loop() {
		bgp.NewTable(shuffled)
	}
}
