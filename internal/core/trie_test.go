package core

import (
	"math/rand"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func v(p string, ml uint8, as rpki.ASN) rpki.VRP {
	return rpki.VRP{Prefix: mp(p), MaxLength: ml, AS: as}
}

func TestTrieInsertLookup(t *testing.T) {
	tr := NewTrie(111, prefix.IPv4)
	tr.Insert(mp("168.122.0.0/16"), 24)
	tr.Insert(mp("168.122.225.0/24"), 24)
	if tr.Size() != 2 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if ml, ok := tr.Lookup(mp("168.122.0.0/16")); !ok || ml != 24 {
		t.Errorf("Lookup /16 = %d, %v", ml, ok)
	}
	if _, ok := tr.Lookup(mp("168.122.0.0/17")); ok {
		t.Error("structural node reported present")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTrieInsertDuplicateKeepsLargerMaxLength(t *testing.T) {
	tr := NewTrie(1, prefix.IPv4)
	tr.Insert(mp("10.0.0.0/8"), 10)
	tr.Insert(mp("10.0.0.0/8"), 16)
	tr.Insert(mp("10.0.0.0/8"), 12) // smaller: ignored
	if tr.Size() != 1 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if ml, _ := tr.Lookup(mp("10.0.0.0/8")); ml != 16 {
		t.Errorf("value = %d, want 16", ml)
	}
}

func TestTrieInsertPanics(t *testing.T) {
	tr := NewTrie(1, prefix.IPv4)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("family mismatch", func() { tr.Insert(mp("2001:db8::/32"), 32) })
	mustPanic("maxLength < len", func() { tr.Insert(mp("10.0.0.0/8"), 4) })
	mustPanic("VRP AS mismatch", func() { tr.InsertVRP(v("10.0.0.0/8", 8, 2)) })
}

func TestTrieAuthorizes(t *testing.T) {
	tr := NewTrie(111, prefix.IPv4)
	tr.Insert(mp("168.122.0.0/16"), 24)
	cases := []struct {
		q    string
		want bool
	}{
		{"168.122.0.0/16", true},
		{"168.122.225.0/24", true},
		{"168.122.0.0/25", false},
		{"168.0.0.0/8", false},
		{"10.0.0.0/8", false},
	}
	for _, c := range cases {
		if got := tr.Authorizes(mp(c.q)); got != c.want {
			t.Errorf("Authorizes(%s) = %v, want %v", c.q, got, c.want)
		}
	}
	if tr.Authorizes(mp("2001:db8::/32")) {
		t.Error("cross-family authorization")
	}
}

func TestTrieTuplesRoundTrip(t *testing.T) {
	in := []rpki.VRP{
		v("10.0.0.0/8", 8, 1),
		v("10.0.0.0/16", 24, 1),
		v("10.128.0.0/9", 9, 1),
	}
	tr := NewTrie(1, prefix.IPv4)
	for _, x := range in {
		tr.InsertVRP(x)
	}
	got := tr.Tuples(nil)
	if len(got) != 3 {
		t.Fatalf("Tuples = %v", got)
	}
	s1, s2 := rpki.NewSet(in), rpki.NewSet(got)
	if !s1.Equal(s2) {
		t.Errorf("round trip mismatch: %v vs %v", s1.VRPs(), s2.VRPs())
	}
}

func TestCountAuthorized(t *testing.T) {
	tr := NewTrie(1, prefix.IPv4)
	tr.Insert(mp("10.0.0.0/8"), 10)
	// /8 + 2 /9s + 4 /10s = 7.
	if n := tr.CountAuthorized(); n != 7 {
		t.Errorf("CountAuthorized = %d, want 7", n)
	}
	// Overlapping tuple must not double count: /9-10 under /8-10 adds nothing.
	tr.Insert(mp("10.0.0.0/9"), 10)
	if n := tr.CountAuthorized(); n != 7 {
		t.Errorf("CountAuthorized with overlap = %d, want 7", n)
	}
	// Deeper tuple extends the count: /9-11 adds 4 /11s under 10.0/9.
	tr2 := NewTrie(1, prefix.IPv4)
	tr2.Insert(mp("10.0.0.0/8"), 10)
	tr2.Insert(mp("10.0.0.0/9"), 11)
	if n := tr2.CountAuthorized(); n != 11 {
		t.Errorf("CountAuthorized extended = %d, want 11", n)
	}
}

func TestCountAuthorizedBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tr := NewTrie(1, prefix.IPv4)
		type tup struct {
			p  prefix.Prefix
			ml uint8
		}
		var tuples []tup
		for i := 0; i < 1+rng.Intn(6); i++ {
			l := uint8(rng.Intn(9)) // short prefixes keep brute force feasible
			p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
			ml := l + uint8(rng.Intn(int(12-l)))
			tr.Insert(p, ml)
			tuples = append(tuples, tup{p, ml})
		}
		// Brute force: count distinct authorized prefixes up to /12.
		want := uint64(0)
		var rec func(q prefix.Prefix)
		rec = func(q prefix.Prefix) {
			for _, x := range tuples {
				if x.p.Contains(q) && q.Len() <= x.ml {
					want++
					break
				}
			}
			if q.Len() < 12 {
				rec(q.Child(0))
				rec(q.Child(1))
			}
		}
		rec(mp("0.0.0.0/0"))
		if got := tr.CountAuthorized(); got != want {
			t.Fatalf("trial %d: CountAuthorized = %d, want %d (tuples %v)", trial, got, want, tuples)
		}
	}
}

func TestBuildTries(t *testing.T) {
	s := rpki.NewSet([]rpki.VRP{
		v("10.0.0.0/8", 8, 1),
		v("2001:db8::/32", 48, 1),
		v("10.0.0.0/8", 8, 2),
	})
	tries := BuildTries(s)
	if len(tries) != 3 {
		t.Fatalf("BuildTries = %d tries", len(tries))
	}
	for _, tr := range tries {
		if err := tr.checkInvariants(); err != nil {
			t.Error(err)
		}
		if tr.Size() != 1 {
			t.Errorf("trie (%v,%v) size %d", tr.AS(), tr.Family(), tr.Size())
		}
	}
	if tries[0].AS() != 1 || tries[0].Family() != prefix.IPv4 {
		t.Error("group order wrong")
	}
	if tries[1].Family() != prefix.IPv6 {
		t.Error("IPv6 trie missing")
	}
}

// TestGroupNodeHintExact instruments the trie pre-size hint: groupNodeHint
// must equal the built trie's node count exactly (ratio 1.0) on random
// sibling-heavy groups, where the previous estimator — Σ prefix bits — was a
// >2x overestimate. The logged ratios are recorded in ROADMAP.md.
func TestGroupNodeHintExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var sumOld, sumActual, sumHint float64
	groups := 0
	for trial := 0; trial < 40; trial++ {
		set := randomSet(rng, 50+rng.Intn(400))
		for _, g := range groupsOf(set) {
			oldHint := 1
			for _, v := range g.VRPs {
				oldHint += int(v.Prefix.Len())
			}
			hint := groupNodeHint(g)
			tr := buildGroupTrie(g)
			actual := len(tr.nodes)
			if hint != actual {
				t.Fatalf("group %s/%s (%d VRPs): hint %d != actual %d nodes",
					g.AS, g.Family, len(g.VRPs), hint, actual)
			}
			if err := tr.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			tr.Release()
			sumOld += float64(oldHint)
			sumActual += float64(actual)
			sumHint += float64(hint)
			groups++
		}
	}
	t.Logf("%d groups: old Σ-bits hint/actual = %.2f, new lcp hint/actual = %.2f",
		groups, sumOld/sumActual, sumHint/sumActual)
}

// TestGroupNodeHintDuplicatesAndSingles covers the estimator's edge cases:
// a single VRP, duplicate prefixes with different maxLengths (contribute 0
// new nodes), and nested prefixes (contribute only their extra bits).
func TestGroupNodeHintDuplicatesAndSingles(t *testing.T) {
	cases := []struct {
		vrps []rpki.VRP
		want int
	}{
		{[]rpki.VRP{v("10.0.0.0/8", 8, 1)}, 9},
		{[]rpki.VRP{v("10.0.0.0/8", 8, 1), v("10.0.0.0/8", 16, 1)}, 9},
		{[]rpki.VRP{v("10.0.0.0/8", 8, 1), v("10.0.0.0/16", 16, 1)}, 17},
		{[]rpki.VRP{v("10.0.0.0/9", 9, 1), v("10.128.0.0/9", 9, 1)}, 11},
	}
	for _, c := range cases {
		set := rpki.NewSet(c.vrps)
		for _, g := range groupsOf(set) {
			if got := groupNodeHint(g); got != c.want {
				t.Errorf("groupNodeHint(%v) = %d, want %d", c.vrps, got, c.want)
			}
			tr := buildGroupTrie(g)
			if len(tr.nodes) != c.want {
				t.Errorf("built trie for %v has %d nodes, want %d", c.vrps, len(tr.nodes), c.want)
			}
			tr.Release()
		}
	}
}
