package bgp

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func sampleTable() *Table {
	return NewTable([]Route{
		{Prefix: mp("168.122.0.0/16"), Origin: 111},
		{Prefix: mp("168.122.225.0/24"), Origin: 111},
		{Prefix: mp("87.254.32.0/19"), Origin: 31283},
		{Prefix: mp("87.254.32.0/20"), Origin: 31283},
		{Prefix: mp("87.254.48.0/20"), Origin: 31283},
		{Prefix: mp("87.254.32.0/21"), Origin: 31283},
		{Prefix: mp("10.0.0.0/8"), Origin: 7},
		{Prefix: mp("2001:db8::/32"), Origin: 111},
	})
}

func TestTableBasics(t *testing.T) {
	tbl := sampleTable()
	if tbl.Len() != 8 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if !tbl.Contains(mp("168.122.0.0/16"), 111) {
		t.Error("missing route")
	}
	if tbl.Contains(mp("168.122.0.0/16"), 112) {
		t.Error("wrong-origin route reported present")
	}
	if !tbl.ContainsPrefix(mp("10.0.0.0/8")) || tbl.ContainsPrefix(mp("10.0.0.0/9")) {
		t.Error("ContainsPrefix wrong")
	}
	// Duplicate insertion dedups.
	dup := NewTable(append(tbl.Routes(), Route{Prefix: mp("10.0.0.0/8"), Origin: 7}))
	if dup.Len() != tbl.Len() {
		t.Error("dedup failed")
	}
}

func TestAnnouncementOrigin(t *testing.T) {
	a := Announcement{Prefix: mp("168.122.0.0/16"), Path: []rpki.ASN{3356, 111}}
	if a.Origin() != 111 {
		t.Errorf("Origin = %v", a.Origin())
	}
	if (Announcement{}).Origin() != 0 {
		t.Error("empty path origin must be 0")
	}
	if a.Route() != (Route{Prefix: mp("168.122.0.0/16"), Origin: 111}) {
		t.Error("Route projection wrong")
	}
}

func TestPrefixesOf(t *testing.T) {
	tbl := sampleTable()
	ps := tbl.PrefixesOf(31283)
	if len(ps) != 4 {
		t.Fatalf("PrefixesOf(31283) = %v", ps)
	}
	if len(tbl.PrefixesOf(9999)) != 0 {
		t.Error("unknown origin should have no prefixes")
	}
	// AS 111 announces both an IPv4 and an IPv6 prefix.
	if len(tbl.PrefixesOf(111)) != 3 {
		t.Errorf("PrefixesOf(111) = %v", tbl.PrefixesOf(111))
	}
}

func TestWalkAnnouncedUnder(t *testing.T) {
	tbl := sampleTable()
	// All of AS 31283's announcements sit under 87.254.32.0/19 up to /21.
	var got []string
	n := tbl.WalkAnnouncedUnder(31283, mp("87.254.32.0/19"), 21, func(p prefix.Prefix) {
		got = append(got, p.String())
	})
	if n != 4 || len(got) != 4 {
		t.Fatalf("walk found %d (%v)", n, got)
	}
	want := []string{"87.254.32.0/19", "87.254.32.0/20", "87.254.32.0/21", "87.254.48.0/20"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("walk[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	// maxLen filter.
	if n := tbl.WalkAnnouncedUnder(31283, mp("87.254.32.0/19"), 20, nil); n != 3 {
		t.Errorf("maxLen 20 walk = %d, want 3", n)
	}
	// Origin filter.
	if n := tbl.WalkAnnouncedUnder(111, mp("87.254.32.0/19"), 24, nil); n != 0 {
		t.Errorf("wrong-origin walk = %d, want 0", n)
	}
	// Subtree restriction: only the left /20's subtree.
	if n := tbl.WalkAnnouncedUnder(31283, mp("87.254.32.0/20"), 21, nil); n != 2 {
		t.Errorf("/20 subtree walk = %d, want 2", n)
	}
}

func TestWalkAnnouncedUnderBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var routes []Route
	for i := 0; i < 500; i++ {
		l := uint8(8 + rng.Intn(17))
		p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		routes = append(routes, Route{Prefix: p, Origin: rpki.ASN(rng.Intn(5))})
	}
	tbl := NewTable(routes)
	for trial := 0; trial < 200; trial++ {
		l := uint8(6 + rng.Intn(12))
		p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		origin := rpki.ASN(rng.Intn(5))
		maxLen := l + uint8(rng.Intn(int(32-l)+1))
		want := 0
		for _, r := range tbl.Routes() {
			if r.Origin == origin && p.Contains(r.Prefix) && r.Prefix.Len() <= maxLen {
				want++
			}
		}
		if got := tbl.WalkAnnouncedUnder(origin, p, maxLen, nil); got != want {
			t.Fatalf("WalkAnnouncedUnder(%v, %s, %d) = %d, want %d", origin, p, maxLen, got, want)
		}
	}
}

func TestDeaggStats(t *testing.T) {
	tbl := sampleTable()
	st := tbl.ComputeDeaggStats()
	if st.Routes != 8 {
		t.Errorf("Routes = %d", st.Routes)
	}
	// Subprefix routes: 168.122.225.0/24 (under /16), 87.254.32.0/20,
	// 87.254.48.0/20 (under /19), 87.254.32.0/21 (under /20) = 4.
	if st.SubprefixRoutes != 4 {
		t.Errorf("SubprefixRoutes = %d, want 4", st.SubprefixRoutes)
	}
	// Full sibling parents: 87.254.32.0/19 has both /20 children announced.
	if st.FullSiblingParents != 1 {
		t.Errorf("FullSiblingParents = %d, want 1", st.FullSiblingParents)
	}
}

func TestOrigins(t *testing.T) {
	tbl := sampleTable()
	os := tbl.Origins()
	if len(os) != 3 || os[0] != 7 || os[1] != 111 || os[2] != 31283 {
		t.Errorf("Origins = %v", os)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	in := `# RouteViews-style dump
168.122.0.0/16 3356 111
168.122.225.0/24 111
87.254.32.0/19 3356 6939 31283
2001:db8::/32 111
`
	anns, err := ReadDump(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 4 {
		t.Fatalf("parsed %d announcements", len(anns))
	}
	if anns[0].Origin() != 111 || len(anns[0].Path) != 2 {
		t.Errorf("announcement 0 = %+v", anns[0])
	}
	tbl := TableFromAnnouncements(anns)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	tbl2, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != tbl.Len() {
		t.Errorf("round trip: %d vs %d routes", tbl2.Len(), tbl.Len())
	}
	for i, r := range tbl2.Routes() {
		if r != tbl.Routes()[i] {
			t.Errorf("route %d: %v vs %v", i, r, tbl.Routes()[i])
		}
	}
}

func TestDumpErrors(t *testing.T) {
	for _, bad := range []string{
		"168.122.0.0/16\n",        // no path
		"notaprefix 111\n",        // bad prefix
		"10.0.0.0/8 {1,2}\n",      // AS_SET
		"10.0.0.0/8 3356 bogus\n", // bad ASN
		"10.0.0.0/33 111\n",       // bad length
	} {
		if _, err := ReadDump(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadDump(%q) succeeded", bad)
		}
	}
	// Announcements with empty paths are skipped by TableFromAnnouncements.
	tbl := TableFromAnnouncements([]Announcement{{Prefix: mp("10.0.0.0/8")}})
	if tbl.Len() != 0 {
		t.Error("empty-path announcement should be dropped")
	}
}
