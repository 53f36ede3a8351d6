package rpki

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prefix"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func TestASN(t *testing.T) {
	if ASN(111).String() != "AS111" {
		t.Errorf("ASN.String = %q", ASN(111).String())
	}
	for _, s := range []string{"AS111", "as111", "111"} {
		a, err := ParseASN(s)
		if err != nil || a != 111 {
			t.Errorf("ParseASN(%q) = %v, %v", s, a, err)
		}
	}
	for _, s := range []string{"", "AS", "ASx", "4294967296", "-1"} {
		if _, err := ParseASN(s); err == nil {
			t.Errorf("ParseASN(%q) succeeded", s)
		}
	}
}

func TestROAPrefixValidate(t *testing.T) {
	ok := ROAPrefix{Prefix: mp("168.122.0.0/16"), MaxLength: 24}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid entry rejected: %v", err)
	}
	if err := (ROAPrefix{Prefix: mp("168.122.0.0/16"), MaxLength: 15}).Validate(); err == nil {
		t.Error("maxLength < len accepted")
	}
	if err := (ROAPrefix{Prefix: mp("168.122.0.0/16"), MaxLength: 33}).Validate(); err == nil {
		t.Error("maxLength > 32 accepted for IPv4")
	}
	if err := (ROAPrefix{Prefix: mp("2001:db8::/32"), MaxLength: 128}).Validate(); err != nil {
		t.Errorf("IPv6 /128 maxLength rejected: %v", err)
	}
	if err := (ROAPrefix{}).Validate(); err == nil {
		t.Error("zero entry accepted")
	}
}

func TestROAPrefixString(t *testing.T) {
	if s := (ROAPrefix{Prefix: mp("168.122.0.0/16"), MaxLength: 24}).String(); s != "168.122.0.0/16-24" {
		t.Errorf("got %q", s)
	}
	if s := (ROAPrefix{Prefix: mp("168.122.0.0/16"), MaxLength: 16}).String(); s != "168.122.0.0/16" {
		t.Errorf("got %q", s)
	}
}

func TestVRPMatchesCovers(t *testing.T) {
	v := VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111}
	// The paper's running example: the ROA (168.122.0.0/16-24, AS 111).
	cases := []struct {
		p       string
		as      ASN
		matches bool
	}{
		{"168.122.0.0/16", 111, true},
		{"168.122.225.0/24", 111, true},
		{"168.122.0.0/17", 111, true},
		{"168.122.0.0/25", 111, false}, // beyond maxLength
		{"168.122.0.0/24", 666, false}, // wrong origin
		{"168.123.0.0/24", 111, false}, // not covered
		{"168.0.0.0/8", 111, false},    // shorter than the ROA prefix
	}
	for _, c := range cases {
		if got := v.Matches(mp(c.p), c.as); got != c.matches {
			t.Errorf("Matches(%s, %v) = %v, want %v", c.p, c.as, got, c.matches)
		}
	}
	if !v.Covers(mp("168.122.0.0/25")) {
		t.Error("/25 is covered even though it exceeds maxLength")
	}
	if v.Covers(mp("168.0.0.0/8")) {
		t.Error("shorter prefix is not covered")
	}
}

func TestVRPAuthorizedCount(t *testing.T) {
	v := VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 18, AS: 111}
	if n := v.AuthorizedCount(); n != 7 {
		t.Errorf("AuthorizedCount = %d, want 7", n)
	}
	v32 := VRP{Prefix: mp("0.0.0.0/0"), MaxLength: 32, AS: 1}
	if n := v32.AuthorizedCount(); n != (1<<33)-1 {
		t.Errorf("AuthorizedCount /0-32 = %d", n)
	}
	v6 := VRP{Prefix: mp("::/0"), MaxLength: 128, AS: 1}
	if n := v6.AuthorizedCount(); n != math.MaxUint64 {
		t.Errorf("expected saturation, got %d", n)
	}
}

func TestROAExpansionAndValidate(t *testing.T) {
	r := ROA{AS: 111, Prefixes: []ROAPrefix{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 16},
		{Prefix: mp("168.122.225.0/24"), MaxLength: 24},
	}}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	vrps := r.VRPs()
	if len(vrps) != 2 || vrps[0].AS != 111 || vrps[1].AS != 111 {
		t.Fatalf("VRPs = %v", vrps)
	}
	if err := (ROA{AS: 1}).Validate(); err == nil {
		t.Error("empty ROA accepted")
	}
	bad := ROA{AS: 1, Prefixes: []ROAPrefix{{Prefix: mp("10.0.0.0/8"), MaxLength: 4}}}
	if err := bad.Validate(); err == nil {
		t.Error("bad entry accepted")
	}
}

func TestSetNormalization(t *testing.T) {
	v1 := VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 2}
	v2 := VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v3 := VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 9, AS: 1}
	s := NewSet([]VRP{v1, v2, v3, v1, v2})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after dedup", s.Len())
	}
	got := s.VRPs()
	if got[0] != v2 || got[1] != v3 || got[2] != v1 {
		t.Errorf("canonical order wrong: %v", got)
	}
	s2 := NewSet([]VRP{v3, v2, v1})
	if !s.Equal(s2) {
		t.Error("order-insensitive equality failed")
	}
	s2.Add(VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 10, AS: 1})
	if s.Equal(s2) {
		t.Error("sets of different size equal")
	}
	c := s.Clone()
	c.Add(VRP{Prefix: mp("192.168.0.0/16"), MaxLength: 16, AS: 9})
	if s.Len() != 3 {
		t.Error("Clone is not independent")
	}
}

func TestNextGroup(t *testing.T) {
	s := NewSet([]VRP{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1},
		{Prefix: mp("2001:db8::/32"), MaxLength: 32, AS: 1},
		{Prefix: mp("11.0.0.0/8"), MaxLength: 8, AS: 1},
		{Prefix: mp("12.0.0.0/8"), MaxLength: 8, AS: 2},
	})
	var groups []OriginGroup
	for rest := s.VRPs(); len(rest) > 0; {
		var g OriginGroup
		g, rest = NextGroup(rest)
		groups = append(groups, g)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3 (AS1/v4, AS1/v6, AS2/v4)", len(groups))
	}
	if groups[0].AS != 1 || groups[0].Family != prefix.IPv4 || len(groups[0].VRPs) != 2 {
		t.Errorf("group 0 wrong: %+v", groups[0])
	}
	if groups[1].AS != 1 || groups[1].Family != prefix.IPv6 || len(groups[1].VRPs) != 1 {
		t.Errorf("group 1 wrong: %+v", groups[1])
	}
	if groups[2].AS != 2 || len(groups[2].VRPs) != 1 {
		t.Errorf("group 2 wrong: %+v", groups[2])
	}
	if &groups[1].VRPs[0] != &s.VRPs()[2] {
		t.Error("group 1 is not a subslice of the list")
	}
	if g, rest := NextGroup(nil); len(g.VRPs) != 0 || len(rest) != 0 {
		t.Errorf("NextGroup(nil) = %+v, %v", g, rest)
	}
}

func TestComputeStats(t *testing.T) {
	s := NewSet([]VRP{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1},
		{Prefix: mp("10.0.0.0/16"), MaxLength: 24, AS: 1},
		{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 2},
	})
	st := s.ComputeStats()
	if st.Tuples != 3 || st.UsingMaxLength != 2 || st.Origins != 2 || st.IPv4 != 2 || st.IPv6 != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMaxPermissive(t *testing.T) {
	// 10.0.0.0/8 and 10.0.0.0/16 same AS: under max-permissive the /16 is
	// redundant. A different AS's contained prefix is not.
	s := NewSet([]VRP{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1},
		{Prefix: mp("10.0.0.0/16"), MaxLength: 16, AS: 1},
		{Prefix: mp("10.1.0.0/16"), MaxLength: 16, AS: 2},
		{Prefix: mp("2001:db8::/32"), MaxLength: 32, AS: 1},
	})
	m := s.MaxPermissive()
	if m.Len() != 3 {
		t.Fatalf("MaxPermissive Len = %d, want 3: %v", m.Len(), m.VRPs())
	}
	for _, v := range m.VRPs() {
		if v.MaxLength != v.Prefix.MaxLen() {
			t.Errorf("tuple %v not maximally permissive", v)
		}
	}
}

func TestMaxPermissiveChain(t *testing.T) {
	// A chain /8 ⊃ /12 ⊃ /16 of the same AS collapses to the /8 alone.
	s := NewSet([]VRP{
		{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1},
		{Prefix: mp("10.16.0.0/12"), MaxLength: 12, AS: 1},
		{Prefix: mp("10.16.0.0/16"), MaxLength: 16, AS: 1},
	})
	m := s.MaxPermissive()
	if m.Len() != 1 || m.VRPs()[0].Prefix != mp("10.0.0.0/8") {
		t.Fatalf("chain did not collapse: %v", m.VRPs())
	}
}

func TestMaxPermissiveCoversSameRoutes(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) > 20 {
			seeds = seeds[:20]
		}
		var vrps []VRP
		for _, s := range seeds {
			l := uint8(8 + s%17) // /8../24
			p, err := prefix.Make(prefix.IPv4, uint64(s)<<32, 0, l)
			if err != nil {
				return false
			}
			vrps = append(vrps, VRP{Prefix: p, MaxLength: l, AS: ASN(s % 3)})
		}
		s := NewSet(vrps)
		m := s.MaxPermissive()
		// Every original authorization must still be matched.
		for _, v := range s.VRPs() {
			found := false
			for _, w := range m.VRPs() {
				if w.Matches(v.Prefix, v.AS) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return m.Len() <= s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewSet([]VRP{
		{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111},
		{Prefix: mp("87.254.32.0/19"), MaxLength: 21, AS: 31283},
		{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64496},
	})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip mismatch:\n%v\nvs\n%v", got.VRPs(), s.VRPs())
	}
}

func TestCSVParsing(t *testing.T) {
	in := `# comment
prefix,maxlength,asn
10.0.0.0/8,8,AS64496

10.0.0.0/8, 10 , 64497
`
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("parsed %d tuples, want 2", s.Len())
	}
	for _, bad := range []string{
		"10.0.0.0/8,8\n",
		"10.0.0.0/8,7,AS1\n",   // maxLength < len
		"10.0.0.0/8,33,AS1\n",  // maxLength > 32
		"10.0.0.0/8,8,ASX\n",   // bad ASN
		"10.0.0.0,8,AS1\n",     // bad prefix
		"10.0.0.0/8,8,1,extra", // wrong arity
	} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadCSV(%q) succeeded", bad)
		}
	}
}

func TestVRPString(t *testing.T) {
	v := VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111}
	if v.String() != "168.122.0.0/16-24 => AS111" {
		t.Errorf("String = %q", v.String())
	}
}

func TestVRPCompareTotalOrder(t *testing.T) {
	f := func(a1, a2 uint32, p1, p2 uint32, l1, l2, m1, m2 uint8) bool {
		mk := func(as, p uint32, l, m uint8) VRP {
			l = l % 25
			pf, _ := prefix.Make(prefix.IPv4, uint64(p)<<32, 0, l)
			return VRP{Prefix: pf, MaxLength: l + m%(33-l), AS: ASN(as % 4)}
		}
		v, w := mk(a1, p1, l1, m1), mk(a2, p2, l2, m2)
		if v.Compare(w) != -w.Compare(v) {
			return false
		}
		return (v.Compare(w) == 0) == (v == w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
