package prefix

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		fam  Family
		len  uint8
		want string // canonical re-rendering
	}{
		{"0.0.0.0/0", IPv4, 0, "0.0.0.0/0"},
		{"10.0.0.0/8", IPv4, 8, "10.0.0.0/8"},
		{"168.122.0.0/16", IPv4, 16, "168.122.0.0/16"},
		{"168.122.225.0/24", IPv4, 24, "168.122.225.0/24"},
		{"255.255.255.255/32", IPv4, 32, "255.255.255.255/32"},
		{"87.254.32.0/19", IPv4, 19, "87.254.32.0/19"},
		{"10.1.2.3/8", IPv4, 8, "10.0.0.0/8"}, // host bits cleared
		{"::/0", IPv6, 0, "::/0"},
		{"2001:db8::/32", IPv6, 32, "2001:db8::/32"},
		{"2001:db8:0:0:0:0:0:0/32", IPv6, 32, "2001:db8::/32"},
		{"2001:db8::1/128", IPv6, 128, "2001:db8::1/128"},
		{"fe80::1:2:3/64", IPv6, 64, "fe80::/64"},
		// net/netip's text form: an IPv4-mapped address keeps its dotted quad,
		// and RFC 4291 §2.2 form 3 is accepted on the way in.
		{"::ffff:0:0/96", IPv6, 96, "::ffff:0.0.0.0/96"},
		{"::ffff:1.2.3.4/128", IPv6, 128, "::ffff:1.2.3.4/128"},
		{"1:2:3:4:5:6:1.2.3.4/112", IPv6, 112, "1:2:3:4:5:6:102:0/112"},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if p.Family() != c.fam || p.Len() != c.len {
			t.Errorf("Parse(%q) = family %v len %d, want %v/%d", c.in, p.Family(), p.Len(), c.fam, c.len)
		}
		if got := p.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{
		"", "10.0.0.0", "10.0.0.0/33", "10.0.0/8", "10.0.0.0.0/8",
		"256.0.0.0/8", "10.0.0.0/-1", "10.0.0.0/x", "01.2.3.4/8",
		"2001:db8::/129", "2001:db8::g/32", "1:2:3:4:5:6:7:8:9/32",
		"::1::2/32", "2001:db8/32", "1:2:3/32",
		// Refused by net/netip where the hand-rolled parser took them: a
		// zero-padded length, a hex group over four digits.
		"10.0.0.0/08", "10.0.0.0/00", "2001:00db8::/32",
		// Refused before and after: zones, leading-zero octets.
		"fe80::1%eth0/64", "10.01.0.0/16",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(hi, lo uint64, l8 uint8, v6 bool) bool {
		fam := IPv4
		if v6 {
			fam = IPv6
		}
		l := l8 % (fam.MaxLen() + 1)
		if fam == IPv4 {
			hi &= 0xffffffff00000000
			lo = 0
		}
		p, err := Make(fam, hi, lo, l)
		if err != nil {
			return false
		}
		q, err := Parse(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	p16 := MustParse("168.122.0.0/16")
	p24 := MustParse("168.122.0.0/24")
	p24b := MustParse("168.122.225.0/24")
	other := MustParse("168.123.0.0/24")
	v6 := MustParse("2001:db8::/32")

	if !p16.Contains(p16) {
		t.Error("prefix must contain itself")
	}
	if !p16.Contains(p24) || !p16.Contains(p24b) {
		t.Error("/16 must contain its /24s")
	}
	if p24.Contains(p16) {
		t.Error("/24 must not contain its /16")
	}
	if p16.Contains(other) {
		t.Error("168.122/16 must not contain 168.123/24")
	}
	if p16.Contains(v6) || v6.Contains(p16) {
		t.Error("cross-family containment must be false")
	}
}

func TestParentChildSibling(t *testing.T) {
	p := MustParse("168.122.0.0/16")
	l, r := p.Child(0), p.Child(1)
	if l.String() != "168.122.0.0/17" || r.String() != "168.122.128.0/17" {
		t.Fatalf("children = %v, %v", l, r)
	}
	if l.Parent() != p || r.Parent() != p {
		t.Error("Parent(Child) != p")
	}
	if l.Sibling() != r || r.Sibling() != l {
		t.Error("Sibling wrong")
	}
	if l.Bit(l.Len()-1) != 0 || r.Bit(r.Len()-1) != 1 {
		t.Error("Child's last bit wrong")
	}
}

func TestChildSiblingProperty(t *testing.T) {
	f := func(hi, lo uint64, l8 uint8, v6 bool) bool {
		fam := IPv4
		if v6 {
			fam = IPv6
		}
		if fam == IPv4 {
			hi &= 0xffffffff00000000
			lo = 0
		}
		l := l8 % fam.MaxLen() // strictly less than max so Child is legal
		p, err := Make(fam, hi, lo, l)
		if err != nil {
			return false
		}
		c0, c1 := p.Child(0), p.Child(1)
		return c0 != c1 && c0.Parent() == p && c1.Parent() == p &&
			c0.Sibling() == c1 && p.Contains(c0) && p.Contains(c1) &&
			!c0.Contains(c1) && !c1.Contains(c0) &&
			c0.Bit(l) == 0 && c1.Bit(l) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBit(t *testing.T) {
	p := MustParse("128.0.0.0/1")
	if p.Bit(0) != 1 {
		t.Error("MSB of 128.0.0.0 must be 1")
	}
	q := MustParse("0.0.0.1/32")
	if q.Bit(31) != 1 || q.Bit(30) != 0 {
		t.Error("LSB bits wrong")
	}
	v6 := MustParse("::1/128")
	if v6.Bit(127) != 1 || v6.Bit(126) != 0 || v6.Bit(0) != 0 {
		t.Error("IPv6 bit extraction wrong")
	}
}

func TestCompareOrdering(t *testing.T) {
	ps := []Prefix{
		MustParse("2001:db8::/32"),
		MustParse("10.0.0.0/8"),
		MustParse("10.0.0.0/16"),
		MustParse("9.0.0.0/8"),
		MustParse("10.128.0.0/9"),
	}
	slices.SortFunc(ps, Prefix.Compare)
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16", "10.128.0.0/9", "2001:db8::/32"}
	for i, w := range want {
		if ps[i].String() != w {
			t.Fatalf("sorted[%d] = %s, want %s (full: %v)", i, ps[i], w, ps)
		}
	}
}

func TestCompareProperties(t *testing.T) {
	f := func(a, b uint64, la, lb uint8) bool {
		p, err1 := Make(IPv4, a&0xffffffff00000000, 0, la%33)
		q, err2 := Make(IPv4, b&0xffffffff00000000, 0, lb%33)
		if err1 != nil || err2 != nil {
			return false
		}
		c := p.Compare(q)
		if c != -q.Compare(p) {
			return false
		}
		if (c == 0) != (p == q) {
			return false
		}
		return p.Compare(p) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNumSubprefixes(t *testing.T) {
	p := MustParse("168.122.0.0/16")
	if n := p.NumSubprefixes(16); n != 1 {
		t.Errorf("NumSubprefixes(16) = %d, want 1", n)
	}
	if n := p.NumSubprefixes(24); n != 256 {
		t.Errorf("NumSubprefixes(24) = %d, want 256", n)
	}
	if n := p.NumSubprefixes(15); n != 0 {
		t.Errorf("NumSubprefixes(15) = %d, want 0", n)
	}
	if n := p.NumSubprefixes(33); n != 0 {
		t.Errorf("NumSubprefixes(33) = %d, want 0", n)
	}
	if n := p.NumSubprefixesUpTo(18); n != 1+2+4 {
		t.Errorf("NumSubprefixesUpTo(18) = %d, want 7", n)
	}
	if n := p.NumSubprefixesUpTo(15); n != 0 {
		t.Errorf("NumSubprefixesUpTo(15) = %d, want 0", n)
	}
	v6 := MustParse("::/0")
	if n := v6.NumSubprefixes(128); n != math.MaxUint64 {
		t.Errorf("saturation expected, got %d", n)
	}
}

func TestSubprefixesEnumeration(t *testing.T) {
	p := MustParse("168.122.0.0/22")
	got := p.Subprefixes(nil, 24)
	if len(got) != 4 {
		t.Fatalf("got %d subprefixes, want 4", len(got))
	}
	want := []string{"168.122.0.0/24", "168.122.1.0/24", "168.122.2.0/24", "168.122.3.0/24"}
	for i, w := range want {
		if got[i].String() != w {
			t.Errorf("subprefix[%d] = %s, want %s", i, got[i], w)
		}
	}
	// Enumerating at own length returns the prefix itself.
	self := p.Subprefixes(nil, 22)
	if len(self) != 1 || self[0] != p {
		t.Errorf("Subprefixes at own length = %v", self)
	}
}

func TestMakeErrors(t *testing.T) {
	if _, err := Make(IPv4, 0, 0, 33); err == nil {
		t.Error("IPv4 /33 must fail")
	}
	if _, err := Make(IPv6, 0, 0, 129); err == nil {
		t.Error("IPv6 /129 must fail")
	}
	if _, err := Make(IPv4, 0, 1, 32); err == nil {
		t.Error("IPv4 with low bits must fail")
	}
	if _, err := Make(Family(9), 0, 0, 0); err == nil {
		t.Error("unknown family must fail")
	}
}

func TestZeroPrefixInvalid(t *testing.T) {
	var p Prefix
	if p.IsValid() {
		t.Error("zero Prefix must be invalid")
	}
	if !strings.Contains(p.String(), "invalid") {
		t.Errorf("zero Prefix String = %q", p.String())
	}
}

func TestContainsConsistentWithSubprefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		l := uint8(rng.Intn(20))
		p, _ := Make(IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		sub := p.Subprefixes(nil, l+4)
		for _, s := range sub {
			if !p.Contains(s) {
				t.Fatalf("%s should contain enumerated %s", p, s)
			}
		}
		if uint64(len(sub)) != p.NumSubprefixes(l+4) {
			t.Fatalf("enumeration count mismatch for %s", p)
		}
		if !sort.SliceIsSorted(sub, func(i, j int) bool { return sub[i].Compare(sub[j]) < 0 }) {
			t.Fatalf("Subprefixes of %s not sorted", p)
		}
	}
}

func TestFamilyString(t *testing.T) {
	if IPv4.String() != "IPv4" || IPv6.String() != "IPv6" {
		t.Error("Family.String wrong")
	}
	if !strings.Contains(Family(3).String(), "3") {
		t.Error("unknown family string should embed the value")
	}
}

func BenchmarkContains(b *testing.B) {
	p := MustParse("168.122.0.0/16")
	q := MustParse("168.122.225.0/24")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Contains(q) {
			b.Fatal("unexpected")
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("168.122.225.0/24"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		p, q string
		want uint8
	}{
		{"10.0.0.0/8", "10.0.0.0/8", 8},
		{"10.0.0.0/8", "10.0.0.0/16", 8},
		{"10.0.0.0/9", "10.128.0.0/9", 8},
		{"0.0.0.0/0", "255.0.0.0/8", 0},
		{"192.0.2.0/24", "198.51.100.0/24", 5},
		{"2001:db8::/32", "2001:db8:1::/48", 32},
		{"2001:db8::/128", "2001:db8::1/128", 127},
	}
	for _, c := range cases {
		p, q := MustParse(c.p), MustParse(c.q)
		if got := CommonPrefixLen(p, q); got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", c.p, c.q, got, c.want)
		}
		if got := CommonPrefixLen(q, p); got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", c.q, c.p, got, c.want)
		}
	}
}
