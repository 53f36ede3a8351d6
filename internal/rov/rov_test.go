package rov

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func v(p string, ml uint8, as rpki.ASN) rpki.VRP {
	return rpki.VRP{Prefix: mp(p), MaxLength: ml, AS: as}
}

// runningExampleSet is the ROA of §2: (168.122.0.0/16, AS 111), no maxLength.
func runningExampleSet() *rpki.Set {
	return rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 16, 111)})
}

func TestRFC6811RunningExample(t *testing.T) {
	ix := NewIndex(runningExampleSet())
	cases := []struct {
		p      string
		origin rpki.ASN
		want   State
	}{
		// §2: AS 111's own announcement is valid.
		{"168.122.0.0/16", 111, Valid},
		// §2: the subprefix hijack "168.122.0.0/24: AS m" is invalid —
		// covered by the ROA but matching nothing.
		{"168.122.0.0/24", 666, Invalid},
		// §2: AS 111's own /24 de-aggregation is ALSO invalid without a
		// matching ROA ("this route would be considered invalid").
		{"168.122.225.0/24", 111, Invalid},
		// A prefix hijack of the exact prefix by another AS: Invalid.
		{"168.122.0.0/16", 666, Invalid},
		// Unrelated space: NotFound.
		{"192.0.2.0/24", 666, NotFound},
		// Shorter covering announcement is NOT covered by the ROA.
		{"168.0.0.0/8", 111, NotFound},
	}
	for _, c := range cases {
		if got := ix.Validate(mp(c.p), c.origin); got != c.want {
			t.Errorf("Validate(%s, %v) = %v, want %v", c.p, c.origin, got, c.want)
		}
	}
}

func TestMaxLengthValidation(t *testing.T) {
	// §3: with maxLength 24, AS 111's de-aggregations become valid — and so
	// does the §4 forged-origin subprefix hijack route.
	ix := NewIndex(rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 24, 111)}))
	if got := ix.Validate(mp("168.122.225.0/24"), 111); got != Valid {
		t.Errorf("de-aggregated /24 = %v, want Valid", got)
	}
	if got := ix.Validate(mp("168.122.0.0/17"), 111); got != Valid {
		t.Errorf("/17 = %v, want Valid", got)
	}
	if got := ix.Validate(mp("168.122.0.0/25"), 111); got != Invalid {
		t.Errorf("/25 beyond maxLength = %v, want Invalid", got)
	}
	// §4 point (2): the hijacker's announcement "168.122.0.0/24: AS m, AS
	// 111" has origin AS 111 (forged) and is Valid — the RPKI cannot tell.
	if got := ix.Validate(mp("168.122.0.0/24"), 111); got != Valid {
		t.Errorf("forged-origin subprefix route = %v, want Valid (the attack)", got)
	}
}

func TestMultipleVRPs(t *testing.T) {
	// Several VRPs, one matching: Valid wins over Invalid.
	ix := NewIndex(rpki.NewSet([]rpki.VRP{
		v("10.0.0.0/8", 8, 1),
		v("10.0.0.0/8", 24, 2),
	}))
	if got := ix.Validate(mp("10.5.0.0/16"), 2); got != Valid {
		t.Errorf("= %v, want Valid via the AS 2 VRP", got)
	}
	if got := ix.Validate(mp("10.5.0.0/16"), 1); got != Invalid {
		t.Errorf("= %v, want Invalid (AS 1 maxLength is 8)", got)
	}
	// VRP deeper in the trie than the route contributes nothing.
	ix2 := NewIndex(rpki.NewSet([]rpki.VRP{v("10.0.0.0/16", 16, 1)}))
	if got := ix2.Validate(mp("10.0.0.0/8"), 1); got != NotFound {
		t.Errorf("shorter route = %v, want NotFound", got)
	}
}

func TestIPv6Validation(t *testing.T) {
	ix := NewIndex(rpki.NewSet([]rpki.VRP{v("2001:db8::/32", 48, 64496)}))
	if got := ix.Validate(mp("2001:db8:1::/48"), 64496); got != Valid {
		t.Errorf("= %v, want Valid", got)
	}
	if got := ix.Validate(mp("2001:db8::/49"), 64496); got != Invalid {
		t.Errorf("= %v, want Invalid", got)
	}
	if got := ix.Validate(mp("2001:db9::/48"), 64496); got != NotFound {
		t.Errorf("= %v, want NotFound", got)
	}
}

func TestStateString(t *testing.T) {
	if NotFound.String() != "NotFound" || Invalid.String() != "Invalid" || Valid.String() != "Valid" {
		t.Error("State strings wrong")
	}
	if !strings.Contains(State(9).String(), "9") {
		t.Error("unknown state string")
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex(rpki.NewSet(nil))
	if ix.Len() != 0 {
		t.Error("empty index Len != 0")
	}
	if got := ix.Validate(mp("10.0.0.0/8"), 1); got != NotFound {
		t.Errorf("empty index = %v, want NotFound", got)
	}
}

// TestIndexAgainstReference fuzzes Index vs the linear-scan Reference.
func TestIndexAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		var vrps []rpki.VRP
		for i := 0; i < rng.Intn(40); i++ {
			l := uint8(4 + rng.Intn(21))
			p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
			ml := l + uint8(rng.Intn(int(32-l)+1))
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(rng.Intn(6))})
		}
		set := rpki.NewSet(vrps)
		ix, ref := NewIndex(set), NewReference(set)
		if ix.Len() != set.Len() {
			t.Fatalf("index size %d != set size %d", ix.Len(), set.Len())
		}
		for q := 0; q < 200; q++ {
			l := uint8(rng.Intn(33))
			p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
			origin := rpki.ASN(rng.Intn(6))
			if got, want := ix.Validate(p, origin), ref.Validate(p, origin); got != want {
				t.Fatalf("trial %d: Validate(%s, %v) = %v, reference = %v", trial, p, origin, got, want)
			}
		}
	}
}

func BenchmarkIndexValidate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var vrps []rpki.VRP
	for i := 0; i < 50000; i++ {
		l := uint8(8 + rng.Intn(17))
		p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: l + uint8(rng.Intn(3)), AS: rpki.ASN(rng.Intn(30000))})
	}
	ix := NewIndex(rpki.NewSet(vrps))
	q := mp("87.254.32.0/19")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Validate(q, 31283)
	}
}
