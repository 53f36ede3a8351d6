package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func TestSemanticEqualIdentical(t *testing.T) {
	s := rpki.NewSet([]rpki.VRP{
		v("168.122.0.0/16", 24, 111),
		v("2001:db8::/32", 48, 111),
	})
	if ok, ce := SemanticEqual(s, s.Clone()); !ok {
		t.Fatalf("set not equal to itself: %v", ce)
	}
}

func TestSemanticEqualSyntacticallyDifferent(t *testing.T) {
	// (p/16-17) == {p/16, p/17 left, p/17 right}.
	a := rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 17, 111)})
	b := rpki.NewSet([]rpki.VRP{
		v("168.122.0.0/16", 16, 111),
		v("168.122.0.0/17", 17, 111),
		v("168.122.128.0/17", 17, 111),
	})
	if ok, ce := SemanticEqual(a, b); !ok {
		t.Fatalf("equivalent sets reported different: %v", ce)
	}
	// Overlapping redundant tuples change nothing.
	c := b.Clone()
	c.Add(v("168.122.0.0/17", 16, 111)) // invalid? maxLength < len is invalid; use len
	_ = c
	d := b.Clone()
	d.Add(v("168.122.0.0/17", 17, 111)) // duplicate
	if ok, _ := SemanticEqual(a, d); !ok {
		t.Fatal("duplicate tuple broke equality")
	}
}

func TestSemanticEqualCounterexamples(t *testing.T) {
	base := rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 16, 111)})

	// B authorizes a deeper route.
	b := rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 17, 111)})
	ok, ce := SemanticEqual(base, b)
	if ok || ce == nil {
		t.Fatal("missed extra authorization")
	}
	if ce.AuthorizedA {
		t.Errorf("counterexample direction wrong: %v", ce)
	}
	if ce.Route.Prefix.Len() != 17 || !mp("168.122.0.0/16").Contains(ce.Route.Prefix) {
		t.Errorf("counterexample route %v not a /17 under the /16", ce.Route)
	}
	// The route must genuinely distinguish the sets.
	if trA := BuildTries(base); trA[0].Authorizes(ce.Route.Prefix) {
		t.Error("counterexample authorized by A too")
	}

	// Different AS entirely.
	c := rpki.NewSet([]rpki.VRP{v("168.122.0.0/16", 16, 112)})
	if ok, ce := SemanticEqual(base, c); ok || ce == nil {
		t.Fatal("different-AS sets reported equal")
	}

	// A authorizes something B does not (direction flip).
	ok, ce = SemanticEqual(b, base)
	if ok || !ce.AuthorizedA {
		t.Errorf("direction flip failed: %v", ce)
	}

	// Missing family group.
	d := base.Clone()
	d.Add(v("2001:db8::/32", 32, 111))
	if ok, ce := SemanticEqual(base, d); ok || ce == nil {
		t.Fatal("missing IPv6 group undetected")
	} else if ce.Route.Prefix.Family() != prefix.IPv6 {
		t.Errorf("counterexample family wrong: %v", ce)
	}
}

func TestSemanticEqualDeepGap(t *testing.T) {
	// Difference buried below a long tuple-free path.
	a := rpki.NewSet([]rpki.VRP{v("10.0.0.0/8", 30, 1)})
	b := rpki.NewSet([]rpki.VRP{v("10.0.0.0/8", 31, 1)})
	ok, ce := SemanticEqual(a, b)
	if ok {
		t.Fatal("deep difference missed")
	}
	if ce.Route.Prefix.Len() != 31 {
		t.Errorf("expected a /31 counterexample, got %v", ce.Route)
	}
	if ce.AuthorizedA {
		t.Error("direction wrong")
	}
}

func TestCounterexampleString(t *testing.T) {
	ce := Counterexample{Route: v("10.0.0.0/8", 8, 1), AuthorizedA: true}
	if !strings.Contains(ce.String(), "only by A") {
		t.Errorf("String = %q", ce.String())
	}
	ce.AuthorizedA = false
	if !strings.Contains(ce.String(), "only by B") {
		t.Errorf("String = %q", ce.String())
	}
}

// TestSemanticEqualAgainstBruteForce cross-checks the trie walker against
// explicit enumeration over a small universe.
func TestSemanticEqualAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	enumerate := func(s *rpki.Set) map[rpki.VRP]bool {
		out := make(map[rpki.VRP]bool)
		var rec func(q prefix.Prefix)
		rec = func(q prefix.Prefix) {
			for _, x := range s.VRPs() {
				if x.Matches(q, x.AS) {
					out[rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: x.AS}] = true
				}
			}
			if q.Len() < 10 {
				rec(q.Child(0))
				rec(q.Child(1))
			}
		}
		rec(mp("0.0.0.0/0"))
		return out
	}
	equalMaps := func(a, b map[rpki.VRP]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 150; trial++ {
		mk := func() *rpki.Set {
			var vrps []rpki.VRP
			for i := 0; i < 1+rng.Intn(5); i++ {
				l := uint8(rng.Intn(8))
				p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
				ml := l + uint8(rng.Intn(int(10-l)+1))
				vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(rng.Intn(2))})
			}
			return rpki.NewSet(vrps)
		}
		a, b := mk(), mk()
		wantEq := equalMaps(enumerate(a), enumerate(b))
		gotEq, ce := SemanticEqual(a, b)
		if gotEq != wantEq {
			t.Fatalf("trial %d: SemanticEqual = %v, brute force = %v\na: %v\nb: %v\nce: %v",
				trial, gotEq, wantEq, a.VRPs(), b.VRPs(), ce)
		}
		if !gotEq {
			// The counterexample must be real: authorized by exactly one side.
			authBy := func(s *rpki.Set) bool {
				for _, x := range s.VRPs() {
					if x.Matches(ce.Route.Prefix, ce.Route.AS) {
						return true
					}
				}
				return false
			}
			inA, inB := authBy(a), authBy(b)
			if inA == inB || inA != ce.AuthorizedA {
				t.Fatalf("trial %d: bogus counterexample %v (inA=%v inB=%v)", trial, ce, inA, inB)
			}
		}
	}
}

// TestSemanticEqualGroupWalk covers the lockstep walk over (AS, family)
// groups: a group only one side holds — at the front, in the middle and at
// the end of the walk, in either family, on either side — must produce a
// counterexample in that group, and groups the sides share tuple for tuple,
// or differ in without disagreeing, must not hide a later group that does.
func TestSemanticEqualGroupWalk(t *testing.T) {
	shared := []rpki.VRP{
		v("10.0.0.0/8", 8, 100), v("2001:db8::/32", 48, 100),
		v("20.0.0.0/8", 10, 200), v("2001:db9::/32", 32, 300),
	}
	for _, extra := range []rpki.VRP{
		v("30.0.0.0/8", 8, 50), v("2001:dba::/32", 32, 50), // before every shared group
		v("30.0.0.0/8", 8, 150), v("2001:dba::/32", 32, 200), // between two
		v("30.0.0.0/8", 8, 300),                              // before its own AS's only group
		v("30.0.0.0/8", 8, 400), v("2001:dba::/32", 32, 400), // after all
	} {
		with, without := rpki.NewSet(append([]rpki.VRP{extra}, shared...)), rpki.NewSet(shared)
		for _, inA := range []bool{true, false} {
			a, b := with, without
			if !inA {
				a, b = without, with
			}
			ok, ce := SemanticEqual(a, b)
			if ok || ce == nil {
				t.Fatalf("group of %v on one side only (A: %v) went unnoticed", extra, inA)
			}
			if ce.AuthorizedA != inA || ce.Route.AS != extra.AS || !extra.Prefix.Contains(ce.Route.Prefix) {
				t.Fatalf("group of %v on one side only (A: %v): counterexample %v", extra, inA, ce)
			}
		}
	}

	// AS 100's groups are identical; AS 200's differ in tuples but not in
	// routes; AS 300's disagree on one /33.
	a := rpki.NewSet(shared)
	b := rpki.NewSet([]rpki.VRP{
		shared[0], shared[1],
		v("20.0.0.0/8", 9, 200), v("20.0.0.0/9", 10, 200), v("20.128.0.0/9", 10, 200),
		v("2001:db9::/32", 32, 300), v("2001:db9:8000::/33", 33, 300),
	})
	ok, ce := SemanticEqual(a, b)
	if ok || ce == nil || ce.AuthorizedA || ce.Route != v("2001:db9:8000::/33", 33, 300) {
		t.Fatalf("differing last group: equal %v, counterexample %v", ok, ce)
	}
	if ok, ce := SemanticEqual(a, rpki.NewSet(b.VRPs()[:5])); ok || ce == nil || ce.Route.AS != 300 || !ce.AuthorizedA {
		t.Fatalf("last group missing from B: equal %v, counterexample %v", ok, ce)
	}
}
