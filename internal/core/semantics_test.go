package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
	"repro/internal/synth"
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

// The brute-force oracle's universe: every IPv4 prefix down to
// /bruteDepth, and every IPv6 prefix under bruteV6Root down to bruteDepth
// bits below it. Sets it judges keep their tuples, maxLengths included,
// inside it.
const bruteDepth = 10

var bruteV6Root = mp("2001:db8::/32")

// authorizedRoutes enumerates the routes s authorizes in the oracle's
// universe, as single-route tuples.
func authorizedRoutes(s *rpki.Set) map[rpki.VRP]bool {
	out := make(map[rpki.VRP]bool)
	var rec func(q prefix.Prefix, floor uint8)
	rec = func(q prefix.Prefix, floor uint8) {
		for _, x := range s.VRPs() {
			if x.Matches(q, x.AS) {
				out[rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: x.AS}] = true
			}
		}
		if q.Len() < floor {
			rec(q.Child(0), floor)
			rec(q.Child(1), floor)
		}
	}
	rec(mp("0.0.0.0/0"), bruteDepth)
	rec(bruteV6Root, bruteV6Root.Len()+bruteDepth)
	return out
}

// firstDiff returns the first route in canonical order that exactly one of
// the two enumerations holds, or nil.
func firstDiff(a, b map[rpki.VRP]bool) (first *rpki.VRP) {
	for _, side := range []map[rpki.VRP]bool{a, b} {
		for r := range side {
			if a[r] != b[r] && (first == nil || r.Compare(*first) < 0) {
				first = &r
			}
		}
	}
	return first
}

// checkAgainstBruteForce fails t unless SemanticEqual(a, b) agrees with
// explicit enumeration: the verdict, and on inequality the counterexample,
// which must be the first route in canonical order that exactly one side
// authorizes.
func checkAgainstBruteForce(t *testing.T, label string, a, b *rpki.Set) {
	t.Helper()
	inA := authorizedRoutes(a)
	want := firstDiff(inA, authorizedRoutes(b))
	gotEq, ce := SemanticEqual(a, b)
	if gotEq != (want == nil) {
		t.Fatalf("%s: SemanticEqual = %v, brute force first difference %v\na: %v\nb: %v\nce: %v",
			label, gotEq, want, a.VRPs(), b.VRPs(), ce)
	}
	if !gotEq && (ce.Route != *want || ce.AuthorizedA != inA[*want]) {
		t.Fatalf("%s: counterexample %v, brute force %v (in A: %v)\na: %v\nb: %v",
			label, ce, *want, inA[*want], a.VRPs(), b.VRPs())
	}
}

// TestSemanticEqualAgainstBruteForce cross-checks the trie walker against
// explicit enumeration over a small universe: the verdict, and on inequality
// the counterexample, which must be the first route in canonical order that
// exactly one side authorizes. Every other trial copies one AS's tuples from a
// into b verbatim, so the oracle also judges walks that pass over a group.
func TestSemanticEqualAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	draw := func() []rpki.VRP {
		var vrps []rpki.VRP
		for i := 0; i < 1+rng.Intn(5); i++ {
			l := uint8(rng.Intn(8))
			p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
			ml := l + uint8(rng.Intn(int(10-l)+1))
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(rng.Intn(2))})
		}
		return vrps
	}
	ofAS := func(vrps []rpki.VRP, as rpki.ASN) (out []rpki.VRP) {
		for _, x := range vrps {
			if x.AS == as {
				out = append(out, x)
			}
		}
		return out
	}
	skipped := 0
	for trial := 0; trial < 150; trial++ {
		a, bv := rpki.NewSet(draw()), draw()
		if trial%2 == 1 {
			as := rpki.ASN(rng.Intn(2))
			bv = append(ofAS(bv, 1-as), ofAS(a.VRPs(), as)...)
		}
		b := rpki.NewSet(bv)
		for as := rpki.ASN(0); as < 2; as++ {
			if g := ofAS(a.VRPs(), as); len(g) > 0 && slices.Equal(g, ofAS(b.VRPs(), as)) {
				skipped++
				break
			}
		}
		checkAgainstBruteForce(t, fmt.Sprintf("trial %d", trial), a, b)
	}
	if skipped < 30 {
		t.Errorf("only %d trials held a group both sides share tuple for tuple, want >= 30", skipped)
	}
	t.Logf("%d of 150 trials held a group both sides share tuple for tuple", skipped)
}

// fuzzTuples caps a FuzzSemanticEqual input's tuples, which keeps the sets
// small and the oracle's enumeration fast.
const fuzzTuples = 16

// fuzzTuple is one tuple of a FuzzSemanticEqual input: three bytes. The
// first holds the side (bit 0: B), whether the other side holds the tuple
// too (bit 1), the AS (bits 2–3, mod 3), the family (bit 4: IPv6, under
// bruteV6Root) and the address's last two bits (bits 5–6); the second the
// address's first eight bits below the family's root; the third the length
// below the root (low nibble, mod bruteDepth+1) and how far maxLength reaches
// past it (high nibble).
type fuzzTuple struct {
	b, both  bool
	as       byte
	v6       bool
	addr     uint16 // bruteDepth bits
	l, extra byte
}

func (ft fuzzTuple) bytes() []byte {
	b0 := ft.as<<2 | byte(ft.addr&3)<<5
	for bit, set := range [...]bool{ft.b, ft.both, false, false, ft.v6} {
		if set {
			b0 |= 1 << bit
		}
	}
	return []byte{b0, byte(ft.addr >> 2), ft.extra<<4 | ft.l}
}

// setsFromBytes decodes a FuzzSemanticEqual input, up to fuzzTuples
// tuples of it, into its two sets. Both families, three ASes and one prefix
// under several maxLengths come out often; every tuple stays inside the
// brute-force oracle's universe.
func setsFromBytes(data []byte) (a, b *rpki.Set) {
	var sides [2][]rpki.VRP
	for d := data[:min(len(data), 3*fuzzTuples)]; len(d) >= 3; d = d[3:] {
		root := mp("0.0.0.0/0")
		if d[0]&0x10 != 0 {
			root = bruteV6Root
		}
		l := d[2] & 0xf % (bruteDepth + 1)
		addr := uint64(d[1])<<2 | uint64(d[0]>>5&3)
		hi, _ := root.Bits()
		p, err := prefix.Make(root.Family(), hi|addr<<(64-root.Len()-bruteDepth), 0, root.Len()+l)
		if err != nil {
			panic(err)
		}
		x := rpki.VRP{Prefix: p, MaxLength: p.Len() + d[2]>>4%(bruteDepth-l+1), AS: rpki.ASN(d[0] >> 2 & 3 % 3)}
		side := d[0] & 1
		sides[side] = append(sides[side], x)
		if d[0]&2 != 0 {
			sides[1-side] = append(sides[1-side], x)
		}
	}
	return rpki.NewSet(sides[0]), rpki.NewSet(sides[1])
}

// FuzzSemanticEqual holds SemanticEqual to the brute-force oracle on
// fuzzer-chosen pairs of small sets, both ways round.
func FuzzSemanticEqual(f *testing.F) {
	seed := func(tuples ...fuzzTuple) []byte {
		var data []byte
		for _, ft := range tuples {
			data = append(data, ft.bytes()...)
		}
		return data
	}
	shared := []fuzzTuple{ // AS 1's and AS 2's IPv4 groups, on both sides tuple for tuple
		{both: true, as: 1, addr: 0x100, l: 2, extra: 3},
		{both: true, as: 1, addr: 0x100, l: 3, extra: 1},
		{both: true, as: 2, addr: 0x200, l: 1, extra: 4},
	}
	with := func(more ...fuzzTuple) []byte { return seed(append(slices.Clone(shared), more...)...) }
	f.Add(seed(shared...))
	f.Add(with(fuzzTuple{b: true, as: 1, addr: 0x180, l: 3, extra: 1}))        // a shared group that differs
	f.Add(with(fuzzTuple{as: 0, addr: 0x40, l: 4, extra: 2}))                  // a group on A only, at the front
	f.Add(with(fuzzTuple{b: true, as: 1, v6: true, addr: 0x3, l: bruteDepth})) // on B only, in the middle
	f.Add(with(fuzzTuple{as: 2, v6: true, addr: 0x300, extra: 9},              // on A only, at the end,
		fuzzTuple{as: 2, v6: true, addr: 0x300, extra: 2})) // one prefix under two maxLengths
	f.Add(seed(fuzzTuple{as: 1, addr: 0x200, l: 1, extra: 1}, // {p/1-2} against {p/1, p0/2, p1/2}: equal
		fuzzTuple{b: true, as: 1, addr: 0x200, l: 1}, fuzzTuple{b: true, as: 1, addr: 0x200, l: 2}, fuzzTuple{b: true, as: 1, addr: 0x300, l: 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := setsFromBytes(data)
		checkAgainstBruteForce(t, "A, B", a, b)
		checkAgainstBruteForce(t, "B, A", b, a)
	})
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

// groupsOf returns s's (AS, family) groups in canonical order.
func groupsOf(s *rpki.Set) (groups []rpki.OriginGroup) {
	for rest := s.VRPs(); len(rest) > 0; {
		var g rpki.OriginGroup
		g, rest = rpki.NextGroup(rest)
		groups = append(groups, g)
	}
	return groups
}

// TestSemanticEqualOneGroupAmongThousands shows that passing over the groups
// both sides hold tuple for tuple hides nothing: on a full-deployment table
// and its compression, one mutation of one group of the compressed side — a
// group Compress left untouched, which the unmutated walk passes over, or one
// it rewrote — is found, in that group, in the right direction, on a route the
// two sides' tuples really disagree on.
func TestSemanticEqualOneGroupAmongThousands(t *testing.T) {
	orig := FullDeploymentMinimal(synth.Generate(synth.Params6_1().Scale(0.02)).Table)
	comp, _ := Compress(orig, Options{})
	if err := VerifyCompression(orig, comp); err != nil {
		t.Fatal(err)
	}
	origGroups, compGroups := groupsOf(orig), groupsOf(comp)
	if len(origGroups) != len(compGroups) {
		t.Fatalf("Compress turned %d groups into %d", len(origGroups), len(compGroups))
	}
	authorizes := func(vrps []rpki.VRP, route rpki.VRP) bool {
		return slices.ContainsFunc(vrps, func(x rpki.VRP) bool { return x.Matches(route.Prefix, route.AS) })
	}
	mutations := []struct {
		name        string
		authorizedA bool // the original side authorizes the route the mutation moves
		apply       func(g []rpki.VRP) []rpki.VRP
	}{
		// No tuple of the group reaches one bit past its longest maxLength.
		{"raise one maxLength", false, func(g []rpki.VRP) []rpki.VRP {
			longest := 0
			for i := range g {
				if g[i].MaxLength > g[longest].MaxLength {
					longest = i
				}
			}
			g[longest].MaxLength++
			return g
		}},
		// Nothing precedes a group's first tuple, so nothing else covers it.
		{"drop one tuple", true, func(g []rpki.VRP) []rpki.VRP { return g[1:] }},
		{"add a sibling", false, func(g []rpki.VRP) []rpki.VRP {
			for _, x := range g {
				sib := rpki.VRP{Prefix: x.Prefix.Sibling(), MaxLength: x.Prefix.Len(), AS: x.AS}
				if !authorizes(g, sib) {
					return append(g, sib)
				}
			}
			t.Fatalf("every sibling in AS%d's group is authorized", g[0].AS)
			return nil
		}},
	}

	offsets, rewritten := make([]int, len(compGroups)), make([]bool, len(compGroups))
	for k, g := range compGroups {
		rewritten[k] = !slices.Equal(g.VRPs, origGroups[k].VRPs)
		if k > 0 {
			offsets[k] = offsets[k-1] + len(compGroups[k-1].VRPs)
		}
	}
	sampled := map[bool]int{}
	var all []rpki.VRP // the mutated table; NewSet copies it
	for at := 0; at < len(compGroups); at += 50 {
		for _, kind := range []bool{false, true} {
			// The first group of the kind from every 50th group on.
			k := at
			for k < len(compGroups) && rewritten[k] != kind {
				k++
			}
			if k == len(compGroups) {
				continue
			}
			sampled[kind]++
			g := compGroups[k]
			for _, m := range mutations {
				mutated := m.apply(slices.Clone(g.VRPs))
				all = append(append(append(all[:0], comp.VRPs()[:offsets[k]]...), mutated...), comp.VRPs()[offsets[k]+len(g.VRPs):]...)
				ok, ce := SemanticEqual(orig, rpki.NewSet(all))
				if ok || ce == nil {
					t.Fatalf("group %d (AS%d %v, rewritten: %v): %s went unnoticed", k, g.AS, g.Family, kind, m.name)
				}
				if ce.Route.AS != g.AS || ce.Route.Prefix.Family() != g.Family || ce.AuthorizedA != m.authorizedA ||
					authorizes(origGroups[k].VRPs, ce.Route) != m.authorizedA || authorizes(mutated, ce.Route) == m.authorizedA {
					t.Fatalf("group %d (AS%d %v, rewritten: %v): %s: counterexample %v", k, g.AS, g.Family, kind, m.name, ce)
				}
			}
		}
	}
	t.Logf("%d groups: %d untouched and %d rewritten ones mutated three ways", len(compGroups), sampled[false], sampled[true])
	if sampled[false] < 20 || sampled[true] < 20 {
		t.Errorf("too few groups of one kind sampled")
	}
}
