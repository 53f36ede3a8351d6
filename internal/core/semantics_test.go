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
		checkAgainstTrieWalk(t, "fuzz", a, b)
	})
}

// deepFromBytes decodes a FuzzSemanticEqualDeep input, up to fuzzTuples
// tuples of three bytes, into its two sets. The first byte holds the side,
// the other side's copy, the AS and the family as in setsFromBytes, and in
// its top three bits how far maxLength reaches past the prefix; the second
// the length below the family's root, mod 33 (IPv4 /0–/32, IPv6 /32–/64
// under bruteV6Root); the third flips bits of a fixed 32-bit trunk below the
// root: a pattern (top three bits) at a depth (low five). Every tuple lies on
// the trunk or branches off it where the fuzzer says, so the merged trie is
// long unary chains, too deep for the brute-force universe.
func deepFromBytes(data []byte) (a, b *rpki.Set) {
	const trunk = 0x5a3c96e1
	var sides [2][]rpki.VRP
	for d := data[:min(len(data), 3*fuzzTuples)]; len(d) >= 3; d = d[3:] {
		root := mp("0.0.0.0/0")
		if d[0]&0x10 != 0 {
			root = bruteV6Root
		}
		below := uint64(trunk ^ uint32(d[2]>>5)<<29>>(d[2]&0x1f))
		hi, _ := root.Bits()
		p, err := prefix.Make(root.Family(), hi|below<<(32-root.Len()), 0, root.Len()+d[1]%33)
		if err != nil {
			panic(err)
		}
		x := rpki.VRP{Prefix: p, MaxLength: min(p.Len()+d[0]>>5, p.MaxLen()), AS: rpki.ASN(d[0] >> 2 & 3 % 3)}
		side := d[0] & 1
		sides[side] = append(sides[side], x)
		if d[0]&2 != 0 {
			sides[1-side] = append(sides[1-side], x)
		}
	}
	return rpki.NewSet(sides[0]), rpki.NewSet(sides[1])
}

// FuzzSemanticEqualDeep holds SemanticEqual to the merged trie walk on
// fuzzer-chosen pairs of sets with prefixes down to /32 and /64.
func FuzzSemanticEqualDeep(f *testing.F) {
	for _, seed := range [][]byte{
		{0x62, 8, 0, 0x01, 20, 0, 0xe0, 30, 0x29},               // IPv4 /8-11 on both; /20 on B; /30-32 off the trunk on A
		{0x52, 0, 0, 0x11, 32, 0xf4, 0x30, 31, 0x5f},            // IPv6 /32-34 on both; /64 on B; /63-64 on A
		{0x20, 12, 0, 0x01, 12, 0, 0x01, 13, 0, 0x01, 13, 0x8c}, // {p/12-13} against {p/12, p0/13, p1/13}: equal
		{0x80, 8, 0, 0xa1, 8, 0, 0x40, 11, 0x8a},                // {X/8-12, Y/11-13} against {X/8-13}: three pending 1-children, the deepest first
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := deepFromBytes(data)
		checkAgainstTrieWalk(t, "fuzz", a, b)
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

// checkAgainstTrieWalk fails t unless SemanticEqual agrees with the merged
// trie walk it replaced, semanticEqualViaTrie, on (a, b) and on (b, a): the
// verdict, and on inequality the counterexample's route and direction. It
// returns the verdict.
func checkAgainstTrieWalk(t *testing.T, label string, a, b *rpki.Set) bool {
	t.Helper()
	brief := func(s *rpki.Set) any {
		if s.Len() > 32 {
			return fmt.Sprintf("%d tuples", s.Len())
		}
		return s.VRPs()
	}
	equal := false
	for _, ab := range [...][2]*rpki.Set{{a, b}, {b, a}} {
		gotEq, got := SemanticEqual(ab[0], ab[1])
		wantEq, want := semanticEqualViaTrie(ab[0], ab[1])
		if gotEq != wantEq || !gotEq && *got != *want {
			t.Fatalf("%s: SemanticEqual = %v, %v; trie walk = %v, %v\na: %v\nb: %v",
				label, gotEq, got, wantEq, want, brief(ab[0]), brief(ab[1]))
		}
		equal = gotEq
	}
	return equal
}

// TestSemanticEqualMatchesTrieWalk holds SemanticEqual to the merged trie
// walk on the pair cache_refresh verifies, on that pair with one tuple or one
// maxLength changed in a group Compress rewrote and in one it left alone, on
// Literal compressions, which diverge by design, and on random groups whose
// prefixes lie too deep for the brute-force universe.
func TestSemanticEqualMatchesTrieWalk(t *testing.T) {
	t.Run("full deployment", func(t *testing.T) {
		minimal, compressed := fullDeployment()
		if !checkAgainstTrieWalk(t, "minimal, compressed", minimal, compressed) {
			t.Fatal("the compression does not authorize its input's routes")
		}
		origGroups, compGroups := groupsOf(minimal), groupsOf(compressed)
		if len(origGroups) != len(compGroups) {
			t.Fatalf("Compress turned %d groups into %d", len(origGroups), len(compGroups))
		}
		kinds := map[bool][]int{} // group indices by whether Compress rewrote them
		for k, g := range compGroups {
			rewritten := !slices.Equal(g.VRPs, origGroups[k].VRPs)
			kinds[rewritten] = append(kinds[rewritten], k)
		}
		t.Logf("%d groups, %d rewritten", len(compGroups), len(kinds[true]))
		// Each mutation changes the compressed group g, or, where it cannot,
		// the original group o; mid picks a tuple in the group's middle.
		mid := func(g []rpki.VRP) int { return len(g) / 2 }
		mutations := []struct {
			name  string
			apply func(o, g []rpki.VRP) ([]rpki.VRP, []rpki.VRP)
		}{
			{"drop a tuple", func(o, g []rpki.VRP) ([]rpki.VRP, []rpki.VRP) {
				return o, slices.Delete(g, mid(g), mid(g)+1)
			}},
			{"add a tuple", func(o, g []rpki.VRP) ([]rpki.VRP, []rpki.VRP) {
				x := g[mid(g)]
				q := x.Prefix.Sibling()
				if x.Prefix.Len() < x.Prefix.MaxLen() {
					q = x.Prefix.Child(1)
				}
				return o, append(g, rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: x.AS})
			}},
			{"raise a maxLength", func(o, g []rpki.VRP) ([]rpki.VRP, []rpki.VRP) {
				if x := &g[mid(g)]; x.MaxLength < x.Prefix.MaxLen() {
					x.MaxLength++
				}
				return o, g
			}},
			// A group Compress left alone holds exact tuples only: there the
			// original side's copy is raised instead, which lowers it as seen
			// from the compressed side.
			{"lower a maxLength", func(o, g []rpki.VRP) ([]rpki.VRP, []rpki.VRP) {
				for i := range g {
					if g[i].MaxLength > g[i].Prefix.Len() {
						g[i].MaxLength--
						return o, g
					}
				}
				o[mid(o)].MaxLength++
				return o, g
			}},
		}
		// splice returns s with its k-th group replaced, or s if with is that group.
		splice := func(s *rpki.Set, groups []rpki.OriginGroup, k int, with []rpki.VRP) *rpki.Set {
			if slices.Equal(groups[k].VRPs, with) {
				return s
			}
			off := 0
			for _, g := range groups[:k] {
				off += len(g.VRPs)
			}
			all := s.VRPs()
			return rpki.NewSet(slices.Concat(all[:off], with, all[off+len(groups[k].VRPs):]))
		}
		unequal := 0
		for _, rewritten := range []bool{false, true} {
			ks := kinds[rewritten]
			for _, k := range []int{ks[0], ks[len(ks)/2], ks[len(ks)-1]} {
				for _, m := range mutations {
					o, g := m.apply(slices.Clone(origGroups[k].VRPs), slices.Clone(compGroups[k].VRPs))
					if !checkAgainstTrieWalk(t, fmt.Sprintf("group %d (rewritten: %v): %s", k, rewritten, m.name),
						splice(minimal, origGroups, k, o), splice(compressed, compGroups, k, g)) {
						unequal++
					}
				}
			}
		}
		t.Logf("%d of 24 mutated pairs unequal", unequal)
	})

	t.Run("literal", func(t *testing.T) {
		rng := rand.New(rand.NewSource(38))
		gapped := rpki.NewSet([]rpki.VRP{ // TestLiteralDivergesOnGappedInput's input
			v("87.254.32.0/19", 19, 1), v("87.254.32.0/21", 21, 1), v("87.254.48.0/20", 20, 1),
		})
		diverged := 0
		for trial := 0; trial < 100; trial++ {
			in := gapped
			if trial > 0 {
				in = randomSet(rng, 20+rng.Intn(300))
			}
			out, _ := Compress(in, Options{Mode: Literal})
			if !checkAgainstTrieWalk(t, fmt.Sprintf("trial %d", trial), in, out) {
				diverged++
			}
		}
		if diverged < 10 {
			t.Errorf("only %d of 100 Literal compressions diverged, want >= 10", diverged)
		}
		t.Logf("%d of 100 Literal compressions diverged", diverged)
	})

	t.Run("deep", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3808))
		verdicts := map[bool]int{}
		for trial := 0; trial < 3000; trial++ {
			a, b := deepPair(rng)
			verdicts[checkAgainstTrieWalk(t, fmt.Sprintf("trial %d", trial), a, b)]++
		}
		t.Logf("unequal %d, equal %d", verdicts[false], verdicts[true])
		if verdicts[false] < 500 || verdicts[true] < 500 {
			t.Errorf("verdicts unequal %d, equal %d: want >= 500 of each", verdicts[false], verdicts[true])
		}
	})
}

// deepTuples draws one to four (AS, family) groups of IPv4 /8–/32 and IPv6
// /32–/64 prefixes. A group's prefixes follow one random trunk address and
// leave it at most once, so most of its trie is long unary chains between
// tuples; maxLengths mostly reach a few bits past the prefix, sometimes to
// the family's end.
func deepTuples(rng *rand.Rand) []rpki.VRP {
	var vrps []rpki.VRP
	for range 1 + rng.Intn(4) {
		fam, lo, hi := prefix.IPv4, 8, 32
		if rng.Intn(2) == 0 {
			fam, lo, hi = prefix.IPv6, 32, 64
		}
		as, trunk := rpki.ASN(rng.Intn(3)), rng.Uint64()
		for range 1 + rng.Intn(8) {
			addr := trunk
			if rng.Intn(2) == 0 {
				addr ^= 1 << (63 - lo - rng.Intn(hi-lo))
			}
			l := lo + rng.Intn(hi-lo+1)
			p, err := prefix.Make(fam, addr, 0, uint8(l)) // Make clears the bits past l
			if err != nil {
				panic(err)
			}
			reach := rng.Intn(4)
			if rng.Intn(8) == 0 {
				reach = rng.Intn(int(p.MaxLen()) - l + 1)
			}
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: uint8(min(l+reach, int(p.MaxLen()))), AS: as})
		}
	}
	return vrps
}

// deepPair draws a deepTuples set and a second one that is its Strict
// compression, a re-expression of it (a tuple p/l-m split into p/l and its
// two children up to m), the set with one to three tuples changed, or an
// independent draw.
func deepPair(rng *rand.Rand) (a, b *rpki.Set) {
	a = rpki.NewSet(deepTuples(rng))
	switch rng.Intn(8) {
	case 0:
		b, _ = Compress(a, Options{})
	case 1:
		var split []rpki.VRP
		for _, x := range a.VRPs() {
			if x.MaxLength == x.Prefix.Len() || rng.Intn(2) == 0 {
				split = append(split, x)
				continue
			}
			split = append(split, rpki.VRP{Prefix: x.Prefix, MaxLength: x.Prefix.Len(), AS: x.AS},
				rpki.VRP{Prefix: x.Prefix.Child(0), MaxLength: x.MaxLength, AS: x.AS},
				rpki.VRP{Prefix: x.Prefix.Child(1), MaxLength: x.MaxLength, AS: x.AS})
		}
		b = rpki.NewSet(split)
	case 2:
		b = rpki.NewSet(deepTuples(rng))
	default:
		vrps := slices.Clone(a.VRPs())
		for n := 1 + rng.Intn(3); n > 0 && len(vrps) > 0; n-- {
			i := rng.Intn(len(vrps))
			switch x := &vrps[i]; rng.Intn(4) {
			case 0:
				vrps = slices.Delete(vrps, i, i+1)
			case 1:
				vrps = append(vrps, deepTuples(rng)[0])
			case 2:
				x.MaxLength = min(x.MaxLength+1, x.Prefix.MaxLen())
			default:
				x.MaxLength = max(x.MaxLength-1, x.Prefix.Len())
			}
		}
		b = rpki.NewSet(vrps)
	}
	return a, b
}

// The merged-trie oracle: the walker SemanticEqual replaced, kept as the
// reference that judges it beyond the brute-force universe.

// mnode is one vertex of the merged trie: its children's slab indices, 0
// where there is none (node 0 is the root), and one maxLength bound per side,
// -1 when the side holds no tuple at the node.
type mnode struct {
	children   [2]int32
	valA, valB int16
}

// mtrie is the slab holding one merged (AS, family) trie.
type mtrie struct {
	nodes []mnode
	root  prefix.Prefix // the /0 of the group's family
}

// mAbsent is a node neither side holds a tuple at.
var mAbsent = mnode{valA: -1, valB: -1}

// build empties the trie, keeping its slab, and inserts one group's tuples of
// both sides, a and b, each in canonical order. The two lists are merged, so
// the tuples arrive in pre-order of the merged trie and each is inserted
// through a finger: path holds the nodes of the previous tuple's prefix, and
// the next prefix descends from its longest common prefix with that one, not
// from the root — Σ(len − cpl) node steps in all instead of Σ len.
func (m *mtrie) build(fam prefix.Family, a, b []rpki.VRP) {
	root, err := prefix.Make(fam, 0, 0, 0)
	if err != nil {
		panic(err) // fam is a tuple's family; unreachable
	}
	m.root = root
	m.nodes = append(m.nodes[:0], mAbsent)
	var path [maxDepth]int32 // path[d]: the node of prev's ancestor of length d; path[0] is the root
	prev := root
	for len(a) > 0 || len(b) > 0 {
		var v rpki.VRP
		sideB := len(a) == 0 || len(b) > 0 && b[0].Prefix.Compare(a[0].Prefix) < 0
		if sideB {
			v, b = b[0], b[1:]
		} else {
			v, a = a[0], a[1:]
		}
		depth := prefix.CommonPrefixLen(prev, v.Prefix)
		idx := path[depth]
		for ; depth < v.Prefix.Len(); depth++ {
			bit := v.Prefix.Bit(depth)
			c := m.nodes[idx].children[bit]
			if c == 0 {
				c = int32(len(m.nodes))
				m.nodes = append(m.nodes, mAbsent)
				m.nodes[idx].children[bit] = c
			}
			idx = c
			path[depth+1] = idx
		}
		prev = v.Prefix
		n, ml := &m.nodes[idx], int16(v.MaxLength)
		if sideB {
			n.valB = max(n.valB, ml)
		} else {
			n.valA = max(n.valA, ml)
		}
	}
}

// semanticEqualViaTrie is SemanticEqual's differential oracle, the merged
// trie walker it replaced: same verdict, same counterexample — the first, in
// canonical order, of the first (AS, family) group in which the sets
// disagree.
//
// The two tuple lists are read once, their groups in lockstep (NextGroup). A
// group both sides hold with identical tuple lists authorizes identical
// routes and is passed over; for every other group either side holds, the
// merged trie is built and walked, into one slab reused from group to group,
// so one group's trie is alive at a time. The trie's nodes are every prefix
// on a path from the root to a tuple: the walk carries, for each side, the
// running maximum maxLength over present ancestors (g), and compares g at
// tuple nodes and at the roots of tuple-free subtrees, where it bounds every
// depth below.
func semanticEqualViaTrie(a, b *rpki.Set) (bool, *Counterexample) {
	var m mtrie
	restA, restB := a.VRPs(), b.VRPs()
	for len(restA) > 0 || len(restB) > 0 {
		// The next group in canonical order: on one side only, or on both.
		var sideA, sideB rpki.OriginGroup
		c := groupOrder(restA, restB)
		if c <= 0 {
			sideA, restA = rpki.NextGroup(restA)
		}
		if c >= 0 {
			sideB, restB = rpki.NextGroup(restB)
		}
		if slices.Equal(sideA.VRPs, sideB.VRPs) {
			continue // the same tuples authorize the same routes
		}
		g := sideA
		if c > 0 {
			g = sideB
		}
		if m.nodes == nil {
			m.nodes = make([]mnode, 0, groupNodeHint(sideA)+groupNodeHint(sideB))
		}
		m.build(g.Family, sideA.VRPs, sideB.VRPs)
		if ce := diffTrie(&m, g.AS); ce != nil {
			return false, ce
		}
	}
	return true, nil
}

// diffFrame is one pending work item of the diff traversal. With absentBit
// < 0 it is a real node: idx, its prefix, and the per-side ancestor maxima
// excluding the node itself. With absentBit 0 or 1 it is a deferred
// divergence report for the tuple-free subtree under that absent child of
// pfx (only pushed when the bounds already prove a divergence), kept on the
// stack so it surfaces at its correct pre-order position.
type diffFrame struct {
	idx       int32
	gA, gB    int16
	absentBit int8
	pfx       prefix.Prefix
}

// diffTrie returns the first counterexample of a pre-order scan of the
// merged trie, or nil if the sides agree everywhere.
func diffTrie(m *mtrie, as rpki.ASN) *Counterexample {
	stack := make([]diffFrame, 1, 2*maxDepth)
	stack[0] = diffFrame{idx: 0, gA: -1, gB: -1, absentBit: -1, pfx: m.root}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.absentBit >= 0 {
			return tupleFreeCounterexample(f.pfx, uint8(f.absentBit), f.gA, f.gB, as)
		}
		n := &m.nodes[f.idx]
		gA, gB := f.gA, f.gB
		if n.valA > gA {
			gA = n.valA
		}
		if n.valB > gB {
			gB = n.valB
		}
		l := int16(f.pfx.Len())
		// Authorization of the node's own prefix.
		if (l <= gA) != (l <= gB) {
			return &Counterexample{
				Route:       rpki.VRP{Prefix: f.pfx, MaxLength: f.pfx.Len(), AS: as},
				AuthorizedA: l <= gA,
			}
		}
		// Push children 1-before-0 so the stack pops them in bit order. An
		// absent child roots a tuple-free subtree whose authorized depths are
		// (l, gX]: the sides agree iff the effective bounds match or both
		// bound-authorized ranges are empty; otherwise a deferred divergence
		// frame keeps the report at its pre-order position.
		for bit := int8(1); bit >= 0; bit-- {
			if c := n.children[bit]; c != 0 {
				stack = append(stack, diffFrame{idx: c, gA: gA, gB: gB, absentBit: -1, pfx: f.pfx.Child(uint8(bit))})
			} else if gA != gB && (gA > l || gB > l) {
				stack = append(stack, diffFrame{gA: gA, gB: gB, absentBit: bit, pfx: f.pfx})
			}
		}
	}
	return nil
}

// tupleFreeCounterexample builds a route at the first depth where exactly
// one side authorizes within the absent-child subtree.
func tupleFreeCounterexample(parent prefix.Prefix, bit uint8, gA, gB int16, as rpki.ASN) *Counterexample {
	authA := gA > gB
	hi := gA // the smaller of the two bounds
	if authA {
		hi = gB
	}
	// Depths in (max(hi, parent.Len()), max(gA, gB)] are authorized by one
	// side only; pick the shallowest.
	depth := hi + 1
	if depth < int16(parent.Len())+1 {
		depth = int16(parent.Len()) + 1
	}
	q := parent.Child(bit)
	for int16(q.Len()) < depth {
		q = q.Child(0)
	}
	return &Counterexample{
		Route:       rpki.VRP{Prefix: q, MaxLength: q.Len(), AS: as},
		AuthorizedA: authA,
	}
}
