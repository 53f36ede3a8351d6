package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/prefix"
	"repro/internal/rpki"
	"repro/internal/synth"
)

// TestFigure2Golden reproduces Figure 2 of the paper exactly: the minimal
// ROAs of AS 31283 compress from four tuples to two.
func TestFigure2Golden(t *testing.T) {
	in := rpki.NewSet([]rpki.VRP{
		v("87.254.32.0/19", 19, 31283),
		v("87.254.32.0/20", 20, 31283),
		v("87.254.48.0/20", 20, 31283),
		v("87.254.32.0/21", 21, 31283),
	})
	for _, mode := range []Mode{Strict, Literal} {
		out, res := Compress(in, Options{Mode: mode})
		if out.Len() != 2 {
			t.Fatalf("mode %v: compressed to %d tuples, want 2: %v", mode, out.Len(), out.VRPs())
		}
		want := rpki.NewSet([]rpki.VRP{
			v("87.254.32.0/19", 20, 31283), // 87.254.32.0/19-20
			v("87.254.32.0/21", 21, 31283),
		})
		if !out.Equal(want) {
			t.Fatalf("mode %v: got %v, want %v", mode, out.VRPs(), want.VRPs())
		}
		if res.In != 4 || res.Out != 2 || res.Merged != 2 || res.Raised != 1 {
			t.Errorf("mode %v: result = %+v", mode, res)
		}
		if err := VerifyCompression(in, out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompressDoesNotProduceFigure2NonMinimal checks the explicit
// non-example of §7: the compressor must NOT emit (87.254.32.0/19-21),
// which would be vulnerable on 87.254.40.0/21.
func TestCompressDoesNotProduceFigure2NonMinimal(t *testing.T) {
	in := rpki.NewSet([]rpki.VRP{
		v("87.254.32.0/19", 19, 31283),
		v("87.254.32.0/20", 20, 31283),
		v("87.254.48.0/20", 20, 31283),
		v("87.254.32.0/21", 21, 31283),
	})
	out, _ := Compress(in, Options{})
	for _, x := range out.VRPs() {
		if x.Prefix == mp("87.254.32.0/19") && x.MaxLength >= 21 {
			t.Fatalf("compressor emitted the vulnerable tuple %v", x)
		}
	}
	// The forged-origin target must remain unauthorized.
	hijack := mp("87.254.40.0/21")
	for _, x := range out.VRPs() {
		if x.Matches(hijack, 31283) {
			t.Fatalf("compressed set authorizes the hijacker's %s via %v", hijack, x)
		}
	}
}

func TestCompressFullSubtree(t *testing.T) {
	// A complete 2-level de-aggregation collapses to a single tuple.
	in := rpki.NewSet([]rpki.VRP{
		v("10.0.0.0/8", 8, 1),
		v("10.0.0.0/9", 9, 1),
		v("10.128.0.0/9", 9, 1),
		v("10.0.0.0/10", 10, 1),
		v("10.64.0.0/10", 10, 1),
		v("10.128.0.0/10", 10, 1),
		v("10.192.0.0/10", 10, 1),
	})
	out, res := Compress(in, Options{})
	if out.Len() != 1 {
		t.Fatalf("got %d tuples: %v", out.Len(), out.VRPs())
	}
	got := out.VRPs()[0]
	if got != v("10.0.0.0/8", 10, 1) {
		t.Fatalf("got %v, want 10.0.0.0/8-10", got)
	}
	if res.Merged != 6 {
		t.Errorf("Merged = %d, want 6", res.Merged)
	}
	if err := VerifyCompression(in, out); err != nil {
		t.Fatal(err)
	}
}

func TestCompressNoMergeAcrossGap(t *testing.T) {
	// /19 with a /21 on the left branch and /20 on the right: the literal
	// algorithm merges across the gap and breaks semantics; Strict must not.
	in := rpki.NewSet([]rpki.VRP{
		v("87.254.32.0/19", 19, 1),
		v("87.254.32.0/21", 21, 1), // left branch, 2 bits down
		v("87.254.48.0/20", 20, 1), // right branch, 1 bit down
	})
	outStrict, _ := Compress(in, Options{Mode: Strict})
	if err := VerifyCompression(in, outStrict); err != nil {
		t.Fatalf("Strict broke semantics: %v", err)
	}
	if outStrict.Len() != 3 {
		t.Errorf("Strict should not merge here, got %v", outStrict.VRPs())
	}
	outLit, _ := Compress(in, Options{Mode: Literal})
	if err := VerifyCompression(in, outLit); err == nil {
		t.Log("note: literal algorithm happened to preserve semantics on this input")
	} else {
		// Expected: the literal algorithm authorizes 87.254.32.0/20.
		if ok, ce := SemanticEqual(in, outLit); ok || ce == nil || !ce.AuthorizedA == true {
			if ce != nil && ce.AuthorizedA {
				t.Errorf("unexpected counterexample direction: %v", ce)
			}
		}
	}
}

func TestCompressSiblingsWithoutParentNotMerged(t *testing.T) {
	// Both /17s announced but no /16 tuple: merging would authorize the /16
	// itself, so nothing may happen.
	in := rpki.NewSet([]rpki.VRP{
		v("168.122.0.0/17", 17, 111),
		v("168.122.128.0/17", 17, 111),
	})
	out, res := Compress(in, Options{})
	if !out.Equal(in) || res.Merged != 0 {
		t.Fatalf("sibling-only merge happened: %v", out.VRPs())
	}
}

func TestCompressChainedMerge(t *testing.T) {
	// Full 3-level tree with heterogeneous values merges bottom-up.
	in := rpki.NewSet([]rpki.VRP{
		v("10.0.0.0/8", 8, 1),
		v("10.0.0.0/9", 9, 1),
		v("10.128.0.0/9", 9, 1),
	})
	out, _ := Compress(in, Options{})
	want := rpki.NewSet([]rpki.VRP{v("10.0.0.0/8", 9, 1)})
	if !out.Equal(want) {
		t.Fatalf("got %v, want 10.0.0.0/8-9", out.VRPs())
	}
}

func TestCompressPerASIsolation(t *testing.T) {
	// Identical structure under two ASes must compress independently.
	in := rpki.NewSet([]rpki.VRP{
		v("10.0.0.0/8", 8, 1), v("10.0.0.0/9", 9, 1), v("10.128.0.0/9", 9, 1),
		v("10.0.0.0/9", 9, 2), v("10.128.0.0/9", 9, 2), // no parent for AS 2
	})
	out, _ := Compress(in, Options{})
	if out.Len() != 3 {
		t.Fatalf("got %v", out.VRPs())
	}
	if err := VerifyCompression(in, out); err != nil {
		t.Fatal(err)
	}
}

func TestCompressSubsumptionOption(t *testing.T) {
	in := rpki.NewSet([]rpki.VRP{
		v("10.0.0.0/8", 24, 1),
		v("10.5.0.0/16", 20, 1), // entirely inside 10.0.0.0/8-24
	})
	out, res := Compress(in, Options{})
	if out.Len() != 2 {
		t.Fatalf("paper algorithm should not subsume one-sided: %v", out.VRPs())
	}
	out2, res2 := Compress(in, Options{Subsumption: true})
	if out2.Len() != 1 || res2.Subsumed != 1 {
		t.Fatalf("subsumption pass failed: %v (%+v)", out2.VRPs(), res2)
	}
	if err := VerifyCompression(in, out2); err != nil {
		t.Fatal(err)
	}
	if res.Subsumed != 0 {
		t.Errorf("default run reported subsumption: %+v", res)
	}
}

func TestCompressIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		in := randomSet(rng, 40)
		out1, _ := Compress(in, Options{})
		out2, _ := Compress(out1, Options{})
		if !out1.Equal(out2) {
			t.Fatalf("not idempotent:\nfirst  %v\nsecond %v", out1.VRPs(), out2.VRPs())
		}
	}
}

// randomSet builds a random VRP set biased toward sibling structure so
// merges actually occur.
func randomSet(rng *rand.Rand, n int) *rpki.Set {
	var vrps []rpki.VRP
	for i := 0; i < n; i++ {
		l := uint8(6 + rng.Intn(16))
		p, _ := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
		ml := l + uint8(rng.Intn(4))
		if ml > 32 {
			ml = 32
		}
		as := rpki.ASN(rng.Intn(3))
		vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: ml, AS: as})
		// With probability 1/2 add the sibling and parent to create mergeable
		// structure.
		if rng.Intn(2) == 0 && l > 0 {
			vrps = append(vrps,
				rpki.VRP{Prefix: p.Sibling(), MaxLength: ml, AS: as},
				rpki.VRP{Prefix: p.Parent(), MaxLength: p.Parent().Len(), AS: as})
		}
	}
	return rpki.NewSet(vrps)
}

// TestCompressStrictPreservesSemantics is the paper's central safety claim,
// checked with the exact verifier over randomized inputs.
func TestCompressStrictPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		in := randomSet(rng, 30)
		for _, opts := range []Options{{}, {Subsumption: true}} {
			out, res := Compress(in, opts)
			if ok, ce := SemanticEqual(in, out); !ok {
				t.Fatalf("trial %d opts %+v: semantics changed: %s\nin:  %v\nout: %v",
					trial, opts, ce, in.VRPs(), out.VRPs())
			}
			if res.Out > res.In {
				t.Fatalf("compression grew the set: %+v", res)
			}
		}
	}
}

// TestCompressNeverAuthorizesMore verifies one direction for the Literal
// mode too: even the literal algorithm never *removes* authorizations (it
// can only add, which is exactly its flaw).
func TestCompressLiteralNeverRemovesAuthorizations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		in := randomSet(rng, 25)
		out, _ := Compress(in, Options{Mode: Literal})
		// Every input tuple's own route must stay authorized.
		tries := BuildTries(out)
		trieFor := func(as rpki.ASN, fam prefix.Family) *Trie {
			for _, tr := range tries {
				if tr.AS() == as && tr.Family() == fam {
					return tr
				}
			}
			return nil
		}
		for _, x := range in.VRPs() {
			tr := trieFor(x.AS, x.Prefix.Family())
			if tr == nil || !tr.Authorizes(x.Prefix) {
				t.Fatalf("trial %d: literal compression lost %v", trial, x)
			}
		}
	}
}

func TestSavedFraction(t *testing.T) {
	r := Result{In: 100, Out: 84}
	if got := r.SavedFraction(); got < 0.1599 || got > 0.1601 {
		t.Errorf("SavedFraction = %v", got)
	}
	if (Result{}).SavedFraction() != 0 {
		t.Error("empty result fraction should be 0")
	}
}

func TestCompressEmptyAndSingle(t *testing.T) {
	empty, res := Compress(rpki.NewSet(nil), Options{})
	if empty.Len() != 0 || res.In != 0 || res.Out != 0 {
		t.Error("empty set mishandled")
	}
	one := rpki.NewSet([]rpki.VRP{v("10.0.0.0/8", 8, 1)})
	out, _ := Compress(one, Options{})
	if !out.Equal(one) {
		t.Error("singleton changed")
	}
}

func TestCompressQuick(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) > 24 {
			seeds = seeds[:24]
		}
		var vrps []rpki.VRP
		for _, s := range seeds {
			l := uint8(4 + s%20)
			p, err := prefix.Make(prefix.IPv4, uint64(s)<<32, 0, l)
			if err != nil {
				return false
			}
			ml := l + uint8((s>>8)%3)
			if ml > 32 {
				ml = 32
			}
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(s % 2)})
		}
		in := rpki.NewSet(vrps)
		out, _ := Compress(in, Options{Subsumption: true})
		ok, _ := SemanticEqual(in, out)
		return ok && out.Len() <= in.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// What follows is Algorithm 1 as the paper states it — a bit-trie per group,
// compressed in place as a DFS backtracks through it — kept as the reference
// Compress's slice-walking implementation is tested against.

// compressViaTries is Compress as it ran on tries: build each group's,
// compress it in place, read its tuples back.
func compressViaTries(s *rpki.Set, opts Options) (*rpki.Set, Result) {
	tries := BuildTries(s)
	res := Result{In: s.Len(), Groups: len(tries)}
	var out []rpki.VRP
	for _, t := range tries {
		r := compressTrie(t, opts)
		res.Merged += r.Merged
		res.Subsumed += r.Subsumed
		res.Raised += r.Raised
		out = t.Tuples(out)
	}
	ReleaseTries(tries)
	cs := rpki.NewSet(out)
	res.Out = cs.Len()
	return cs, res
}

// compressTrie runs Algorithm 1 over one trie in place.
//
// "we iterate through the trie using a depth-first search (DFS). As the
// DFS backtracks through the trie we run the compression function." The DFS
// is iterative: a frame is pushed in the descend stage (stage 0), its
// children are queued, and the compression function runs when the frame
// resurfaces with its subtree finished (stage 1).
func compressTrie(t *Trie, opts Options) Result {
	var res Result
	if opts.Subsumption {
		res.Subsumed = subsume(t)
	}
	var scratch []int32
	if opts.Mode == Literal {
		// One BFS queue reused across every nearestPresent call of this trie.
		scratch = make([]int32, 0, 64)
	}
	type frame struct {
		idx   int32
		stage uint8
	}
	stack := make([]frame, 1, 2*maxDepth)
	stack[0] = frame{idx: 0}
	for len(stack) > 0 {
		top := len(stack) - 1
		f := stack[top]
		if f.stage == 0 {
			stack[top].stage = 1
			n := &t.nodes[f.idx]
			if c := n.children[1]; c != 0 {
				stack = append(stack, frame{idx: c})
			}
			if c := n.children[0]; c != 0 {
				stack = append(stack, frame{idx: c})
			}
			continue
		}
		stack = stack[:top]
		n := &t.nodes[f.idx]
		if !n.present {
			continue
		}
		var l, r int32
		switch opts.Mode {
		case Strict:
			l = presentAtDepthPlusOne(t, n.children[0])
			r = presentAtDepthPlusOne(t, n.children[1])
		case Literal:
			l = nearestPresent(t, n.children[0], &scratch)
			r = nearestPresent(t, n.children[1], &scratch)
		}
		if l < 0 || r < 0 {
			continue // "if node has both direct children" fails
		}
		ln, rn := &t.nodes[l], &t.nodes[r]
		minChildVal := ln.value
		if rn.value < minChildVal {
			minChildVal = rn.value
		}
		if minChildVal > n.value {
			// "Adjust parent's maxLength to cover children."
			n.value = minChildVal
			res.Raised++
		}
		if ln.value <= n.value {
			ln.present = false // "left child now covered by father"
			t.size--
			res.Merged++
		}
		if rn.value <= n.value {
			rn.present = false
			t.size--
			res.Merged++
		}
	}
	return res
}

// presentAtDepthPlusOne returns c if it is a present node (c is already the
// depth+1 child index), else -1.
func presentAtDepthPlusOne(t *Trie, c int32) int32 {
	if c != 0 && t.nodes[c].present {
		return c
	}
	return -1
}

// nearestPresent returns the shortest-keyed present node in the subtree
// rooted at c — the paper's "direct child" — or -1 when the subtree holds
// none. When both branches of a structural node hold present descendants at
// equal minimal depth there is no unique shortest key; we take the left (0)
// branch's, matching a pre-order scan of the key space.
//
// scratch is a caller-owned BFS queue reused across calls (compressTrie holds
// one per trie); the possibly-grown slice is stored back through the pointer
// so capacity accumulates instead of being reallocated per present node.
func nearestPresent(t *Trie, c int32, scratch *[]int32) int32 {
	if c == 0 {
		return -1
	}
	// BFS by depth to find the minimal-depth present node; head indexes into
	// the queue rather than re-slicing so the backing array keeps its start.
	queue := append((*scratch)[:0], c)
	found := int32(-1)
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		n := &t.nodes[i]
		if n.present {
			found = i
			break
		}
		if n.children[0] != 0 {
			queue = append(queue, n.children[0])
		}
		if n.children[1] != 0 {
			queue = append(queue, n.children[1])
		}
	}
	*scratch = queue
	return found
}

// subsume deletes every present node whose maxLength does not exceed the
// largest maxLength among its present ancestors. Sound for any input: the
// ancestor authorizes a superset of the deleted tuple's routes.
func subsume(t *Trie) int {
	removed := 0
	type frame struct {
		idx int32
		g   int16
	}
	stack := make([]frame, 1, maxDepth+1)
	stack[0] = frame{idx: 0, g: -1}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[f.idx]
		g := f.g
		if n.present {
			if int16(n.value) <= g {
				n.present = false
				t.size--
				removed++
			} else {
				g = int16(n.value)
			}
		}
		for bit := 0; bit < 2; bit++ {
			if c := n.children[bit]; c != 0 {
				stack = append(stack, frame{idx: c, g: g})
			}
		}
	}
	return removed
}

// groupFromBytes decodes one (AS, family) group from fuzz input. Byte 0
// picks the family (low bit) and the AS; every three bytes after it are one
// tuple: a prefix length, the address's leading byte (the rest is zero), and
// a byte whose low bit sets the prefix's last bit — so parents and sibling
// pairs are frequent at every depth, /0 and /128 included — whose next bit
// forces maxLength to the family maximum, and whose remaining bits are
// maxLength's distance from the length. Equal prefixes with different
// maxLengths come out often.
func groupFromBytes(data []byte) []rpki.VRP {
	if len(data) == 0 {
		return nil
	}
	fam, as := prefix.IPv4, rpki.ASN(data[0]>>1)
	if data[0]&1 != 0 {
		fam = prefix.IPv6
	}
	var out []rpki.VRP
	for d := data[1:]; len(d) >= 3; d = d[3:] {
		l := d[0] % (fam.MaxLen() + 1)
		p, err := prefix.Make(fam, uint64(d[1])<<56, 0, l)
		if err != nil {
			panic(err)
		}
		if l > 0 && d[2]&1 != 0 && p.Bit(l-1) == 0 {
			p = p.Sibling()
		}
		ml := min(int(l)+int(d[2]>>2)%6, int(fam.MaxLen()))
		if d[2]&2 != 0 {
			ml = int(fam.MaxLen())
		}
		out = append(out, rpki.VRP{Prefix: p, MaxLength: uint8(ml), AS: as})
	}
	return out
}

// checkAgainstTrieReference fails t unless Compress and the trie reference
// agree on set — tuples and every Result counter — under all four options,
// and unless what Compress writes is strictly ascending already, the
// property that lets its Set take the list without sorting a copy.
func checkAgainstTrieReference(t *testing.T, set *rpki.Set) {
	t.Helper()
	for _, opts := range []Options{
		{Mode: Strict}, {Mode: Strict, Subsumption: true},
		{Mode: Literal}, {Mode: Literal, Subsumption: true},
	} {
		written, _ := compressList(set.VRPs(), opts)
		for i := 1; i < len(written); i++ {
			if written[i-1].Compare(written[i]) >= 0 {
				t.Fatalf("opts %+v on %d tuples: Compress wrote %v before %v", opts, set.Len(), written[i-1], written[i])
			}
		}
		got, gotRes := Compress(set, opts)
		want, wantRes := compressViaTries(set, opts)
		if gotRes != wantRes {
			t.Fatalf("opts %+v on %d tuples: Compress reports %+v, reference %+v", opts, set.Len(), gotRes, wantRes)
		}
		if added, removed := want.Diff(got); len(added)+len(removed) > 0 {
			t.Fatalf("opts %+v on %d tuples: Compress has %v that the reference lacks, and lacks its %v", opts, set.Len(), added, removed)
		}
	}
}

// TestCompressMatchesTrieReference is the differential test that lets
// Compress run without tries: on random groups dense in parents, siblings
// and repeated prefixes, one to three groups to a set, it must produce what
// the paper-literal trie implementation produces.
func TestCompressMatchesTrieReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	for trial := 0; trial < 5000; trial++ {
		var vrps []rpki.VRP
		for g := 1 + rng.Intn(3); g > 0; g-- {
			data := []byte{byte(rng.Intn(8))}
			// Lengths from a window of four and two leading bytes keep the
			// group's tuples on a few shared paths.
			base, lead := rng.Intn(126), byte(rng.Intn(256))
			for n := rng.Intn(40); n > 0; n-- {
				data = append(data, byte(base+rng.Intn(4)), lead^byte(rng.Intn(2)<<uint(rng.Intn(8))), byte(rng.Intn(256)))
			}
			vrps = append(vrps, groupFromBytes(data)...)
		}
		checkAgainstTrieReference(t, rpki.NewSet(vrps))
	}
}

// FuzzCompressVsTrie is the same comparison on fuzzer-chosen groups.
func FuzzCompressVsTrie(f *testing.F) {
	f.Add([]byte{0, 19, 87, 0, 20, 87, 0, 20, 87, 1, 21, 87, 0}) // Figure 2's shape
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 128, 9, 0, 128, 9, 1, 127, 9, 2})
	f.Add([]byte{2, 8, 10, 0, 8, 10, 8, 8, 10, 2, 9, 10, 0, 9, 10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstTrieReference(t, rpki.NewSet(groupFromBytes(data)))
	})
}

// TestCompressMatchesTrieReferenceAtScale makes the same comparison on the
// calibrated 6/1/2017 snapshot and its full-deployment minimal set, the
// inputs behind Table 1.
func TestCompressMatchesTrieReferenceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping paper-scale differential")
	}
	d := synth.Generate(synth.Params6_1())
	checkAgainstTrieReference(t, d.VRPs)
	checkAgainstTrieReference(t, FullDeploymentMinimal(d.Table))
}
