package core

import (
	"math/rand"
	"testing"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// TestStrictMatchesLiteralOnGapFreeInputs: when every tuple's trie parent
// chain is gap-free (each present node's nearest present descendants sit
// exactly one bit below), the printed Algorithm 1 and the Strict variant are
// the same algorithm and must produce identical output. This is the regime
// §7.2 measures (minimal ROAs derived from announced sibling sets), which is
// why the paper's published numbers are reproducible with either variant.
func TestStrictMatchesLiteralOnGapFreeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		// Build gap-free families: a base plus complete levels below it.
		var vrps []rpki.VRP
		for f := 0; f < 1+rng.Intn(8); f++ {
			l := uint8(8 + rng.Intn(12))
			base, err := prefix.Make(prefix.IPv4, rng.Uint64()&0xffffffff00000000, 0, l)
			if err != nil {
				t.Fatal(err)
			}
			as := rpki.ASN(rng.Intn(2))
			depth := uint8(rng.Intn(3)) // 0..2 complete levels
			for d := uint8(0); d <= depth; d++ {
				for _, p := range base.Subprefixes(nil, l+d) {
					vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: p.Len(), AS: as})
				}
			}
		}
		in := rpki.NewSet(vrps)
		outStrict, resStrict := Compress(in, Options{Mode: Strict})
		outLiteral, resLiteral := Compress(in, Options{Mode: Literal})
		if !outStrict.Equal(outLiteral) {
			t.Fatalf("trial %d: variants disagree on a gap-free input\nstrict:  %v\nliteral: %v",
				trial, outStrict.VRPs(), outLiteral.VRPs())
		}
		if resStrict.Out != resLiteral.Out {
			t.Fatalf("trial %d: sizes differ: %d vs %d", trial, resStrict.Out, resLiteral.Out)
		}
		// And on gap-free inputs even Literal preserves semantics.
		if err := VerifyCompression(in, outLiteral); err != nil {
			t.Fatalf("trial %d: literal broke semantics on a gap-free input: %v", trial, err)
		}
	}
}

// TestLiteralDivergesOnGappedInput pins the counterexample in Literal's doc:
// {p/19, p0../21, p1../20} — Literal merges across the 2-bit gap and
// authorizes a route the input never did; Strict must not.
func TestLiteralDivergesOnGappedInput(t *testing.T) {
	in := rpki.NewSet([]rpki.VRP{
		v("87.254.32.0/19", 19, 1),
		v("87.254.32.0/21", 21, 1),
		v("87.254.48.0/20", 20, 1),
	})
	outLit, _ := Compress(in, Options{Mode: Literal})
	ok, ce := SemanticEqual(in, outLit)
	if ok {
		t.Skip("literal algorithm did not merge on this Go ordering; counterexample not triggered")
	}
	if ce.AuthorizedA {
		t.Fatalf("literal mode REMOVED an authorization: %v", ce)
	}
	// The newly authorized route must be the unannounced left /20.
	if ce.Route.Prefix != mp("87.254.32.0/20") {
		t.Fatalf("unexpected counterexample %v, want the left /20", ce)
	}
	// Strict is safe on the same input.
	outStrict, _ := Compress(in, Options{Mode: Strict})
	if err := VerifyCompression(in, outStrict); err != nil {
		t.Fatal(err)
	}
}
